// WorkerPool: a fixed set of executors running barrier-separated rounds.
//
// The engine's threaded stepping mode runs the per-device passes of each
// Engine round here for its simulated devices (one pass that moves every
// device one cycle, and a second only for a whole-fleet quiet
// fast-forward), sharded across the pool's executors: task i runs on
// executor i % size(), so a given device is always driven by the same
// thread and each device stays a single-threaded clock domain. Event-driven
// devices (FastDevice) never come here: their rounds are too short to pay
// for a barrier, so the Engine steps them on its caller's thread and builds
// a pool only for a fleet that holds a simulated device. Executor 0 is the
// thread that calls `run()`; the pool spawns only size() - 1 threads, and a
// pool of size 1 runs every round inline with no barrier at all.
//
// `run()` blocks until the whole pass retires, giving the caller a
// happens-before edge over everything the workers touched: after `run()`
// returns, the caller may freely read or mutate device state with no
// further synchronization, and no worker touches anything until the next
// pass is dispatched.
//
// The barrier is a spin-then-block one (Mellor-Crummey & Scott, TOCS
// 1991). A round starts when the caller bumps `epoch_`; it ends when the
// last worker brings `pending_` to zero. Both sides spin on the counter for
// up to kSpinBound of wall time — an Engine steps again within
// microseconds, so a hot fleet never sleeps — then park in
// `std::atomic::wait`, so an idle pool burns no CPU.
//
// Exceptions thrown by round tasks are captured (first one wins) and
// rethrown on the caller's thread after the round completes, so a device
// that throws mid-step fails the `step()` call just as it does serially.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace mccp::host {

class WorkerPool {
 public:
  /// How long either side of the barrier spins before it parks. Bounded by
  /// time, not iterations: a pause instruction costs ~10-140 cycles
  /// depending on the CPU.
  static constexpr std::chrono::microseconds kSpinBound{100};

  explicit WorkerPool(std::size_t num_executors) : size_(num_executors) {
    try {
      for (std::size_t w = 1; w < size_; ++w) threads_.emplace_back([this, w] { worker_loop(w); });
    } catch (...) {  // could not spawn them all: retire the ones that started
      stop();
      throw;
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() { stop(); }

  /// Executors, the caller's thread included.
  std::size_t size() const { return size_; }

  /// Run fn(0) .. fn(num_tasks - 1) across the executors and block until
  /// every invocation has returned. One round at a time; must be called
  /// from a single caller thread, which runs executor 0's share itself.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn) {
    if (num_tasks == 0) return;
    if (threads_.empty()) {  // one executor (or none): run inline
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
      return;
    }
    fn_ = &fn;
    tasks_ = num_tasks;
    error_ = nullptr;
    error_claimed_.store(false, std::memory_order_relaxed);
    pending_.store(threads_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    run_shard(0);
    // Even if the caller's own shard threw, wait for every worker: only
    // then are fn_/tasks_ free for the next round and the devices ours.
    await(pending_, [](std::size_t left) { return left == 0; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Spin, then park, until `done(a)` holds; returns the value that did.
  template <class T, class Done>
  static T await(const std::atomic<T>& a, Done done) {
    using Clock = std::chrono::steady_clock;
    T v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    const Clock::time_point deadline = Clock::now() + kSpinBound;
    do {
      for (int i = 0; i < 64; ++i) {
        cpu_relax();
        if (done(v = a.load(std::memory_order_acquire))) return v;
      }
      // Every 64 pauses, hand the core to any runnable thread (on an
      // oversubscribed host that is often the executor we wait for), then
      // check the clock.
      std::this_thread::yield();
    } while (Clock::now() < deadline);
    for (;;) {
      a.wait(v, std::memory_order_acquire);
      if (done(v = a.load(std::memory_order_acquire))) return v;
    }
  }

  void stop() {
    stop_ = true;  // published by the epoch bump below
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run_shard(std::size_t executor) {
    try {
      // Static sharding: executor e owns tasks e, e + size, e + 2 size, ...
      // so the task -> thread mapping is stable across rounds (devices keep
      // their thread, caches stay warm, and determinism is trivial).
      for (std::size_t i = executor; i < tasks_; i += size_) (*fn_)(i);
    } catch (...) {
      if (!error_claimed_.exchange(true, std::memory_order_relaxed)) error_ = std::current_exception();
    }
  }

  void worker_loop(std::size_t executor) {
    std::uint64_t seen = 0;
    for (;;) {
      seen = await(epoch_, [seen](std::uint64_t e) { return e != seen; });
      if (stop_) return;
      run_shard(executor);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
    }
  }

  const std::size_t size_;
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> pending_{0};
  // Round state: written by the caller before the epoch bump, read by the
  // workers after they see it.
  alignas(64) const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t tasks_ = 0;
  bool stop_ = false;
  // First exception of the round; the caller reads it after pending_ hits 0.
  std::atomic<bool> error_claimed_{false};
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

}  // namespace mccp::host
