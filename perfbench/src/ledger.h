// Host-time ledger for the traced benchmark run.
//
// Spans are recorded only from the benchmark's side of the public API:
// around each call into a layer (job generation, Engine submit/step,
// completion callbacks, net::Client send/poll) and, through TimedDevice,
// around every host::Device virtual the Engine calls. A span's self time
// is its duration minus the child spans and device time it covers, so the
// layers plus "other" add up to the traced wall.
//
// Device time is kept per device in counters that only the thread driving
// the device writes (the Engine's round barrier separates worker and
// caller accesses). In threaded stepping the device layer's share of the
// wall is its critical path: time on the calling thread plus, per span,
// the busiest worker's time (device i runs on worker i % workers).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "host/device.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-wait `ns` nanoseconds (synthetic delay for the layer self-test).
inline void spin_ns(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

/// Spanned layers on the driving thread.
enum Layer : int {
  kGen,         // ClassJobStream take/skip
  kCallback,    // completion callbacks (benchmark accounting + resubmits)
  kHostSubmit,  // Engine submit_batch / submit_decrypt, minus device time
  kHostStep,    // Engine step / advance_to, minus device time and callbacks
  kNetSend,     // net::Client submit
  kNetPoll,     // net::Client poll calls that delivered completions
  kNetIdle,     // net::Client poll calls that found nothing to read
  kLayerCount,
};

/// Device virtuals, grouped.
enum DeviceOp : int {
  kDevSubmit,   // submit, submit_batch
  kDevStep,     // step, advance_to, pump_round, quiet_horizon, advance_quiet
  kDevPoll,     // result, forget
  kDevControl,  // provision_key, open/close_channel, begin_reconfiguration
  kDevQuery,    // cheap introspection: counted, not timed
  kDevOpCount,
};

/// Synthetic delays for the layer self-test (0 = off).
struct Injection {
  std::int64_t device_step_ns = 0;
  std::int64_t callback_ns = 0;
};

class TimedDevice final : public mccp::host::Device {
 public:
  TimedDevice(std::unique_ptr<Device> inner, std::int64_t step_delay_ns)
      : inner_(std::move(inner)), step_delay_ns_(step_delay_ns),
        main_thread_(std::this_thread::get_id()) {}

  std::uint64_t ns(DeviceOp op) const { return ns_[op].load(std::memory_order_relaxed); }
  std::uint64_t calls(DeviceOp op) const { return calls_[op].load(std::memory_order_relaxed); }
  std::uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }
  /// Timed nanoseconds spent on the constructing thread / on others.
  std::uint64_t main_ns() const { return main_ns_.load(std::memory_order_relaxed); }
  std::uint64_t worker_ns() const { return worker_ns_.load(std::memory_order_relaxed); }

  std::string name() const override { return query(), inner_->name(); }
  void provision_key(mccp::top::KeyId id, mccp::Bytes key) override {
    Timer t(*this, kDevControl);
    inner_->provision_key(id, std::move(key));
  }
  std::optional<mccp::host::ChannelInfo> open_channel(mccp::host::ChannelMode mode,
                                                      mccp::top::KeyId key, unsigned tag_len,
                                                      unsigned nonce_len) override {
    Timer t(*this, kDevControl);
    return inner_->open_channel(mode, key, tag_len, nonce_len);
  }
  bool close_channel(std::uint8_t id) override {
    Timer t(*this, kDevControl);
    return inner_->close_channel(id);
  }
  std::uint8_t last_error() const override { return query(), inner_->last_error(); }

  mccp::host::DeviceJobId submit(mccp::host::JobSpec spec) override {
    Timer t(*this, kDevSubmit);
    return inner_->submit(std::move(spec));
  }
  std::vector<mccp::host::DeviceJobId> submit_batch(
      std::span<mccp::host::JobSpec> specs) override {
    Timer t(*this, kDevSubmit);
    return inner_->submit_batch(specs);
  }
  void step() override {
    Timer t(*this, kDevStep);
    bump(rounds_, 1);
    spin_ns(step_delay_ns_);
    inner_->step();
  }
  void advance_to(mccp::sim::Cycle target) override {
    Timer t(*this, kDevStep);
    inner_->advance_to(target);
  }
  bool idle() const override { return query(), inner_->idle(); }
  bool supports_quiet_burst() const override { return query(), inner_->supports_quiet_burst(); }
  bool pump_round() override {
    Timer t(*this, kDevStep);
    bump(rounds_, 1);
    spin_ns(step_delay_ns_);
    return inner_->pump_round();
  }
  mccp::sim::Cycle quiet_horizon(mccp::sim::Cycle cap) const override {
    Timer t(*this, kDevStep);
    return inner_->quiet_horizon(cap);
  }
  void advance_quiet(mccp::sim::Cycle n) override {
    Timer t(*this, kDevStep);
    inner_->advance_quiet(n);
  }
  const mccp::host::JobResult* result(mccp::host::DeviceJobId id) const override {
    Timer t(*this, kDevPoll);
    return inner_->result(id);
  }
  std::uint64_t completions() const override { return query(), inner_->completions(); }
  void forget(mccp::host::DeviceJobId id) override {
    Timer t(*this, kDevPoll);
    inner_->forget(id);
  }
  mccp::reconfig::CoreImage slot_image(std::size_t slot) const override {
    return query(), inner_->slot_image(slot);
  }
  bool slot_reconfiguring(std::size_t slot) const override {
    return query(), inner_->slot_reconfiguring(slot);
  }
  std::size_t slots_with_image(mccp::reconfig::CoreImage img) const override {
    return query(), inner_->slots_with_image(img);
  }
  std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot,
                                                     mccp::reconfig::CoreImage image,
                                                     mccp::reconfig::BitstreamStore store) override {
    Timer t(*this, kDevControl);
    return inner_->begin_reconfiguration(slot, image, store);
  }
  std::uint64_t reconfigurations() const override {
    return query(), inner_->reconfigurations();
  }
  std::uint64_t reconfig_stall_cycles() const override {
    return query(), inner_->reconfig_stall_cycles();
  }
  std::uint64_t reconfigurations_to(mccp::reconfig::CoreImage img) const override {
    return query(), inner_->reconfigurations_to(img);
  }
  mccp::sim::Cycle now() const override { return query(), inner_->now(); }
  std::size_t num_cores() const override { return query(), inner_->num_cores(); }
  std::size_t inflight() const override { return query(), inner_->inflight(); }
  std::size_t open_channel_count() const override {
    return query(), inner_->open_channel_count();
  }
  bool failed() const override { return query(), inner_->failed(); }

 private:
  using Counter = std::atomic<std::uint64_t>;
  // One writer at a time (see the file comment): a relaxed load + store is
  // a race-free increment without a locked instruction.
  static void bump(Counter& c, std::uint64_t d) {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  void query() const { bump(calls_[kDevQuery], 1); }

  struct Timer {
    Timer(const TimedDevice& d, DeviceOp op) : d(d), op(op), start(now_ns()) {}
    ~Timer() {
      const auto dt = static_cast<std::uint64_t>(now_ns() - start);
      bump(d.ns_[op], dt);
      bump(d.calls_[op], 1);
      bump(std::this_thread::get_id() == d.main_thread_ ? d.main_ns_ : d.worker_ns_, dt);
    }
    const TimedDevice& d;
    DeviceOp op;
    std::int64_t start;
  };

  std::unique_ptr<Device> inner_;
  std::int64_t step_delay_ns_;
  std::thread::id main_thread_;
  mutable std::array<Counter, kDevOpCount> ns_{};
  mutable std::array<Counter, kDevOpCount> calls_{};
  mutable Counter rounds_{0};
  mutable Counter main_ns_{0};
  mutable Counter worker_ns_{0};
};

/// Span stack with self-time accounting, driven from one thread.
class Ledger {
 public:
  /// `devices` may be empty (net driver); `workers` = Engine worker threads.
  Ledger(std::vector<const TimedDevice*> devices, std::size_t workers)
      : devices_(std::move(devices)), workers_(workers == 0 ? 1 : workers),
        seen_main_(devices_.size(), 0), seen_worker_(devices_.size(), 0) {}

  void enter(Layer layer) {
    flush_devices();
    stack_.push_back({layer, now_ns(), 0});
  }
  /// Close the innermost span; `as` reclassifies it (e.g. poll -> idle).
  void leave(Layer as) {
    flush_devices();
    const std::int64_t t = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - f.start;
    self_ns[as] += dur - f.child;
    if (!stack_.empty()) stack_.back().child += dur;
  }
  void leave() { leave(stack_.back().layer); }
  /// Attribute device time accumulated since the last boundary.
  void flush_devices() {
    if (devices_.empty()) return;
    std::int64_t main_dt = 0;
    std::vector<std::int64_t> per_worker(workers_, 0);
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      const std::uint64_t m = devices_[d]->main_ns(), w = devices_[d]->worker_ns();
      main_dt += static_cast<std::int64_t>(m - seen_main_[d]);
      per_worker[d % workers_] += static_cast<std::int64_t>(w - seen_worker_[d]);
      seen_main_[d] = m;
      seen_worker_[d] = w;
    }
    std::int64_t path = main_dt;
    std::int64_t busiest = 0;
    for (std::int64_t w : per_worker) busiest = std::max(busiest, w);
    path += busiest;
    device_path_ns += path;
    if (!stack_.empty()) stack_.back().child += path;
  }

  std::array<std::int64_t, kLayerCount> self_ns{};
  /// Device time on the critical path of the driving thread.
  std::int64_t device_path_ns = 0;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<const TimedDevice*> devices_;
  std::size_t workers_;
  std::vector<std::uint64_t> seen_main_, seen_worker_;
  std::vector<Frame> stack_;
};

/// RAII span; a null ledger makes it free apart from one branch.
class Span {
 public:
  Span(Ledger* ledger, Layer layer) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->enter(layer);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace perfbench
