// host::Engine worker-pool stepping — the deterministic-replay harness.
//
// The threaded engine must be an observationally *identical* twin of the
// serial one: same per-job payloads/tags/cycle stamps on both backends,
// callbacks firing exactly once, on the caller's thread and in the same
// order under heavy contention (8 workers x 16 devices x 10k jobs) and
// re-entrancy, and no lost or duplicated completions across
// randomized-seed repetitions. Plus direct
// coverage of the WorkerPool round primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "host/engine.h"
#include "host/worker_pool.h"

namespace mccp::host {
namespace {

// ---- WorkerPool primitive ---------------------------------------------------

TEST(WorkerPool, RoundRunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  for (std::size_t tasks : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    std::vector<std::atomic<int>> hits(tasks);
    pool.run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < tasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(WorkerPool, TaskToWorkerPinningIsStable) {
  // Task i always lands on executor i % size: a device keeps its thread
  // across rounds (single-threaded clock domain).
  WorkerPool pool(2);
  constexpr std::size_t kTasks = 6;
  std::vector<std::thread::id> first(kTasks), second(kTasks);
  pool.run(kTasks, [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  pool.run(kTasks, [&](std::size_t i) { second[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
    EXPECT_EQ(first[i], first[i % 2]) << i;  // sharded by i % size()
  }
}

TEST(WorkerPool, RunReturnsOnlyAfterAllTasksFinish) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  pool.run(16, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 16);  // barrier: nothing still running
  pool.run(0, [&](std::size_t) { done.fetch_add(1); });  // empty round is a no-op
  EXPECT_EQ(done.load(), 16);
}

TEST(WorkerPool, TaskExceptionRethrownOnCaller) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.run(4,
                        [&](std::size_t i) {
                          if (i == 2) throw std::runtime_error("task 2 failed");
                        }),
               std::runtime_error);
  // The pool survives a throwing round.
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(WorkerPool, TaskZeroRunsOnCallerThread) {
  // Executor 0 is the caller: its shard (tasks 0, size, 2 size, ...) runs
  // on the thread that called run(), every round; the others stay pinned
  // to their own spawned threads.
  WorkerPool pool(3);
  constexpr std::size_t kTasks = 7;
  std::vector<std::thread::id> first(kTasks);
  pool.run(kTasks, [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  const std::set<std::thread::id> distinct(first.begin(), first.end());
  EXPECT_EQ(distinct.size(), 3u);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> ids(kTasks);
    pool.run(kTasks, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(ids[i], first[i % 3]) << "round " << round << " task " << i;
      EXPECT_EQ(ids[i] == std::this_thread::get_id(), i % 3 == 0) << i;
    }
  }
}

TEST(WorkerPool, CallerShardExceptionWaitsForWorkers) {
  // The caller's own shard throws at once while the worker's shard is still
  // asleep: run() must not rethrow (and release the round state) until
  // that worker has returned.
  WorkerPool pool(2);
  std::atomic<bool> worker_done{false};
  EXPECT_THROW(pool.run(2,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("caller shard failed");
                          std::this_thread::sleep_for(std::chrono::milliseconds(50));
                          worker_done.store(true);
                        }),
               std::runtime_error);
  EXPECT_TRUE(worker_done.load());
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(WorkerPool, BackToBackRoundsLoseNoWakeup) {
  // Many tiny rounds: most start while the workers still spin, and every
  // 500th follows a sleep past the spin bound, so the workers (and the
  // caller, waiting on a sleeping worker) park and must be woken.
  WorkerPool pool(4);
  constexpr std::size_t kRounds = 20000, kMaxTasks = 9;
  std::vector<std::atomic<int>> hits(kMaxTasks);
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::size_t tasks = 1 + r % kMaxTasks;
    const bool park = r % 500 == 0;
    if (park) std::this_thread::sleep_for(3 * WorkerPool::kSpinBound);
    pool.run(tasks, [&](std::size_t i) {
      if (park && i == 1) std::this_thread::sleep_for(3 * WorkerPool::kSpinBound);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kMaxTasks; ++i)
      if (hits[i].exchange(0, std::memory_order_relaxed) != (i < tasks ? 1 : 0)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(WorkerPool, IdlePoolParks) {
  // After a round the workers spin for at most the spin bound, then park:
  // an idle pool costs (almost) no CPU.
  WorkerPool pool(4);
  std::atomic<int> done{0};
  pool.run(4, [&](std::size_t) { done.fetch_add(1); });
  ASSERT_EQ(done.load(), 4);
  const auto cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
  };
  const std::int64_t before = cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::int64_t used = cpu_ns() - before;
  // Three spinning workers for one spin bound each is ~0.3 ms; a pool that
  // never parked would burn ~300 ms.
  EXPECT_LT(used, 25'000'000) << used << " ns of CPU over a 100 ms idle gap";
}

// ---- serial vs threaded bit-identity ----------------------------------------

/// Drive one mixed GCM/CCM/CTR workload and return every final JobResult,
/// in submission order.
std::vector<JobResult> run_mixed(Backend backend, std::size_t num_workers) {
  Engine engine({.num_devices = 3,
                 .device = {.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred},
                 .backend = backend,
                 .num_workers = num_workers});
  EXPECT_EQ(engine.num_workers(), std::min<std::size_t>(num_workers, 3));
  Rng rng(4242);
  engine.provision_key(1, rng.bytes(16));

  std::vector<Channel> channels;
  channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
  channels.push_back(engine.open_channel(ChannelMode::kCcm, 1, 8, 13));
  channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
  for (const Channel& ch : channels) EXPECT_TRUE(ch.valid());

  std::vector<Completion> jobs;
  for (int i = 0; i < 18; ++i) {
    const Channel& ch = channels[static_cast<std::size_t>(i) % channels.size()];
    Bytes iv;
    switch (ch.mode()) {
      case ChannelMode::kGcm: iv = rng.bytes(12); break;
      case ChannelMode::kCcm: iv = rng.bytes(13); break;
      default:
        iv = rng.bytes(16);
        iv[14] = iv[15] = 0;
        break;
    }
    jobs.push_back(engine.submit_encrypt(ch, std::move(iv), rng.bytes(8),
                                         rng.bytes(64 + static_cast<std::size_t>(i) * 32)));
  }
  engine.wait_all();
  std::vector<JobResult> results;
  for (Completion& job : jobs) results.push_back(job.result());
  return results;
}

TEST(EngineThreading, ThreadedRunIsBitIdenticalToSerialOnBothBackends) {
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    std::vector<JobResult> serial = run_mixed(backend, 0);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      std::vector<JobResult> threaded = run_mixed(backend, workers);
      ASSERT_EQ(threaded.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(threaded[i].auth_ok) << i;
        EXPECT_EQ(to_hex(threaded[i].payload), to_hex(serial[i].payload)) << i;
        EXPECT_EQ(to_hex(threaded[i].tag), to_hex(serial[i].tag)) << i;
        // Device clocks are deterministic twins too, not just payloads.
        EXPECT_EQ(threaded[i].accept_cycle, serial[i].accept_cycle) << i;
        EXPECT_EQ(threaded[i].complete_cycle, serial[i].complete_cycle) << i;
        EXPECT_EQ(threaded[i].rejections, serial[i].rejections) << i;
      }
    }
  }
}

TEST(EngineThreading, ThreadedAdvanceToJumpsAndDrainsLikeSerial) {
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 1},
                   .backend = backend,
                   .num_workers = 2});
    Rng rng(7);
    engine.provision_key(1, rng.bytes(16));
    engine.advance_to(5000);  // idle jump runs through the pool
    for (std::size_t d = 0; d < engine.num_devices(); ++d)
      EXPECT_GE(engine.device(d).now(), 5000u) << d;

    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
    engine.advance_to(engine.max_cycle() + 100'000);
    EXPECT_TRUE(job.done());
    EXPECT_TRUE(engine.idle());
  }
}

// ---- callback contention stress ---------------------------------------------

TEST(EngineThreading, CallbacksFireExactlyOnceUnderContention) {
  // 8 workers x 16 devices x 10k jobs. Every callback must run exactly
  // once, on the caller's thread, even while 8 pool threads are producing
  // completions into the queue concurrently.
  constexpr std::size_t kDevices = 16;
  constexpr std::size_t kJobs = 10'000;
  Engine engine({.num_devices = kDevices,
                 .device = {.num_cores = 4},
                 .backend = Backend::kFast,
                 .num_workers = 8});
  EXPECT_EQ(engine.num_workers(), 8u);
  Rng rng(1717);
  engine.provision_key(1, rng.bytes(16));

  std::vector<Channel> channels;
  for (std::size_t d = 0; d < kDevices; ++d) {
    channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
    ASSERT_TRUE(channels.back().valid()) << d;
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<std::uint32_t>> fired(kJobs);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t plain_total = 0;  // non-atomic on purpose: TSan catches
                                  // any callback leaking off-thread

  std::size_t submitted = 0;
  while (submitted < kJobs) {
    for (std::size_t d = 0; d < kDevices && submitted < kJobs; ++d) {
      std::vector<JobSpec> batch;
      for (int b = 0; b < 25 && submitted < kJobs; ++b, ++submitted) {
        JobSpec spec;
        spec.iv_or_nonce = rng.bytes(12);
        spec.payload = rng.bytes(48);
        batch.push_back(std::move(spec));
      }
      std::size_t base = submitted - batch.size();
      std::vector<Completion> jobs = engine.submit_batch(channels[d], std::move(batch));
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::size_t index = base + j;
        jobs[j].on_done([&, index](const JobResult& r) {
          EXPECT_TRUE(r.complete);
          EXPECT_EQ(std::this_thread::get_id(), caller);
          fired[index].fetch_add(1);
          total.fetch_add(1);
          ++plain_total;
        });
      }
    }
    engine.step();  // interleave submission with threaded rounds
  }
  engine.wait_all();

  EXPECT_EQ(total.load(), kJobs);
  EXPECT_EQ(plain_total, kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    ASSERT_EQ(fired[i].load(), 1u) << "job " << i << " fired wrong number of times";
}

// ---- randomized replay sweep ------------------------------------------------

TEST(EngineThreading, NoLostOrDuplicatedCompletionsAcrossRandomizedSeeds) {
  // 100 repetitions with randomized fleet shape, worker count, job count
  // and payload sizes: every submitted job completes exactly once, and the
  // engine drains to idle every time.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::size_t devices = 1 + rng.next_below(6);               // 1..6
    const std::size_t workers = 1 + rng.next_below(5);               // 1..5
    const std::size_t jobs = 40 + rng.next_below(160);               // 40..199
    Engine engine({.num_devices = devices,
                   .device = {.num_cores = 1 + rng.next_below(4)},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    engine.provision_key(1, rng.bytes(16));

    std::vector<Channel> channels;
    for (std::size_t d = 0; d < devices; ++d)
      channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));

    std::vector<std::uint32_t> fired(jobs, 0);
    std::size_t completed = 0;
    std::vector<Completion> tracked;
    for (std::size_t i = 0; i < jobs; ++i) {
      const Channel& ch = channels[rng.next_below(channels.size())];
      Completion job = engine.submit_encrypt(
          ch, rng.bytes(12), {}, rng.bytes(16 + rng.next_below(512)),
          /*priority=*/static_cast<unsigned>(rng.next_below(256)));
      job.on_done([&fired, &completed, i](const JobResult& r) {
        EXPECT_TRUE(r.complete);
        EXPECT_TRUE(r.auth_ok);
        ++fired[i];
        ++completed;
      });
      tracked.push_back(std::move(job));
      if (rng.next_below(4) == 0) engine.step();  // overlap submit/complete
    }
    engine.wait_all();

    EXPECT_EQ(completed, jobs) << "seed " << seed;
    for (std::size_t i = 0; i < jobs; ++i)
      ASSERT_EQ(fired[i], 1u) << "seed " << seed << " job " << i;
    for (Completion& job : tracked) EXPECT_TRUE(job.done());
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(engine.inflight(), 0u);
  }
}

TEST(EngineThreading, CallbackMayReenterEngineFromThreadedDrain) {
  // The serial engine allows on_done callbacks to re-enter (wait() on a
  // dependent job); the threaded drain must allow the same, dispatching
  // nested rounds while the outer drain batch is mid-flight.
  Engine engine({.num_devices = 2,
                 .device = {.num_cores = 2},
                 .backend = Backend::kFast,
                 .num_workers = 2});
  Rng rng(91);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);

  Completion a = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  Completion b = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048));
  bool chained = false;
  a.on_done([&](const JobResult&) {
    b.wait();  // nested threaded rounds from inside the completion path
    chained = true;
  });
  engine.wait_all();
  EXPECT_TRUE(chained);
  EXPECT_TRUE(a.done() && b.done());
}

TEST(EngineThreading, CompletionsDeliverInSubmissionOrderInBothModes) {
  // Two jobs on twin devices complete in the same step. Delivery must
  // follow engine-wide submission order (ascending JobId) in serial AND
  // threaded mode — not device-index order, not worker-race order — and a
  // callback must still see its unfired sibling counted as in flight.
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 1},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    Rng rng(23);
    engine.provision_key(1, rng.bytes(16));
    Channel dev0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel dev1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_EQ(dev0.device_index(), 0u);
    ASSERT_EQ(dev1.device_index(), 1u);

    // Submit to device 1 FIRST: a device-major scan would deliver the
    // device-0 job before the earlier-submitted device-1 job.
    std::vector<JobId> order;
    bool sibling_counted = false;
    Completion first = engine.submit_encrypt(dev1, rng.bytes(12), {}, rng.bytes(512));
    Completion second = engine.submit_encrypt(dev0, rng.bytes(12), {}, rng.bytes(512));
    first.on_done([&](const JobResult&) {
      order.push_back(first.id());
      sibling_counted = !engine.idle();  // `second` unfired => still counted
    });
    second.on_done([&](const JobResult&) { order.push_back(second.id()); });
    engine.wait_all();

    ASSERT_EQ(order.size(), 2u) << workers;
    EXPECT_EQ(order[0], first.id()) << workers;
    EXPECT_EQ(order[1], second.id()) << workers;
    EXPECT_TRUE(sibling_counted) << workers;
    // Same step: both completed at the same modelled cycle.
    EXPECT_EQ(first.result().complete_cycle, second.result().complete_cycle) << workers;
  }
}

TEST(EngineThreading, CallbackMayWaitOnJobCompletedInTheSameRound) {
  // Regression: two equal jobs on two devices complete in the SAME round,
  // so both land in one drained batch. A's callback waiting on B must
  // still see B finish (nested drains work the rest of the batch) instead
  // of spinning to the wait() deadline — serial mode always allowed this.
  Engine engine({.num_devices = 2,
                 .device = {.num_cores = 1},
                 .backend = Backend::kFast,
                 .num_workers = 2});
  Rng rng(17);
  engine.provision_key(1, rng.bytes(16));
  Channel ca = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel cb = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_NE(ca.device_index(), cb.device_index());

  // Identical payload sizes on twin devices: identical completion cycles.
  Completion a = engine.submit_encrypt(ca, rng.bytes(12), {}, rng.bytes(512));
  Completion b = engine.submit_encrypt(cb, rng.bytes(12), {}, rng.bytes(512));
  bool chained = false;
  a.on_done([&](const JobResult&) {
    b.wait(/*max_cycles=*/100'000);  // must not hit the deadline
    chained = true;
  });
  bool chained_back = false;
  b.on_done([&](const JobResult&) { chained_back = true; });
  engine.wait_all();
  EXPECT_TRUE(chained);
  EXPECT_TRUE(chained_back);  // B's own callback fired exactly once too
  EXPECT_TRUE(a.done() && b.done());
  EXPECT_EQ(a.result().complete_cycle, b.result().complete_cycle);  // same round
}

TEST(EngineThreading, CallbackWaitOnQueuedJobKeepsJobIdOrderInBothModes) {
  // Delivery always takes the lowest complete, undelivered JobId — inside
  // a callback's nested rounds too. P and B queue on device 1, A and C run
  // alone on devices 0 and 2: P, A and C complete in one round. A's
  // callback waits on B; the nested round completes B, which must still
  // be delivered before the already-complete, later-submitted C.
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Engine engine({.num_devices = 3,
                   .device = {.num_cores = 1},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    Rng rng(29);
    engine.provision_key(1, rng.bytes(16));
    std::vector<Channel> dev;
    for (std::size_t d = 0; d < 3; ++d) {
      dev.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
      ASSERT_EQ(dev.back().device_index(), d);
    }

    Completion p = engine.submit_encrypt(dev[1], rng.bytes(12), {}, rng.bytes(512));
    Completion a = engine.submit_encrypt(dev[0], rng.bytes(12), {}, rng.bytes(512));
    Completion b = engine.submit_encrypt(dev[1], rng.bytes(12), {}, rng.bytes(512));
    Completion c = engine.submit_encrypt(dev[2], rng.bytes(12), {}, rng.bytes(512));
    std::vector<JobId> order;
    p.on_done([&](const JobResult&) { order.push_back(p.id()); });
    a.on_done([&](const JobResult&) {
      order.push_back(a.id());
      b.wait();
    });
    b.on_done([&](const JobResult&) { order.push_back(b.id()); });
    c.on_done([&](const JobResult&) { order.push_back(c.id()); });
    engine.wait_all();

    EXPECT_EQ(order, (std::vector<JobId>{p.id(), a.id(), b.id(), c.id()})) << workers;
  }
}

TEST(EngineThreading, SubmitSeamFailureInCallbackFiresInTheSamePass) {
  // A GCM submit whose IV length differs from the channel's fails at the
  // submit seam, complete on arrival. Issued from a callback, it must be
  // delivered by the same delivery pass — no clock moves in between — in
  // both modes.
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 1},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    Rng rng(37);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, /*iv len=*/12);

    Completion first = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512));
    Completion failed;
    sim::Cycle submitted_at = 0;
    sim::Cycle fired_at = 0;
    bool fired = false;
    first.on_done([&](const JobResult&) {
      submitted_at = engine.max_cycle();
      failed = engine.submit_encrypt(ch, rng.bytes(7), {}, rng.bytes(64));
      failed.on_done([&](const JobResult& r) {
        EXPECT_FALSE(r.auth_ok);
        fired = true;
        fired_at = engine.max_cycle();
      });
    });
    while (!first.done()) engine.step();

    EXPECT_TRUE(fired) << workers;  // same step() call that delivered `first`
    EXPECT_EQ(fired_at, submitted_at) << workers;
    EXPECT_TRUE(engine.idle()) << workers;
  }
}

}  // namespace
}  // namespace mccp::host
