// Fleet elasticity & fault injection at the Engine seam: FaultyDevice
// freeze semantics (clock clamp, control-plane rejection, deterministic
// completion masking at the kill boundary), dynamic membership
// (add_device / remove_device with drain + channel migration + stranded-job
// resubmission), the typed DeviceDrainingError / DeviceRemovedError
// surface, membership edge cases (last device, add after an idle jump,
// remove mid-swap), and serial==threaded determinism of a faulting fleet —
// on BOTH backends throughout.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/cost_model.h"
#include "host/engine.h"
#include "host/faulty_device.h"
#include "host/sim_device.h"

namespace mccp::host {
namespace {

using reconfig::BitstreamStore;
using reconfig::CoreImage;

constexpr std::uint32_t kDivisor = 1024;  // compressed swap timescale

EngineConfig fleet_config(Backend backend, top::MccpConfig device, std::size_t num_devices = 1,
                          std::size_t num_workers = 0) {
  EngineConfig cfg;
  cfg.num_devices = num_devices;
  cfg.device = std::move(device);
  cfg.backend = backend;
  cfg.num_workers = num_workers;
  return cfg;
}

// -- FaultyDevice wrapper semantics -------------------------------------------

TEST(FaultyDevice, FreezesClockAndRejectsControlAtKillCycle) {
  auto inner = std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 1}, "victim");
  FaultyDevice dev(std::move(inner), 500);
  dev.provision_key(1, Bytes(16, 3));
  auto ch = dev.open_channel(ChannelMode::kCtr, 1);
  ASSERT_TRUE(ch.has_value());
  EXPECT_FALSE(dev.failed());

  dev.advance_to(10'000);
  EXPECT_TRUE(dev.failed());
  EXPECT_EQ(dev.now(), 500u);  // clock clamps at the fault
  sim::Cycle frozen = dev.now();
  dev.step();
  dev.advance_to(50'000);
  EXPECT_EQ(dev.now(), frozen) << "a dead device makes no progress";
  EXPECT_TRUE(dev.idle()) << "nothing to step for";

  // Control plane is rejected with a real error code, not UB.
  EXPECT_FALSE(dev.open_channel(ChannelMode::kGcm, 1, 16, 12).has_value());
  EXPECT_EQ(dev.last_error(), top::make_error(top::ControlError::kNoCoreAvailable));
  EXPECT_FALSE(dev.close_channel(ch->id));
  EXPECT_FALSE(dev.begin_reconfiguration(0, CoreImage::kWhirlpool, BitstreamStore::kRam)
                   .has_value());
}

TEST(FaultyDevice, MasksCompletionsStampedAfterTheKillOnBothBackends) {
  // The determinism keystone: a completion stamped after the kill cycle
  // never left the device, however coarsely the clock stepped over the
  // boundary. Both backends stamp bit-identical completion cycles, so the
  // surviving set is {complete_cycle <= kill_at} on each.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(11);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(12);
    Bytes pt = rng.bytes(512);

    // Reference run: when does this job really complete?
    Engine probe(fleet_config(backend, {.num_cores = 1}));
    probe.provision_key(1, key);
    Channel pch = probe.open_channel(ChannelMode::kGcm, 1, 16, 12);
    JobResult ref = probe.submit_encrypt(pch, iv, {}, pt).wait(1'000'000);
    ASSERT_TRUE(ref.complete);
    ASSERT_GT(ref.complete_cycle, 2u);

    auto make_inner = [&]() -> std::unique_ptr<Device> {
      if (backend == Backend::kSim)
        return std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 1}, "victim");
      return std::make_unique<FastDevice>(top::MccpConfig{.num_cores = 1}, "victim");
    };

    // Kill one cycle before the stamp: the completion must be masked.
    {
      FaultyDevice dev(make_inner(), ref.complete_cycle - 1);
      dev.provision_key(1, key);
      auto ch = dev.open_channel(ChannelMode::kGcm, 1, 16, 12);
      ASSERT_TRUE(ch.has_value());
      JobSpec spec;
      spec.channel = *ch;
      spec.iv_or_nonce = iv;
      spec.payload = pt;
      DeviceJobId id = dev.submit(spec);
      dev.advance_to(ref.complete_cycle + 10'000);
      ASSERT_TRUE(dev.failed());
      const JobResult* r = dev.result(id);
      ASSERT_NE(r, nullptr);
      EXPECT_FALSE(r->complete) << "stamped after the kill: must be masked";
    }
    // Kill exactly at the stamp: the job made it out.
    {
      FaultyDevice dev(make_inner(), ref.complete_cycle);
      dev.provision_key(1, key);
      auto ch = dev.open_channel(ChannelMode::kGcm, 1, 16, 12);
      ASSERT_TRUE(ch.has_value());
      JobSpec spec;
      spec.channel = *ch;
      spec.iv_or_nonce = iv;
      spec.payload = pt;
      DeviceJobId id = dev.submit(spec);
      dev.advance_to(ref.complete_cycle + 10'000);
      ASSERT_TRUE(dev.failed());
      const JobResult* r = dev.result(id);
      ASSERT_NE(r, nullptr);
      EXPECT_TRUE(r->complete);
      EXPECT_EQ(r->complete_cycle, ref.complete_cycle);
    }
  }
}

// -- kill mid-burst + recovery ------------------------------------------------

TEST(Engine, KillMidBurstResubmitsStrandedJobsOnBothBackends) {
  // A device dies in the middle of a burst; remove_device() migrates its
  // channels and resubmits the stranded jobs. Every Completion resolves
  // with the reference ciphertext and nothing is lost or duplicated. The
  // kill boundary is deterministic, so the resubmission count is
  // bit-identical across backends.
  constexpr sim::Cycle kKillAt = 4'000;
  std::map<Backend, std::uint64_t> resubmitted;
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(29);
    Bytes key = rng.bytes(16);
    auto keys = crypto::aes_expand_key(key);

    EngineConfig cfg = fleet_config(backend, {.num_cores = 2}, 2);
    cfg.faults.push_back({.device = 0, .kill_at_cycle = kKillAt});
    Engine engine(cfg);
    engine.provision_key(1, key);

    Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 0
    Channel b = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 1
    ASSERT_TRUE(a.valid() && b.valid());
    ASSERT_NE(a.device_index(), b.device_index());

    struct Pkt {
      Bytes iv, pt;
      Completion job;
    };
    std::vector<Pkt> pkts;
    std::size_t callbacks = 0;
    for (int i = 0; i < 24; ++i) {
      Pkt p{rng.bytes(12), rng.bytes(512), {}};
      p.job = engine.submit_encrypt(i % 2 ? b : a, p.iv, {}, p.pt);
      p.job.on_done([&callbacks](const JobResult& r) {
        EXPECT_TRUE(r.complete);
        ++callbacks;  // exactly-once: counted at the end
      });
      pkts.push_back(std::move(p));
    }

    engine.advance_to(kKillAt + 1);  // drive the clock across the fault
    ASSERT_EQ(engine.failed_devices(), std::vector<std::size_t>{0});
    EXPECT_TRUE(engine.device_failed(0));

    DrainReport dr = engine.remove_device(0);
    EXPECT_TRUE(dr.was_failed);
    EXPECT_EQ(dr.migrated_channels, 1u);
    EXPECT_EQ(dr.orphaned_channels, 0u);
    EXPECT_GT(dr.resubmitted_jobs, 0u) << "kill must land mid-burst";
    EXPECT_EQ(dr.lost_jobs, 0u);
    resubmitted[backend] = dr.resubmitted_jobs;

    EXPECT_FALSE(engine.device_alive(0));  // tombstoned
    EXPECT_EQ(engine.alive_devices(), 1u);
    EXPECT_EQ(a.device_index(), b.device_index()) << "channel migrated to the survivor";

    engine.wait_all();
    EXPECT_EQ(callbacks, pkts.size()) << "every job resolves exactly once";
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      auto ref = crypto::gcm_seal(keys, pkts[i].iv, {}, pkts[i].pt);
      EXPECT_EQ(to_hex(pkts[i].job.result().payload), to_hex(ref.ciphertext)) << i;
      EXPECT_EQ(to_hex(pkts[i].job.result().tag), to_hex(ref.tag)) << i;
    }
    // The migrated channel keeps working.
    Bytes iv = rng.bytes(12), pt = rng.bytes(256);
    JobResult r = engine.submit_encrypt(a, iv, {}, pt).wait(1'000'000);
    auto ref = crypto::gcm_seal(keys, iv, {}, pt);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
  }
  EXPECT_EQ(resubmitted[Backend::kSim], resubmitted[Backend::kFast])
      << "the kill boundary must slice the in-flight set identically";
}

// -- kill mid-swap ------------------------------------------------------------

TEST(Engine, KillMidSwapStrandsTheTriggeringPacketOnBothBackends) {
  // Death during a partial-reconfiguration swap: a Whirlpool submit
  // auto-triggers a ~12.7k-cycle swap, and the device dies 2000 cycles in.
  // The triggering packet's completion is stamped after the kill, so it is
  // masked and resubmitted onto a survivor (which runs its own swap) and
  // still produces the reference digest — the recovery trajectory is
  // identical on both backends. The frozen mid-swap slot state itself is
  // only observable on the cycle-accurate backend: the fast backend's
  // event-driven clock lands on completion events, so a dead FastDevice's
  // inner slot introspection can reflect overshoot (the masking exists
  // precisely so that never matters for job accounting).
  constexpr sim::Cycle kKillAt = 2'000;
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(31);
    Bytes msg = rng.bytes(300);
    EngineConfig cfg =
        fleet_config(backend, {.num_cores = 2, .reconfig_time_divisor = kDivisor}, 2);
    cfg.faults.push_back({.device = 0, .kill_at_cycle = kKillAt});
    Engine engine(cfg);

    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(wp.valid());
    ASSERT_EQ(wp.device_index(), 0u);
    Completion job = engine.submit_encrypt(wp, {}, {}, msg);  // swap begins

    engine.advance_to(kKillAt + 1'000);  // well inside the swap window
    ASSERT_EQ(engine.failed_devices(), std::vector<std::size_t>{0});
    EXPECT_FALSE(job.done()) << "the packet cannot outrun the swap it paid for";

    if (backend == Backend::kSim) {
      // Ground truth: the clock stopped dead inside the transfer, and the
      // frozen slot stays mid-swap forever.
      EXPECT_EQ(engine.device(0).now(), kKillAt);
      bool mid_swap = false;
      for (std::size_t s = 0; s < engine.device(0).num_cores(); ++s)
        mid_swap = mid_swap || engine.device(0).slot_reconfiguring(s);
      EXPECT_TRUE(mid_swap) << "killed mid-swap";
      engine.step();
      EXPECT_EQ(engine.device(0).now(), kKillAt) << "frozen mid-swap stays mid-swap";
    }

    DrainReport dr = engine.remove_device(0);
    EXPECT_TRUE(dr.was_failed);
    EXPECT_EQ(dr.migrated_channels, 1u);
    EXPECT_EQ(dr.resubmitted_jobs, 1u) << "the packet that paid for the swap";
    EXPECT_EQ(dr.lost_jobs, 0u);

    JobResult r = job.wait(100'000'000);
    ASSERT_TRUE(r.complete && r.auth_ok) << static_cast<int>(backend);
    auto ref = crypto::whirlpool(msg);
    EXPECT_EQ(to_hex(r.payload), to_hex(Bytes(ref.begin(), ref.end())));
    // The survivor ran its own swap to serve the resubmission.
    EXPECT_GE(engine.device(1).slots_with_image(CoreImage::kWhirlpool), 1u);
  }
}

// -- healthy drain + migration ------------------------------------------------

TEST(Engine, RemoveHealthyDeviceDrainsCompletesAndMigratesInOrder) {
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(37);
    Bytes key = rng.bytes(16);
    Engine engine(fleet_config(backend, {.num_cores = 2}, 2));
    engine.provision_key(1, key);

    Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 0
    Channel b = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 1
    ASSERT_TRUE(a.valid() && b.valid());

    std::vector<int> order;
    std::vector<Completion> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.push_back(engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(256)));
      jobs.back().on_done([&order, i](const JobResult&) { order.push_back(i); });
    }

    // Remove with the burst still in flight: a healthy drain completes the
    // work on the device (no resubmission), then migrates the channel.
    DrainReport dr = engine.remove_device(0);
    EXPECT_FALSE(dr.was_failed);
    EXPECT_GT(dr.drain_cycles, 0u);
    EXPECT_EQ(dr.completed_during_drain, 8u);
    EXPECT_EQ(dr.migrated_channels, 1u);
    EXPECT_EQ(dr.resubmitted_jobs, 0u);
    EXPECT_EQ(dr.lost_jobs, 0u);
    EXPECT_EQ(a.device_index(), b.device_index());

    // Per-channel in-order delivery survived the removal.
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

    // And continues to hold for traffic after the migration.
    order.clear();
    for (int i = 0; i < 8; ++i) {
      jobs.push_back(engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(256)));
      jobs.back().on_done([&order, i](const JobResult&) { order.push_back(i); });
    }
    engine.wait_all();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// -- typed errors (satellite: no assert/UB on draining/removed channels) ------

TEST(Engine, SubmitToDrainingDeviceThrowsTypedErrorOnBothBackends) {
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(41);
    Engine engine(fleet_config(backend, {.num_cores = 1}, 2));
    engine.provision_key(1, rng.bytes(16));
    Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 0
    ASSERT_TRUE(a.valid());

    engine.begin_drain(0);
    EXPECT_TRUE(engine.draining(0));
    EXPECT_THROW(engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(64)),
                 DeviceDrainingError);
    // Placement avoids a draining device.
    Channel c = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(c.device_index(), 1u);

    engine.cancel_drain(0);
    EXPECT_FALSE(engine.draining(0));
    JobResult r = engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(64)).wait(1'000'000);
    EXPECT_TRUE(r.complete) << "re-admitted after cancel_drain";
  }
}

TEST(Engine, SubmitToOrphanedChannelThrowsTypedErrorOnBothBackends) {
  // When no survivor can host a removed device's channel (fleet out of
  // slots), the channel is orphaned: submits throw DeviceRemovedError
  // instead of asserting or touching a dead device.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(43);
    Engine engine(fleet_config(backend, {.num_cores = 1}, 2));
    engine.provision_key(1, rng.bytes(16));

    Channel victim = engine.open_channel(ChannelMode::kCtr, 1);  // device 0
    ASSERT_TRUE(victim.valid());
    ASSERT_EQ(victim.device_index(), 0u);
    // Fill every remaining slot in the fleet (64-entry table per device).
    std::vector<Channel> filler;
    for (int i = 0; i < 63 + 64; ++i) {
      filler.push_back(engine.open_channel(ChannelMode::kCtr, 1));
      ASSERT_TRUE(filler.back().valid()) << i;
    }

    DrainReport dr = engine.remove_device(0);
    EXPECT_EQ(dr.migrated_channels, 0u) << "the survivor's table was full";
    EXPECT_EQ(dr.orphaned_channels, 64u) << "all of device 0's channels";
    EXPECT_THROW(engine.submit_encrypt(victim, rng.bytes(12), {}, rng.bytes(64)),
                 DeviceRemovedError);
  }
}

// -- membership edge cases ----------------------------------------------------

TEST(Engine, RemovingTheLastDeviceThrows) {
  Engine engine(fleet_config(Backend::kFast, {.num_cores = 1}, 2));
  engine.remove_device(0);
  EXPECT_EQ(engine.alive_devices(), 1u);
  EXPECT_THROW(engine.remove_device(1), std::logic_error);
  EXPECT_TRUE(engine.device_alive(1)) << "the refused removal must not drain";
  // Tombstoned and out-of-range slots are distinct errors from the typed
  // membership surface.
  EXPECT_THROW(engine.remove_device(0), std::out_of_range);
  EXPECT_THROW(engine.remove_device(9), std::out_of_range);
  EXPECT_THROW(engine.device(0), std::out_of_range);
}

TEST(Engine, AddDeviceAfterIdleJumpJoinsAtFleetClock) {
  // advance_to lets an idle fleet jump far ahead; a device added afterwards
  // must join at the fleet clock (not cycle 0) so completion stamps stay
  // monotonic, and must be immediately placeable with keys replayed.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(47);
    Bytes key = rng.bytes(16);
    auto keys = crypto::aes_expand_key(key);
    Engine engine(fleet_config(backend, {.num_cores = 1}, 1));
    engine.provision_key(1, key);

    engine.advance_to(250'000);  // idle jump
    ASSERT_GE(engine.max_cycle(), 250'000u);

    std::size_t idx = engine.add_device();
    EXPECT_EQ(idx, 1u);
    EXPECT_EQ(engine.alive_devices(), 2u);
    EXPECT_GE(engine.device(idx).now(), 250'000u) << "clock synced to the fleet";

    // Drive placement onto the new device and prove the key replay took.
    Channel c0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel c1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(c0.valid() && c1.valid());
    Channel& on_new = c0.device_index() == idx ? c0 : c1;
    ASSERT_EQ(on_new.device_index(), idx);
    Bytes iv = rng.bytes(12), pt = rng.bytes(128);
    JobResult r = engine.submit_encrypt(on_new, iv, {}, pt).wait(1'000'000);
    ASSERT_TRUE(r.complete && r.auth_ok);
    auto ref = crypto::gcm_seal(keys, iv, {}, pt);
    EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
    EXPECT_GE(r.complete_cycle, 250'000u) << "stamped on the synced clock";
  }
}

TEST(Engine, RemoveDeviceMidReconfigurationDrainsInFlightWork) {
  // A healthy removal while one of the device's slots is mid-swap: the
  // drain completes the in-flight packets (siblings keep serving during a
  // swap), then migrates the channel. An explicit begin_reconfiguration
  // opens the mid-swap window deterministically on both backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(53);
    Bytes key = rng.bytes(16);
    auto keys = crypto::aes_expand_key(key);
    Engine engine(
        fleet_config(backend, {.num_cores = 2, .reconfig_time_divisor = kDivisor}, 2));
    engine.provision_key(1, key);
    Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(a.valid());
    ASSERT_EQ(a.device_index(), 0u);

    ASSERT_TRUE(engine.device(0)
                    .begin_reconfiguration(1, CoreImage::kWhirlpool, BitstreamStore::kRam)
                    .has_value());
    ASSERT_TRUE(engine.device(0).slot_reconfiguring(1));

    struct Pkt {
      Bytes iv, pt;
      Completion job;
    };
    std::vector<Pkt> pkts;
    for (int i = 0; i < 4; ++i) {
      Pkt p{rng.bytes(12), rng.bytes(256), {}};
      p.job = engine.submit_encrypt(a, p.iv, {}, p.pt);
      pkts.push_back(std::move(p));
    }

    DrainReport dr = engine.remove_device(0);  // mid-swap, jobs in flight
    EXPECT_FALSE(dr.was_failed);
    EXPECT_EQ(dr.completed_during_drain, 4u);
    EXPECT_EQ(dr.migrated_channels, 1u);
    EXPECT_EQ(dr.resubmitted_jobs, 0u);
    EXPECT_EQ(dr.lost_jobs, 0u);
    EXPECT_EQ(a.device_index(), 1u);

    for (auto& p : pkts) {
      auto ref = crypto::gcm_seal(keys, p.iv, {}, p.pt);
      ASSERT_TRUE(p.job.result().complete);
      EXPECT_EQ(to_hex(p.job.result().payload), to_hex(ref.ciphertext));
      EXPECT_EQ(to_hex(p.job.result().tag), to_hex(ref.tag));
    }
  }
}

TEST(Engine, AddDeviceReusesTombstonedSlots) {
  Engine engine(fleet_config(Backend::kFast, {.num_cores = 1}, 3));
  engine.remove_device(1);
  EXPECT_FALSE(engine.device_alive(1));
  EXPECT_EQ(engine.add_device(), 1u) << "tombstone refilled before growing";
  EXPECT_EQ(engine.num_devices(), 3u);
  EXPECT_EQ(engine.add_device(), 3u) << "no tombstone left: fleet grows";
  EXPECT_EQ(engine.alive_devices(), 4u);
}

TEST(Engine, AddDeviceOnAdoptedFleetRequiresExplicitDevice) {
  std::vector<std::unique_ptr<Device>> fleet;
  fleet.push_back(std::make_unique<FastDevice>(top::MccpConfig{.num_cores = 1}, "f0"));
  Engine engine(std::move(fleet));
  EXPECT_THROW(engine.add_device(), std::logic_error)
      << "no construction config to clone from";
  std::size_t idx =
      engine.add_device(std::make_unique<FastDevice>(top::MccpConfig{.num_cores = 1}, "f1"));
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(engine.alive_devices(), 2u);
}

// -- serial == threaded under faults ------------------------------------------

TEST(Engine, SerialAndThreadedFaultRecoveryAreBitIdentical) {
  // The membership loop below makes its decisions from engine state that is
  // identical in serial and threaded mode, so the whole fault-recovery
  // trajectory — resubmission counts and every completion stamp — must be
  // bit-identical between a serial and a 3-worker run, on both backends
  // (only the simulated fleet steps on the worker pool).
  auto run = [](Backend backend, std::size_t workers) {
    Rng rng(59);
    Bytes key = rng.bytes(16);
    EngineConfig cfg = fleet_config(backend, {.num_cores = 2}, 3, workers);
    cfg.faults.push_back({.device = 1, .kill_at_cycle = 3'000});
    Engine engine(cfg);
    engine.provision_key(1, key);

    std::vector<Channel> chs;
    for (int i = 0; i < 3; ++i) {
      chs.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
      EXPECT_TRUE(chs.back().valid());
    }
    std::vector<Completion> jobs;
    for (int i = 0; i < 30; ++i)
      jobs.push_back(engine.submit_encrypt(chs[static_cast<std::size_t>(i) % 3],
                                           rng.bytes(12), {}, rng.bytes(384)));

    std::uint64_t resubmitted = 0;
    int guard = 0;
    while (engine.inflight() > 0 && ++guard < 1'000'000) {
      engine.step();
      for (std::size_t idx : engine.failed_devices())
        resubmitted += engine.remove_device(idx).resubmitted_jobs;
    }
    std::vector<sim::Cycle> stamps;
    for (auto& j : jobs) stamps.push_back(j.result().complete_cycle);
    return std::make_pair(resubmitted, stamps);
  };
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    SCOPED_TRACE(backend == Backend::kSim ? "sim" : "fast");
    auto serial = run(backend, 0);
    auto threaded = run(backend, 3);
    EXPECT_GT(serial.first, 0u) << "the kill must land mid-burst";
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(serial.second, threaded.second) << "completion stamps diverged";
  }
}

}  // namespace
}  // namespace mccp::host
