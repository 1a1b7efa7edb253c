// workload::ScenarioRunner end to end — a small mixed scenario executed on
// BOTH backends must offer the identical per-class workload and resolve
// every packet (identical completion/rejection counts); serial and
// worker-pool stepping of the same spec (including the shipped
// scenarios/mixed_radio.json preset) must be deterministic twins; plus
// decrypt/verify round-trips with pinned auth-failure accounting, window
// enforcement, drop-mode admission, trace-driven sizing, determinism
// across repeated runs, and the JSON report shape.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "common/json.h"
#include "common/rng.h"
#include "workload/runner.h"

namespace mccp::workload {
namespace {

/// Small enough for the cycle-accurate backend, mixed enough to exercise
/// all four preset modes and priorities.
ScenarioSpec small_mixed(host::Backend backend) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "e2e_small", "seed": 31337,
    "devices": 2, "cores_per_device": 2,
    "placement": "least_loaded", "window": 12,
    "classes": [
      {"class": "voip",    "packets": 12, "channels": 2,
       "arrival": {"kind": "fixed_rate", "rate": 1.0}},
      {"class": "video",   "packets": 8,  "channels": 1,
       "payload": {"uniform": [256, 768]},
       "arrival": {"kind": "onoff", "rate": 1.5, "off_rate": 0.1,
                   "mean_on": 15, "mean_off": 25}},
      {"class": "bulk",    "packets": 8,  "channels": 1,
       "payload": {"fixed": 1024},
       "arrival": {"kind": "poisson", "rate": 1.0}},
      {"class": "control", "packets": 6,  "channels": 1,
       "arrival": {"kind": "poisson", "rate": 0.5}}
    ]
  })");
  spec.backend = backend;
  return spec;
}

TEST(Scenario, BothBackendsResolveTheIdenticalWorkload) {
  ScenarioReport fast = ScenarioRunner(small_mixed(host::Backend::kFast)).run();
  ScenarioReport sim = ScenarioRunner(small_mixed(host::Backend::kSim)).run();

  ASSERT_EQ(fast.classes.size(), 4u);
  ASSERT_EQ(sim.classes.size(), 4u);
  for (std::size_t i = 0; i < fast.classes.size(); ++i) {
    const ClassReport& f = fast.classes[i];
    const ClassReport& s = sim.classes[i];
    EXPECT_EQ(f.name, s.name);
    // The offered workload is derived purely from the seed, so both
    // backends see the identical arrivals and (with blocking admission)
    // must resolve identical per-class completion/rejection counts.
    EXPECT_EQ(f.offered, s.offered) << f.name;
    EXPECT_EQ(f.submitted, s.submitted) << f.name;
    EXPECT_EQ(f.completed, s.completed) << f.name;
    EXPECT_EQ(f.dropped, s.dropped) << f.name;
    EXPECT_EQ(f.completed, f.submitted) << f.name;
    EXPECT_EQ(f.dropped, 0u) << f.name;
    EXPECT_EQ(f.auth_failures, 0u) << f.name;
    EXPECT_EQ(s.auth_failures, 0u) << f.name;
    EXPECT_EQ(f.payload_bytes, s.payload_bytes) << f.name;
    EXPECT_EQ(f.latency.count(), f.completed) << f.name;
    EXPECT_EQ(s.latency.count(), s.completed) << f.name;
  }
  EXPECT_EQ(fast.total_offered(), 12u + 8 + 8 + 6);
  EXPECT_EQ(fast.total_completed(), fast.total_offered());
  EXPECT_EQ(sim.total_completed(), fast.total_completed());
}

/// Everything in a report that must be invariant across serial vs threaded
/// stepping (wall_ms is the only field allowed to differ).
void expect_reports_identical(const ScenarioReport& serial, const ScenarioReport& threaded) {
  EXPECT_EQ(serial.makespan_cycles, threaded.makespan_cycles);
  EXPECT_EQ(serial.peak_inflight, threaded.peak_inflight);
  ASSERT_EQ(serial.classes.size(), threaded.classes.size());
  for (std::size_t i = 0; i < serial.classes.size(); ++i) {
    const ClassReport& s = serial.classes[i];
    const ClassReport& t = threaded.classes[i];
    EXPECT_EQ(s.name, t.name);
    EXPECT_EQ(s.offered, t.offered) << s.name;
    EXPECT_EQ(s.submitted, t.submitted) << s.name;
    EXPECT_EQ(s.completed, t.completed) << s.name;
    EXPECT_EQ(s.auth_failures, t.auth_failures) << s.name;
    EXPECT_EQ(s.dropped, t.dropped) << s.name;
    EXPECT_EQ(s.busy_rejections, t.busy_rejections) << s.name;
    EXPECT_EQ(s.payload_bytes, t.payload_bytes) << s.name;
    EXPECT_EQ(s.first_submit_cycle, t.first_submit_cycle) << s.name;
    EXPECT_EQ(s.last_complete_cycle, t.last_complete_cycle) << s.name;
    EXPECT_EQ(s.decrypt_submitted, t.decrypt_submitted) << s.name;
    EXPECT_EQ(s.decrypt_completed, t.decrypt_completed) << s.name;
    EXPECT_EQ(s.image_reconfigurations, t.image_reconfigurations) << s.name;
    EXPECT_EQ(s.latency.count(), t.latency.count()) << s.name;
    for (double q : {0.5, 0.99, 1.0})
      EXPECT_EQ(s.latency.quantile(q), t.latency.quantile(q)) << s.name << " q=" << q;
  }
  EXPECT_EQ(serial.reconfigurations, threaded.reconfigurations);
  EXPECT_EQ(serial.reconfig_stall_cycles, threaded.reconfig_stall_cycles);
  ASSERT_EQ(serial.queue_depth.size(), threaded.queue_depth.size());
  for (std::size_t i = 0; i < serial.queue_depth.size(); ++i) {
    EXPECT_EQ(serial.queue_depth[i].cycle, threaded.queue_depth[i].cycle) << i;
    EXPECT_EQ(serial.queue_depth[i].inflight, threaded.queue_depth[i].inflight) << i;
  }
}

TEST(Scenario, SerialAndThreadedRunsAreDeterministicTwins) {
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    ScenarioSpec serial_spec = small_mixed(backend);
    ScenarioReport serial = ScenarioRunner(std::move(serial_spec)).run();
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioSpec spec = small_mixed(backend);
      spec.threads = threads;
      ScenarioReport threaded = ScenarioRunner(std::move(spec)).run();
      EXPECT_EQ(threaded.threads, std::min<std::size_t>(threads, serial.devices));
      expect_reports_identical(serial, threaded);
    }
  }
}

TEST(Scenario, MixedRadioPresetSerialVsThreadedOnBothBackends) {
  // The acceptance pin: serial (num_workers = 0) and threaded runs of the
  // shipped scenarios/mixed_radio.json must yield identical per-class
  // completion counts and auth-failure totals on both backends. The
  // cycle-accurate side runs the preset at reduced packet counts (the same
  // scaling the CI smoke uses); the fast side runs it at full scale.
  const std::string path = std::string(MCCP_SOURCE_DIR) + "/scenarios/mixed_radio.json";
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    ScenarioSpec base = load_scenario(path);
    base.backend = backend;
    if (backend == host::Backend::kSim)
      for (ClassSpec& cs : base.classes)
        cs.packets = std::max<std::uint64_t>(1, cs.packets / 20);  // --scale 0.05

    ScenarioSpec serial_spec = base;
    serial_spec.threads = 0;
    ScenarioReport serial = ScenarioRunner(std::move(serial_spec)).run();

    ScenarioSpec threaded_spec = base;
    threaded_spec.threads = 4;
    ScenarioReport threaded = ScenarioRunner(std::move(threaded_spec)).run();

    EXPECT_EQ(threaded.threads, 4u);
    expect_reports_identical(serial, threaded);
    for (const ClassReport& c : serial.classes) {
      EXPECT_EQ(c.completed, c.offered) << c.name;  // closed loop resolves everything
      EXPECT_EQ(c.auth_failures, 0u) << c.name;
    }
  }
}

TEST(Scenario, RunRejectsDegenerateSpecs) {
  // parse_scenario catches these for files; programmatic specs and CLI
  // overrides must hit the same wall instead of spinning forever.
  ScenarioSpec no_window = small_mixed(host::Backend::kFast);
  no_window.window = 0;
  EXPECT_THROW(ScenarioRunner(std::move(no_window)).run(), std::invalid_argument);
  ScenarioSpec no_classes = small_mixed(host::Backend::kFast);
  no_classes.classes.clear();
  EXPECT_THROW(ScenarioRunner(std::move(no_classes)).run(), std::invalid_argument);
}

TEST(Scenario, WindowBoundsInflight) {
  ScenarioSpec spec = small_mixed(host::Backend::kFast);
  spec.window = 5;
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  EXPECT_LE(report.peak_inflight, 5u);
  EXPECT_GE(report.peak_inflight, 1u);
  EXPECT_EQ(report.total_completed(), report.total_offered());
}

TEST(Scenario, RunsAreDeterministic) {
  ScenarioRunner runner(small_mixed(host::Backend::kFast));
  ScenarioReport a = runner.run();
  ScenarioReport b = runner.run();
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].payload_bytes, b.classes[i].payload_bytes);
    EXPECT_EQ(a.classes[i].busy_rejections, b.classes[i].busy_rejections);
    EXPECT_EQ(a.classes[i].latency.quantile(0.99), b.classes[i].latency.quantile(0.99));
  }
}

TEST(Scenario, DropAdmissionRejectsOverflowArrivals) {
  // One slot, a dense burst, drop policy: most arrivals must be dropped,
  // and offered always equals submitted + dropped.
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "droppy", "seed": 5, "devices": 1, "cores_per_device": 1,
    "window": 1, "admission": "drop",
    "classes": [{"name": "burst", "mode": "gcm", "packets": 40, "channels": 1,
                 "payload": {"fixed": 2048},
                 "arrival": {"kind": "fixed_rate", "rate": 10.0}}]
  })");
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  const ClassReport& c = report.classes[0];
  EXPECT_EQ(c.offered, 40u);
  EXPECT_EQ(c.offered, c.submitted + c.dropped);
  EXPECT_GT(c.dropped, 0u);
  EXPECT_EQ(c.completed, c.submitted);
  EXPECT_EQ(report.peak_inflight, 1u);
}

TEST(Scenario, TraceArrivalsHonorExplicitSizes) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "traced", "seed": 9, "devices": 1, "cores_per_device": 2, "window": 8,
    "classes": [{"name": "t", "mode": "gcm", "packets": 0, "channels": 1,
                 "payload": {"fixed": 999999},
                 "arrival": {"kind": "trace", "times": [100, 200, 300]}}]
  })");
  // Explicit per-packet sizes override the (absurd) distribution.
  spec.classes[0].profile.arrival.trace_payload_len = {64, -1, 256};
  spec.classes[0].profile.arrival.trace_aad_len = {16, 0, -1};
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  const ClassReport& c = report.classes[0];
  EXPECT_EQ(c.offered, 3u);
  EXPECT_EQ(c.completed, 3u);
  // 64 + normalize(999999 -> 4080 cap) + 256 payload bytes.
  EXPECT_EQ(c.payload_bytes, 64u + 4080u + 256u);
}

TEST(Scenario, MaxCyclesStopsOfferingNewArrivals) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "capped", "seed": 4, "devices": 1, "cores_per_device": 2,
    "window": 8, "max_cycles": 10000,
    "classes": [{"name": "v", "mode": "ctr", "packets": 1000, "channels": 1,
                 "payload": {"fixed": 64},
                 "arrival": {"kind": "fixed_rate", "rate": 1.0}}]
  })");
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  const ClassReport& c = report.classes[0];
  // Arrivals land every 1000 cycles: exactly 10 fit before the cap.
  EXPECT_EQ(c.offered, 10u);
  EXPECT_EQ(c.completed, 10u);
}

TEST(Scenario, ReportJsonIsParseableAndComplete) {
  ScenarioReport report = ScenarioRunner(small_mixed(host::Backend::kFast)).run();
  json::Value doc = json::parse(report_json(report));
  EXPECT_EQ(doc.string_or("bench", ""), "scenario_runner");
  EXPECT_EQ(doc.string_or("scenario", ""), "e2e_small");
  EXPECT_EQ(doc.string_or("backend", ""), "fast");
  EXPECT_EQ(doc.u64_or("total_offered", 0), report.total_offered());
  const auto& classes = doc.find("classes")->as_array();
  ASSERT_EQ(classes.size(), 4u);
  for (const json::Value& c : classes) {
    EXPECT_FALSE(c.string_or("name", "").empty());
    const json::Value* latency = c.find("latency_cycles");
    ASSERT_NE(latency, nullptr);
    EXPECT_GE(latency->u64_or("p99", 0), latency->u64_or("p50", 1));
    EXPECT_GT(c.number_or("throughput_mbps", 0.0), 0.0);
  }
  const json::Value* queue = doc.find("queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_FALSE(queue->as_array().empty());
  // Reconfiguration + verify-traffic accounting is always present (zero
  // for a pure-AES encrypt-only scenario).
  EXPECT_NE(doc.find("reconfigurations"), nullptr);
  EXPECT_NE(doc.find("reconfig_stall_cycles"), nullptr);
  EXPECT_EQ(doc.string_or("bitstream_store", ""), "ram");
  for (const json::Value& c : classes) {
    EXPECT_NE(c.find("decrypt_submitted"), nullptr);
    EXPECT_NE(c.find("image_reconfigurations"), nullptr);
  }
}

TEST(Scenario, DecryptRoundTripPinsAuthFailureAccounting) {
  // Seal packets through the fleet, resubmit every ciphertext as an open
  // (decrypt/verify) job with a fixed fraction of tags corrupted, and pin
  // the auth-failure accounting on both backends: exactly the corrupted
  // quarter fails, every clean packet round-trips to its original
  // plaintext, and the per-channel stats agree across backends.
  constexpr std::size_t kPackets = 24;  // div. by 8: 2 of every 8 corrupted
                                        // (one GCM, one CCM — a quarter total)
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    host::Engine engine({.num_devices = 2,
                         .device = {.num_cores = 2},
                         .backend = backend,
                         .num_workers = 2});  // round-trip through the threaded path too
    Rng rng(515151);
    engine.provision_key(1, rng.bytes(16));
    host::Channel gcm = engine.open_channel(host::ChannelMode::kGcm, 1, 16, 12);
    host::Channel ccm = engine.open_channel(host::ChannelMode::kCcm, 1, 8, 13);
    ASSERT_TRUE(gcm.valid() && ccm.valid());

    struct Pkt {
      const host::Channel* ch;
      Bytes iv, aad, pt;
      host::Completion sealed;
    };
    std::vector<Pkt> pkts;
    for (std::size_t i = 0; i < kPackets; ++i) {
      const host::Channel& ch = i % 2 ? ccm : gcm;
      Pkt p{&ch, rng.bytes(ch.mode() == host::ChannelMode::kGcm ? 12 : 13), rng.bytes(12),
            rng.bytes(64 + i * 16), {}};
      p.sealed = engine.submit_encrypt(ch, p.iv, p.aad, p.pt);
      pkts.push_back(std::move(p));
    }
    engine.wait_all();

    std::uint64_t open_failures = 0, open_ok = 0;
    std::vector<host::Completion> opens;
    for (std::size_t i = 0; i < kPackets; ++i) {
      const Pkt& p = pkts[i];
      const host::JobResult& sealed = p.sealed.result();
      ASSERT_TRUE(sealed.auth_ok) << i;
      Bytes tag = sealed.tag;
      if (i % 8 < 2) tag[0] ^= 0x80;  // corrupt a fixed quarter, both modes
      opens.push_back(engine.submit_decrypt(*p.ch, p.iv, p.aad, sealed.payload, tag));
      opens.back().on_done([&open_failures, &open_ok](const host::JobResult& r) {
        r.auth_ok ? ++open_ok : ++open_failures;
      });
    }
    engine.wait_all();

    EXPECT_EQ(open_failures, kPackets / 4) << backend_name(backend);
    EXPECT_EQ(open_ok, kPackets - kPackets / 4) << backend_name(backend);
    for (std::size_t i = 0; i < kPackets; ++i) {
      const host::JobResult& r = opens[i].result();
      if (i % 8 < 2) {
        EXPECT_FALSE(r.auth_ok) << i;
        EXPECT_TRUE(r.payload.empty()) << i;  // no plaintext leaks on failure
      } else {
        ASSERT_TRUE(r.auth_ok) << i;
        EXPECT_EQ(to_hex(r.payload), to_hex(pkts[i].pt)) << i;
      }
    }
    // Stats: each channel saw its packets twice (seal + open), and exactly
    // its share of the corrupted quarter as failures.
    EXPECT_EQ(gcm.stats().completed + ccm.stats().completed, 2 * kPackets);
    EXPECT_EQ(gcm.stats().failed, kPackets / 8);  // the even-index corruptions
    EXPECT_EQ(ccm.stats().failed, kPackets / 8);  // the odd-index ones
  }
}

TEST(Scenario, DecryptFractionRoundTripsThroughTheFleet) {
  // A class with decrypt_fraction re-submits that share of its sealed
  // packets as open jobs: the verify mix is drawn from the class rng in
  // arrival order, so both backends round-trip the identical packets, and
  // every round-trip must authenticate.
  auto make = [](host::Backend backend) {
    ScenarioSpec spec = parse_scenario_text(R"({
      "name": "verify_mix", "seed": 991, "devices": 2, "cores_per_device": 2,
      "window": 10,
      "classes": [
        {"class": "video",   "name": "v", "packets": 30, "channels": 2,
         "decrypt_fraction": 0.5,
         "arrival": {"kind": "poisson", "rate": 0.8}},
        {"class": "bulk",    "name": "b", "packets": 20, "channels": 1,
         "decrypt_fraction": 1.0, "payload": {"fixed": 512},
         "arrival": {"kind": "poisson", "rate": 0.5}},
        {"class": "voip",    "name": "c", "packets": 16, "channels": 1,
         "decrypt_fraction": 0.25,
         "arrival": {"kind": "fixed_rate", "rate": 1.0}},
        {"class": "control", "name": "m", "packets": 12, "channels": 1,
         "decrypt_fraction": 0.5,
         "arrival": {"kind": "poisson", "rate": 0.5}}
      ]
    })");
    spec.backend = backend;
    return spec;
  };
  ScenarioReport fast = ScenarioRunner(make(host::Backend::kFast)).run();
  ScenarioReport sim = ScenarioRunner(make(host::Backend::kSim)).run();
  for (std::size_t i = 0; i < fast.classes.size(); ++i) {
    const ClassReport& f = fast.classes[i];
    const ClassReport& s = sim.classes[i];
    EXPECT_EQ(f.completed, f.offered) << f.name;
    EXPECT_EQ(f.auth_failures, 0u) << f.name;
    EXPECT_EQ(s.auth_failures, 0u) << f.name;
    EXPECT_EQ(f.decrypt_completed, f.decrypt_submitted) << f.name;
    EXPECT_GT(f.decrypt_submitted, 0u) << f.name;
    EXPECT_LE(f.decrypt_submitted, f.completed) << f.name;
    // The verify pick is arrival-indexed, so the mix matches across backends.
    EXPECT_EQ(f.decrypt_submitted, s.decrypt_submitted) << f.name;
    EXPECT_EQ(f.decrypt_completed, s.decrypt_completed) << f.name;
  }
  // decrypt_fraction = 1.0 round-trips every sealed packet.
  EXPECT_EQ(fast.classes[1].decrypt_submitted, fast.classes[1].completed);

  // And the threaded run is a deterministic twin of the serial one, on
  // both backends (only the simulated fleet steps on the worker pool).
  for (const ScenarioReport* serial : {&fast, &sim}) {
    ScenarioSpec threaded_spec = make(serial == &sim ? host::Backend::kSim : host::Backend::kFast);
    threaded_spec.threads = 2;
    ScenarioReport threaded = ScenarioRunner(std::move(threaded_spec)).run();
    expect_reports_identical(*serial, threaded);
  }
}

TEST(Scenario, ReconfigChurnMixSwapsUnderLoadOnBothBackends) {
  // Alternating AES and Whirlpool demand on single-core devices forces the
  // fleet to swap images under load (paper SVII.B). Both backends must
  // resolve every packet with nonzero swap accounting, and serial vs
  // threaded stepping must be bit-identical — including the swap timeline.
  auto make = [](host::Backend backend, std::size_t threads) {
    ScenarioSpec spec = parse_scenario_text(R"({
      "name": "mini_churn", "seed": 23, "devices": 2, "cores_per_device": 1,
      "window": 6, "bitstream_store": "ram", "reconfig_scale": 4096,
      "classes": [
        {"class": "video",     "name": "aes",  "packets": 40, "channels": 2,
         "payload": {"fixed": 512}, "decrypt_fraction": 0.25,
         "arrival": {"kind": "poisson", "rate": 0.4}},
        {"class": "whirlpool", "name": "hash", "packets": 40, "channels": 2,
         "payload": {"fixed": 512},
         "arrival": {"kind": "poisson", "rate": 0.4}}
      ]
    })");
    spec.backend = backend;
    spec.threads = threads;
    return spec;
  };
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    ScenarioReport serial = ScenarioRunner(make(backend, 0)).run();
    EXPECT_GT(serial.reconfigurations, 1u) << backend_name(backend);
    EXPECT_GT(serial.reconfig_stall_cycles, 0u) << backend_name(backend);
    EXPECT_EQ(serial.bitstream_store, "ram");
    for (const ClassReport& c : serial.classes) {
      EXPECT_EQ(c.completed, c.offered) << c.name;
      EXPECT_EQ(c.auth_failures, 0u) << c.name;
      EXPECT_GT(c.image_reconfigurations, 0u) << c.name;
    }
    ScenarioReport threaded = ScenarioRunner(make(backend, 2)).run();
    expect_reports_identical(serial, threaded);
  }
}

TEST(Scenario, ShippedReconfigChurnPresetParses) {
  const std::string path = std::string(MCCP_SOURCE_DIR) + "/scenarios/reconfig_churn.json";
  ScenarioSpec spec = load_scenario(path);
  EXPECT_EQ(spec.name, "reconfig_churn");
  EXPECT_EQ(spec.cores_per_device, 1u);
  EXPECT_EQ(spec.bitstream_store, reconfig::BitstreamStore::kRam);
  EXPECT_TRUE(spec.auto_reconfig);
  EXPECT_EQ(spec.reconfig_time_divisor, 1024u);
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.classes[0].decrypt_fraction, 0.25);
  EXPECT_EQ(spec.classes[1].profile.mode, ChannelMode::kWhirlpool);
}

TEST(Scenario, SlotLayoutAvoidsSwapsEntirely) {
  // Booting a Whirlpool slot per device serves the same churn mix with
  // zero reconfigurations — the scenario-level knob for the paper's
  // "cache the bitstream / provision ahead of time" takeaway.
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "pre_provisioned", "seed": 23, "devices": 2, "cores_per_device": 2,
    "window": 6, "slots": ["aes", "whirlpool"],
    "classes": [
      {"class": "video",     "name": "aes",  "packets": 20, "channels": 2,
       "payload": {"fixed": 512}, "arrival": {"kind": "poisson", "rate": 0.4}},
      {"class": "whirlpool", "name": "hash", "packets": 20, "channels": 2,
       "payload": {"fixed": 512}, "arrival": {"kind": "poisson", "rate": 0.4}}
    ]
  })");
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  EXPECT_EQ(report.reconfigurations, 0u);
  EXPECT_EQ(report.reconfig_stall_cycles, 0u);
  for (const ClassReport& c : report.classes) {
    EXPECT_EQ(c.completed, c.offered) << c.name;
    EXPECT_EQ(c.auth_failures, 0u) << c.name;
  }
}

// -- multi-tenant QoS ---------------------------------------------------------

/// Per-tenant planner counts that must be bit-identical across backends,
/// thread counts and transports.
void expect_tenants_identical(const ScenarioReport& a, const ScenarioReport& b,
                              const char* what) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << what;
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantReport& x = a.tenants[i];
    const TenantReport& y = b.tenants[i];
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.accepted, y.accepted) << what << " " << x.name;
    EXPECT_EQ(x.completed, y.completed) << what << " " << x.name;
    EXPECT_EQ(x.throttled, y.throttled) << what << " " << x.name;
    EXPECT_EQ(x.shed, y.shed) << what << " " << x.name;
  }
}

TEST(Scenario, TenantStormPinsPerTenantCountsAcrossBackendsAndThreads) {
  // The tentpole acceptance pin: the shipped tenant_storm preset — a bulk
  // firehose crowding a voip trickle and a video stream behind shared
  // fleet capacity — resolves the exact same per-tenant planner decisions
  // on both backends and under serial/threaded stepping, sheds bulk
  // (never voip or video), and holds the voip tenant's p99 SLO.
  const std::string path = std::string(MCCP_SOURCE_DIR) + "/scenarios/tenant_storm.json";
  std::vector<ScenarioReport> reports;
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim})
    for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      ScenarioSpec spec = load_scenario(path);
      spec.backend = backend;
      spec.threads = threads;
      reports.push_back(ScenarioRunner(std::move(spec)).run());
    }

  const ScenarioReport& r = reports.front();
  ASSERT_EQ(r.tenants.size(), 3u);
  const TenantReport& voice = r.tenants[0];
  const TenantReport& video = r.tenants[1];
  const TenantReport& bulk = r.tenants[2];
  // The exact planner decisions for seed 4242 — a regression fingerprint,
  // not a tunable: any drift in rng draw order, bucket arithmetic or plan
  // iteration shows up here first.
  EXPECT_EQ(voice.name, "acme_voice");
  EXPECT_EQ(voice.accepted, 400u);
  EXPECT_EQ(voice.throttled, 0u);
  EXPECT_EQ(voice.shed, 0u);
  EXPECT_EQ(video.accepted, 600u);
  EXPECT_EQ(video.throttled, 0u);
  EXPECT_EQ(video.shed, 0u);
  EXPECT_EQ(bulk.accepted, 294u);
  EXPECT_EQ(bulk.throttled, 9u);
  EXPECT_EQ(bulk.shed, 1197u);
  // Everything accepted completes (blocking admission, closed loop).
  for (const TenantReport& t : r.tenants) EXPECT_EQ(t.completed, t.accepted) << t.name;
  // Graceful degradation order and the voip latency SLO.
  EXPECT_GT(bulk.shed, video.shed);
  EXPECT_GE(video.shed, voice.shed);
  EXPECT_TRUE(voice.slo_ok) << "p99 " << voice.p99_latency_cycles << " vs SLO "
                            << voice.p99_slo_cycles;
  EXPECT_GT(voice.p99_slo_cycles, 0u);

  for (std::size_t i = 1; i < reports.size(); ++i)
    expect_tenants_identical(r, reports[i], "variant");
}

TEST(Scenario, TenantClassReportsCarryPlannerRefusals) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "mini_tenants", "seed": 7, "devices": 1, "cores_per_device": 2,
    "window": 16,
    "tenants": [
      {"name": "metered", "slo": "bulk",
       "rate": {"tokens": 1, "per_cycles": 2000}, "burst": 4}
    ],
    "classes": [
      {"class": "bulk", "tenant": "metered", "packets": 60, "channels": 1,
       "payload": {"fixed": 256}, "arrival": {"kind": "fixed_rate", "rate": 2.0}},
      {"class": "voip", "packets": 10, "channels": 1,
       "arrival": {"kind": "fixed_rate", "rate": 0.2}}
    ]
  })");
  ScenarioReport r = ScenarioRunner(std::move(spec)).run();
  const ClassReport& metered = r.classes[0];
  EXPECT_EQ(metered.tenant, "metered");
  // 2 arrivals/kcycle against a 0.5/kcycle contract (burst 4): most of
  // the stream is over contract, and with no capacity bucket declared the
  // refusals are throttles, never sheds.
  EXPECT_GT(metered.throttled, 0u);
  EXPECT_EQ(metered.shed, 0u);
  EXPECT_EQ(metered.offered, 60u);
  EXPECT_EQ(metered.offered, metered.submitted + metered.throttled + metered.shed);
  EXPECT_EQ(metered.completed, metered.submitted);
  // The untenanted class is exempt from metering.
  const ClassReport& voip = r.classes[1];
  EXPECT_EQ(voip.tenant, "");
  EXPECT_EQ(voip.throttled + voip.shed, 0u);
  EXPECT_EQ(voip.completed, voip.offered);
  // Tenant aggregation mirrors the class accounting.
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].accepted, metered.submitted);
  EXPECT_EQ(r.tenants[0].throttled, metered.throttled);
}

TEST(Scenario, TenantReportsLandInReportJson) {
  const std::string path = std::string(MCCP_SOURCE_DIR) + "/scenarios/tenant_storm.json";
  ScenarioReport report = ScenarioRunner(load_scenario(path)).run();
  json::Value doc = json::parse(report_json(report));
  const json::Value* tenants = doc.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->as_array().size(), 3u);
  for (const json::Value& t : tenants->as_array()) {
    EXPECT_FALSE(t.string_or("name", "").empty());
    EXPECT_FALSE(t.string_or("slo", "").empty());
    EXPECT_NE(t.find("accepted"), nullptr);
    EXPECT_NE(t.find("throttled"), nullptr);
    EXPECT_NE(t.find("shed"), nullptr);
    EXPECT_NE(t.find("slo_ok"), nullptr);
    ASSERT_NE(t.find("latency_cycles"), nullptr);
    EXPECT_GE(t.find("latency_cycles")->u64_or("p99", 0),
              t.find("latency_cycles")->u64_or("p50", 1));
  }
  // Per-class planner refusals ride along on the class objects.
  for (const json::Value& c : doc.find("classes")->as_array()) {
    EXPECT_NE(c.find("tenant"), nullptr);
    EXPECT_NE(c.find("throttled"), nullptr);
    EXPECT_NE(c.find("shed"), nullptr);
  }
}

TEST(Scenario, DropOverloadAccountingIsPinnedAcrossBackendsAndThreads) {
  // Overload a one-device fleet through an undersized window with drop
  // admission. Drops are planned (modelled-window replay in the admission
  // plan), so per-class offered/submitted/dropped/completed pin
  // bit-identical across backends and serial/threaded stepping. Busy
  // rejections are control-bus retry counts — cycle-accurate in sim,
  // reconstructed from modelled denial time in fast — so they pin per
  // backend (and across thread counts), not across backends: the golden
  // values below are regression fingerprints for both calibrations.
  auto make = [](host::Backend backend, std::size_t threads) {
    ScenarioSpec spec = parse_scenario_text(R"({
      "name": "overload", "seed": 1213, "devices": 1, "cores_per_device": 2,
      "window": 3, "admission": "drop",
      "classes": [
        {"class": "voip", "packets": 40, "channels": 2,
         "arrival": {"kind": "fixed_rate", "rate": 4.0}},
        {"class": "bulk", "packets": 30, "channels": 1,
         "payload": {"fixed": 2048},
         "arrival": {"kind": "poisson", "rate": 2.0}}
      ]
    })");
    spec.backend = backend;
    spec.threads = threads;
    return spec;
  };
  ScenarioReport base = ScenarioRunner(make(host::Backend::kFast, 0)).run();
  std::uint64_t total_dropped = 0;
  for (const ClassReport& c : base.classes) {
    EXPECT_EQ(c.offered, c.submitted + c.dropped) << c.name;
    EXPECT_EQ(c.completed, c.submitted) << c.name;
    total_dropped += c.dropped;
  }
  EXPECT_GT(total_dropped, 0u) << "the overload must actually shed arrivals";

  // Per-backend busy-rejection fingerprints for seed 1213.
  const std::uint64_t kWantRejections[2][2] = {{26, 26},    // fast: voip, bulk
                                               {644, 23}};  // sim:  voip, bulk
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim})
    for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      ScenarioReport r = ScenarioRunner(make(backend, threads)).run();
      ASSERT_EQ(r.classes.size(), base.classes.size());
      const std::uint64_t* rej = kWantRejections[backend == host::Backend::kSim ? 1 : 0];
      for (std::size_t i = 0; i < base.classes.size(); ++i) {
        const ClassReport& want = base.classes[i];
        const ClassReport& got = r.classes[i];
        EXPECT_EQ(got.offered, want.offered) << want.name;
        EXPECT_EQ(got.submitted, want.submitted) << want.name;
        EXPECT_EQ(got.dropped, want.dropped) << want.name;
        EXPECT_EQ(got.completed, want.completed) << want.name;
        EXPECT_EQ(got.busy_rejections, rej[i]) << want.name;
      }
    }
}

TEST(Scenario, QueueDepthSamplesAreMonotoneAndBounded) {
  ScenarioSpec spec = small_mixed(host::Backend::kFast);
  spec.queue_sample_cycles = 64;  // force compaction
  const std::size_t window = spec.window;
  ScenarioReport report = ScenarioRunner(std::move(spec)).run();
  ASSERT_FALSE(report.queue_depth.empty());
  EXPECT_LT(report.queue_depth.size(), 2048u);
  for (std::size_t i = 1; i < report.queue_depth.size(); ++i)
    EXPECT_GT(report.queue_depth[i].cycle, report.queue_depth[i - 1].cycle);
  for (const QueueSample& s : report.queue_depth) EXPECT_LE(s.inflight, window);
}

}  // namespace
}  // namespace mccp::workload
