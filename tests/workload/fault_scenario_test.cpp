// Fault-injection & elasticity at the workload layer: "faults" / "autoscale"
// spec parsing with field-level errors, scripted kill/add scenarios that
// lose nothing and pin identical per-class counts across backends and
// serial/threaded stepping, recovery-time metrics in the report JSON, the
// shipped scenarios/device_failure.json preset, queue-depth autoscaling
// determinism, and the CLI-facing load_scenario error paths (missing file,
// malformed JSON).
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace mccp::workload {
namespace {

// -- spec parsing -------------------------------------------------------------

TEST(FaultSpec, FaultsAndAutoscaleParse) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "devices": 3,
    "faults": [
      {"kind": "add", "at_cycle": 9000, "slots": ["whirlpool", "aes"]},
      {"kind": "kill", "device": 1, "at_cycle": 4000},
      {"kind": "remove", "device": 2, "at_cycle": 6000}
    ],
    "autoscale": {"high_inflight": 48, "low_inflight": 4,
                  "min_devices": 2, "max_devices": 6, "cooldown_cycles": 10000},
    "classes": [{"class": "voip"}]
  })");
  ASSERT_EQ(spec.faults.size(), 3u);
  // Sorted by at_cycle regardless of file order.
  EXPECT_EQ(spec.faults[0].kind, FaultEvent::Kind::kKill);
  EXPECT_EQ(spec.faults[0].device, 1u);
  EXPECT_EQ(spec.faults[0].at_cycle, 4000u);
  EXPECT_EQ(spec.faults[1].kind, FaultEvent::Kind::kRemove);
  EXPECT_EQ(spec.faults[2].kind, FaultEvent::Kind::kAdd);
  ASSERT_EQ(spec.faults[2].slots.size(), 2u);
  EXPECT_EQ(spec.faults[2].slots[0], reconfig::CoreImage::kWhirlpool);

  EXPECT_TRUE(spec.autoscale.enabled);
  EXPECT_EQ(spec.autoscale.high_inflight, 48u);
  EXPECT_EQ(spec.autoscale.low_inflight, 4u);
  EXPECT_EQ(spec.autoscale.min_devices, 2u);
  EXPECT_EQ(spec.autoscale.max_devices, 6u);
  EXPECT_EQ(spec.autoscale.cooldown_cycles, 10'000u);

  // Absent blocks: no faults, autoscale off.
  ScenarioSpec plain = parse_scenario_text(R"({"classes": [{"class": "voip"}]})");
  EXPECT_TRUE(plain.faults.empty());
  EXPECT_FALSE(plain.autoscale.enabled);
}

TEST(FaultSpec, FieldLevelErrors) {
  auto expect_invalid = [](const char* text) {
    EXPECT_THROW(parse_scenario_text(text), std::invalid_argument) << text;
  };
  expect_invalid(  // unknown kind
      R"({"faults": [{"kind": "unplug", "at_cycle": 5}], "classes": [{"class": "voip"}]})");
  expect_invalid(  // kill needs a cycle >= 1
      R"({"faults": [{"kind": "kill", "device": 0}], "classes": [{"class": "voip"}]})");
  expect_invalid(  // kill target out of the boot fleet
      R"({"devices": 2, "faults": [{"kind": "kill", "device": 2, "at_cycle": 5}],
          "classes": [{"class": "voip"}]})");
  expect_invalid(  // bad slot image on an add
      R"({"faults": [{"kind": "add", "at_cycle": 5, "slots": ["rot13"]}],
          "classes": [{"class": "voip"}]})");
  expect_invalid(  // autoscale bounds inverted
      R"({"autoscale": {"high_inflight": 4, "low_inflight": 8},
          "classes": [{"class": "voip"}]})");
  expect_invalid(  // max below min
      R"({"autoscale": {"min_devices": 4, "max_devices": 2},
          "classes": [{"class": "voip"}]})");
  expect_invalid(  // min_devices of 0 could drain the whole fleet
      R"({"autoscale": {"min_devices": 0}, "classes": [{"class": "voip"}]})");
}

// -- CLI error paths (load_scenario is what the binaries call) ----------------

TEST(FaultSpec, LoadScenarioMissingFileThrowsWithPath) {
  try {
    load_scenario("/nonexistent/dir/nope.json");
    FAIL() << "expected a throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("nope.json"), std::string::npos)
        << "message must name the file: " << e.what();
  }
}

TEST(FaultSpec, LoadScenarioMalformedJsonThrowsParseError) {
  const std::string path = ::testing::TempDir() + "malformed_scenario.json";
  std::ofstream(path) << "{ \"name\": \"broken\", ";
  EXPECT_THROW(load_scenario(path), json::ParseError);
}

// -- scripted fault scenarios end to end --------------------------------------

/// Two devices, one dies mid-run, a replacement arrives: small enough for
/// the cycle-accurate backend, hot enough that the kill lands mid-burst.
ScenarioSpec kill_and_replace(host::Backend backend) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "kill_and_replace", "seed": 909,
    "devices": 2, "cores_per_device": 2, "window": 12,
    "faults": [
      {"kind": "kill", "device": 1, "at_cycle": 3000},
      {"kind": "add", "at_cycle": 20000}
    ],
    "classes": [
      {"class": "video", "packets": 30, "channels": 2,
       "payload": {"uniform": [256, 768]},
       "arrival": {"kind": "onoff", "rate": 0.8, "off_rate": 0.0,
                   "mean_on": 30, "mean_off": 10}},
      {"class": "voip", "packets": 20, "channels": 2,
       "arrival": {"kind": "fixed_rate", "rate": 0.5}}
    ]
  })");
  spec.backend = backend;
  return spec;
}

TEST(FaultScenario, KillAndReplaceLosesNothingOnBothBackends) {
  ScenarioReport fast = ScenarioRunner(kill_and_replace(host::Backend::kFast)).run();
  ScenarioReport sim = ScenarioRunner(kill_and_replace(host::Backend::kSim)).run();

  for (const ScenarioReport* r : {&fast, &sim}) {
    EXPECT_EQ(r->devices_failed, 1u);
    EXPECT_EQ(r->devices_removed, 1u);
    EXPECT_EQ(r->devices_added, 1u);
    EXPECT_EQ(r->lost_jobs, 0u) << "losing work is a bug";
    EXPECT_GT(r->migrated_channels, 0u);
    EXPECT_EQ(r->final_devices, 2u);
    ASSERT_EQ(r->recovery.size(), 2u);
    EXPECT_EQ(r->recovery[0].kind, "kill");
    EXPECT_EQ(r->recovery[0].device, 1u);
    EXPECT_EQ(r->recovery[0].at_cycle, 3000u);
    EXPECT_EQ(r->recovery[0].lost_jobs, 0u);
    EXPECT_EQ(r->recovery[1].kind, "add");
    // Every offered packet resolved despite the death.
    EXPECT_EQ(r->total_completed(), r->total_offered());
  }
  // The offered workload derives purely from the seed and the kill boundary
  // is deterministic, so per-class counts are bit-identical across backends.
  ASSERT_EQ(fast.classes.size(), sim.classes.size());
  for (std::size_t i = 0; i < fast.classes.size(); ++i) {
    EXPECT_EQ(fast.classes[i].offered, sim.classes[i].offered) << fast.classes[i].name;
    EXPECT_EQ(fast.classes[i].completed, sim.classes[i].completed) << fast.classes[i].name;
    EXPECT_EQ(fast.classes[i].dropped, sim.classes[i].dropped) << fast.classes[i].name;
  }
}

TEST(FaultScenario, SerialAndThreadedFaultRunsAreDeterministicTwins) {
  // Both backends: only the simulated fleet steps on the worker pool.
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    SCOPED_TRACE(backend_name(backend));
    ScenarioSpec serial = kill_and_replace(backend);
    ScenarioSpec threaded = kill_and_replace(backend);
    threaded.threads = 2;
    ScenarioReport a = ScenarioRunner(serial).run();
    ScenarioReport b = ScenarioRunner(threaded).run();
    EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
    EXPECT_EQ(a.resubmitted_jobs, b.resubmitted_jobs);
    EXPECT_EQ(a.lost_jobs, 0u);
    EXPECT_EQ(b.lost_jobs, 0u);
    ASSERT_EQ(a.recovery.size(), b.recovery.size());
    for (std::size_t i = 0; i < a.recovery.size(); ++i) {
      EXPECT_EQ(a.recovery[i].kind, b.recovery[i].kind) << i;
      EXPECT_EQ(a.recovery[i].detected_cycle, b.recovery[i].detected_cycle) << i;
      EXPECT_EQ(a.recovery[i].resubmitted_jobs, b.recovery[i].resubmitted_jobs) << i;
    }
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
      EXPECT_EQ(a.classes[i].completed, b.classes[i].completed) << a.classes[i].name;
      EXPECT_EQ(a.classes[i].payload_bytes, b.classes[i].payload_bytes) << a.classes[i].name;
    }
  }
}

TEST(FaultScenario, ScriptedRemoveDrainsHealthyDevice) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "name": "scripted_remove", "seed": 11,
    "devices": 2, "cores_per_device": 2, "window": 8,
    "faults": [{"kind": "remove", "device": 0, "at_cycle": 5000}],
    "classes": [
      {"class": "voip", "packets": 24, "channels": 2,
       "arrival": {"kind": "fixed_rate", "rate": 0.5}}
    ]
  })");
  ScenarioReport r = ScenarioRunner(spec).run();
  EXPECT_EQ(r.devices_failed, 0u) << "a scripted drain is not a failure";
  EXPECT_EQ(r.devices_removed, 1u);
  EXPECT_EQ(r.lost_jobs, 0u);
  EXPECT_EQ(r.resubmitted_jobs, 0u) << "healthy drains complete their work in place";
  EXPECT_EQ(r.final_devices, 1u);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].kind, "remove");
  EXPECT_EQ(r.total_completed(), r.total_offered());
}

TEST(FaultScenario, RecoveryMetricsLandInReportJson) {
  ScenarioReport report = ScenarioRunner(kill_and_replace(host::Backend::kFast)).run();
  json::Value doc = json::parse(report_json(report));
  EXPECT_EQ(doc.u64_or("devices_failed", 99), 1u);
  EXPECT_EQ(doc.u64_or("devices_removed", 99), 1u);
  EXPECT_EQ(doc.u64_or("devices_added", 99), 1u);
  EXPECT_EQ(doc.u64_or("lost_jobs", 99), 0u);
  EXPECT_EQ(doc.u64_or("final_devices", 99), 2u);
  EXPECT_NE(doc.find("migrated_channels"), nullptr);
  EXPECT_NE(doc.find("resubmitted_jobs"), nullptr);
  const json::Value* recovery = doc.find("recovery");
  ASSERT_NE(recovery, nullptr);
  ASSERT_EQ(recovery->as_array().size(), 2u);
  const json::Value& kill = recovery->as_array()[0];
  EXPECT_EQ(kill.string_or("kind", ""), "kill");
  EXPECT_EQ(kill.u64_or("device", 99), 1u);
  EXPECT_EQ(kill.u64_or("at_cycle", 0), 3000u);
  EXPECT_NE(kill.find("detected_cycle"), nullptr);
  EXPECT_NE(kill.find("drain_cycles"), nullptr);
  EXPECT_NE(kill.find("completed_during_drain"), nullptr);
  EXPECT_NE(kill.find("migrated_channels"), nullptr);
  EXPECT_NE(kill.find("resubmitted_jobs"), nullptr);
  EXPECT_EQ(kill.u64_or("lost_jobs", 99), 0u);
}

TEST(FaultScenario, ShippedDeviceFailurePresetRunsClean) {
  const std::string path = std::string(MCCP_SOURCE_DIR) + "/scenarios/device_failure.json";
  ScenarioSpec spec = load_scenario(path);
  EXPECT_EQ(spec.name, "device_failure");
  ASSERT_EQ(spec.faults.size(), 4u);
  EXPECT_FALSE(spec.autoscale.enabled)
      << "the preset pins a scripted membership timeline; demand-driven "
         "scaling on top would muddy the recovery-metric assertions";

  ScenarioReport r = ScenarioRunner(spec).run();
  EXPECT_EQ(r.devices_failed, 2u);
  EXPECT_EQ(r.devices_added, 2u);
  EXPECT_EQ(r.lost_jobs, 0u);
  EXPECT_EQ(r.final_devices, 3u);
  EXPECT_EQ(r.total_completed(), r.total_offered())
      << "zero lost and zero duplicated completions";
}

// -- autoscale ----------------------------------------------------------------

/// The autoscale acceptance pin: the scale-event trace (kind, device,
/// boundary cycle) of two runs must be identical.
void expect_scale_events_identical(const ScenarioReport& a, const ScenarioReport& b,
                                   const char* what) {
  EXPECT_EQ(a.devices_added, b.devices_added) << what;
  EXPECT_EQ(a.devices_removed, b.devices_removed) << what;
  ASSERT_EQ(a.recovery.size(), b.recovery.size()) << what;
  for (std::size_t i = 0; i < a.recovery.size(); ++i) {
    EXPECT_EQ(a.recovery[i].kind, b.recovery[i].kind) << what << " #" << i;
    EXPECT_EQ(a.recovery[i].device, b.recovery[i].device) << what << " #" << i;
    EXPECT_EQ(a.recovery[i].at_cycle, b.recovery[i].at_cycle) << what << " #" << i;
  }
}

ScenarioSpec autoscale_burst_spec() {
  return parse_scenario_text(R"({
    "name": "autoscale", "seed": 4242,
    "devices": 1, "cores_per_device": 2, "window": 24,
    "autoscale": {"high_inflight": 10, "low_inflight": 1,
                  "min_devices": 1, "max_devices": 3, "cooldown_cycles": 2000},
    "classes": [
      {"class": "video", "packets": 60, "channels": 3,
       "payload": {"uniform": [512, 1024]},
       "arrival": {"kind": "onoff", "rate": 1.0, "off_rate": 0.0,
                   "mean_on": 40, "mean_off": 5}}
    ]
  })");
}

TEST(FaultScenario, AutoscaleGrowsAndShrinksDeterministically) {
  ScenarioSpec spec = autoscale_burst_spec();
  ScenarioReport a = ScenarioRunner(spec).run();
  EXPECT_GT(a.devices_added, 0u) << "the burst must trip the high-water mark";
  EXPECT_GT(a.devices_removed, 0u) << "the lull must trip the low-water mark";
  EXPECT_EQ(a.lost_jobs, 0u);
  EXPECT_EQ(a.total_completed(), a.total_offered());
  EXPECT_GE(a.final_devices, 1u);
  EXPECT_LE(a.final_devices, 3u);
  for (const RecoveryEvent& e : a.recovery) {
    EXPECT_TRUE(e.kind == "autoscale_add" || e.kind == "autoscale_remove") << e.kind;
    // Decisions land on engine-clock boundaries (multiples of cooldown).
    EXPECT_EQ(e.at_cycle % 2000, 0u) << e.kind;
    EXPECT_GE(e.detected_cycle, e.at_cycle) << e.kind;
  }

  ScenarioReport b = ScenarioRunner(spec).run();
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  expect_scale_events_identical(a, b, "rerun");
}

TEST(FaultScenario, AutoscaleEventsArePinnedAcrossBackendsAndThreads) {
  // Scale decisions are planned from the accepted arrival schedule and the
  // calibrated cost model — never from observed occupancy — so the event
  // trace (kind, device, boundary) is bit-identical across the
  // cycle-accurate and fast backends and across serial/threaded stepping.
  ScenarioSpec fast_spec = autoscale_burst_spec();
  fast_spec.backend = host::Backend::kFast;
  ScenarioReport fast = ScenarioRunner(fast_spec).run();

  ScenarioSpec sim_spec = autoscale_burst_spec();
  sim_spec.backend = host::Backend::kSim;
  ScenarioReport sim = ScenarioRunner(sim_spec).run();
  expect_scale_events_identical(fast, sim, "fast vs sim");

  ScenarioSpec threaded_spec = autoscale_burst_spec();
  threaded_spec.threads = 4;
  ScenarioReport threaded = ScenarioRunner(threaded_spec).run();
  expect_scale_events_identical(fast, threaded, "serial vs threaded");

  EXPECT_GT(fast.devices_added, 0u);
  EXPECT_EQ(sim.lost_jobs, 0u);
  EXPECT_EQ(sim.total_completed(), sim.total_offered());
}

TEST(FaultScenario, ScaleDownSparesTheLastImageHolder) {
  // Mixed AES/Whirlpool fleet where the highest-numbered device — the
  // scale-down scan's first candidate — is the only one booted with a
  // Whirlpool slot. Draining it would strand the live hash channels, so
  // every planned removal must skip it and drain an AES-only device
  // instead; the hash traffic keeps completing on the shrunken fleet.
  auto make = [](host::Backend backend) {
    ScenarioSpec spec = parse_scenario_text(R"({
      "name": "mixed_drain", "seed": 77,
      "devices": 3, "cores_per_device": 2, "window": 24,
      "slots": [["aes", "aes"], ["aes", "aes"], ["aes", "whirlpool"]],
      "auto_reconfig": false,
      "autoscale": {"high_inflight": 1000, "low_inflight": 6,
                    "min_devices": 1, "max_devices": 3, "cooldown_cycles": 4000},
      "classes": [
        {"class": "video", "packets": 40, "channels": 2,
         "payload": {"fixed": 512}, "arrival": {"kind": "poisson", "rate": 0.4}},
        {"class": "whirlpool", "packets": 40, "channels": 2,
         "payload": {"fixed": 512}, "arrival": {"kind": "poisson", "rate": 0.4}}
      ]
    })");
    spec.backend = backend;
    return spec;
  };
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    ScenarioReport r = ScenarioRunner(make(backend)).run();
    EXPECT_GT(r.devices_removed, 0u) << backend_name(backend);
    for (const RecoveryEvent& e : r.recovery) {
      EXPECT_EQ(e.kind, "autoscale_remove");
      EXPECT_NE(e.device, 2u) << "drained the fleet's only Whirlpool holder";
      EXPECT_EQ(e.lost_jobs, 0u);
    }
    EXPECT_EQ(r.lost_jobs, 0u) << backend_name(backend);
    for (const ClassReport& c : r.classes) {
      EXPECT_EQ(c.completed, c.offered) << c.name;
      EXPECT_EQ(c.auth_failures, 0u) << c.name;
    }
  }
  // And the removal trace itself is backend-pinned.
  ScenarioReport fast = ScenarioRunner(make(host::Backend::kFast)).run();
  ScenarioReport sim = ScenarioRunner(make(host::Backend::kSim)).run();
  expect_scale_events_identical(fast, sim, "mixed fleet fast vs sim");
}

}  // namespace
}  // namespace mccp::workload
