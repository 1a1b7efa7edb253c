// Closed-loop scenario drivers the benchmark times.
//
// run_inproc() is workload::ScenarioRunner::run's pacing loop rebuilt on
// the public API (ClassJobStream, build_admission_plan, Engine submit /
// step / advance_to), so the benchmark can time setup apart from the run,
// stamp every request's host latency, keep every output for the crypto
// oracle and, when traced, adopt the fleet through TimedDevice decorators.
// It covers the features the benchmark's scenarios use (tenants, quotas,
// decrypt round-trips, partial reconfiguration, threaded stepping);
// membership events and autoscale are refused.
//
// run_net() replays the same scenario through net::Client connections,
// one per tenant, into an in-process net::Server, all clients driven from
// the calling thread (the server runs on one more). Arrivals go out in
// the merged canonical order, bounded by the scenario window and the
// tenants' in-flight quotas, like net::SwarmRunner.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "ledger.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace perfbench {

/// What one accepted arrival produced (and its decrypt round-trip, if any).
struct JobOutput {
  bool done = false;
  bool auth_ok = false;
  mccp::Bytes payload, tag;
  bool verify_done = false;
  bool verify_ok = false;
  mccp::Bytes verify_payload;
};

/// Host-side counts from a traced run.
struct TraceTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::int64_t device_path_ns = 0;
  std::array<std::uint64_t, kDevOpCount> device_ns{};
  std::array<std::uint64_t, kDevOpCount> device_calls{};
  std::uint64_t device_rounds = 0;
  std::uint64_t device_cycles = 0;  // summed over devices
  std::uint64_t engine_steps = 0;   // step / advance_to calls

  TraceTotals& operator+=(const TraceTotals& o) {
    for (int l = 0; l < kLayerCount; ++l) self_ns[l] += o.self_ns[l];
    for (int d = 0; d < kDevOpCount; ++d) {
      device_ns[d] += o.device_ns[d];
      device_calls[d] += o.device_calls[d];
    }
    device_path_ns += o.device_path_ns;
    device_rounds += o.device_rounds;
    device_cycles += o.device_cycles;
    engine_steps += o.engine_steps;
    return *this;
  }
};

struct RunResult {
  mccp::workload::ScenarioReport report;  // per-class counts and modeled stamps
  double setup_s = 0.0;
  double plan_s = 0.0;
  double run_s = 0.0;                  // host wall of the closed loop
  std::uint64_t jobs_completed = 0;    // arrivals + round-trips
  std::uint64_t jobs_attempted = 0;
  std::uint64_t quota_holds = 0;
  std::vector<double> request_us;      // host submit -> completion, per job
  std::vector<double> latency_cycles;  // modeled submit -> complete, per sealed job
  mccp::workload::LogHistogram queue_wait{};  // accept - submit, cycles
  /// outputs[class][accepted index]
  std::vector<std::vector<JobOutput>> outputs;
  bool traced = false;
  TraceTotals trace;
  /// Net driver only: server lifetime frame totals.
  std::uint64_t server_frames = 0;
};

RunResult run_inproc(const mccp::workload::ScenarioSpec& spec, bool traced,
                     const Injection& inject);
RunResult run_net(const mccp::workload::ScenarioSpec& spec, bool traced,
                  const Injection& inject);

}  // namespace perfbench
