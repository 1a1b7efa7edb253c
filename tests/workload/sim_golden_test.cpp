// Absolute pins for the cycle-accurate simulator's scenario-level figures.
//
// Every shipped scenario runs on Backend::kSim at a small scale and two
// seeds. Every modeled field of its ScenarioReport (per-class counts, busy
// rejections, first/last cycles, latency and service quantiles, makespan,
// swaps and stall cycles, recovery events, tenant accounting and the
// queue-depth samples) is rendered as text and compared against
// tests/data/sim_scenario_goldens.txt. Relative identities (serial ==
// threaded, sim == fast counts) cannot catch a stepping change that shifts
// every cycle stamp consistently; this test can. Only wall_ms is left out.
//
// A mismatch writes the full actual rendering next to the test binary
// (sim_scenario_goldens.actual.txt) so the diff can be inspected. A change
// that moves a modeled figure on purpose replaces the golden file with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace mccp::workload {
namespace {

struct GoldenCase {
  const char* file;
  double scale;  // multiplies every class's packet count (trace classes keep 0)
};

// Sized so the whole sweep (8 scenarios x 2 seeds) stays within a few
// seconds in an optimized build.
constexpr GoldenCase kCases[] = {
    {"mixed_radio.json", 0.1},     {"reconfig_churn.json", 0.3},
    {"tenant_storm.json", 0.05},   {"voip_under_bulk.json", 0.1},
    {"swap_thrash.json", 0.1},     {"smoke.json", 1.0},
    {"device_failure.json", 0.3},  {"trace_replay.json", 1.0},
};
constexpr std::uint64_t kSeeds[] = {1, 2};

ScenarioSpec scaled_spec(const GoldenCase& c, std::uint64_t seed) {
  ScenarioSpec spec = load_scenario(std::string(MCCP_SOURCE_DIR) + "/scenarios/" + c.file);
  spec.backend = host::Backend::kSim;
  spec.seed = seed;
  for (ClassSpec& cs : spec.classes)
    if (cs.packets != 0)
      cs.packets = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(cs.packets) * c.scale + 0.5));
  return spec;
}

void render_histogram(std::ostringstream& out, const char* label, const LogHistogram& h) {
  char mean[32];
  std::snprintf(mean, sizeof mean, "%.17g", h.mean());
  out << ' ' << label << '=' << h.count() << '/' << h.min() << '/' << h.quantile(0.5) << '/'
      << h.quantile(0.9) << '/' << h.quantile(0.99) << '/' << h.max() << '/' << mean;
}

/// Every modeled field of the report, one line per record.
std::string render(const std::string& title, const ScenarioReport& r) {
  std::ostringstream out;
  out << "== " << title << '\n';
  out << "fleet makespan=" << r.makespan_cycles << " peak_inflight=" << r.peak_inflight
      << " reconfigurations=" << r.reconfigurations
      << " stall_cycles=" << r.reconfig_stall_cycles << " failed=" << r.devices_failed
      << " removed=" << r.devices_removed << " added=" << r.devices_added
      << " migrated=" << r.migrated_channels << " resubmitted=" << r.resubmitted_jobs
      << " lost=" << r.lost_jobs << " final_devices=" << r.final_devices << '\n';
  for (const RecoveryEvent& ev : r.recovery)
    out << "recovery " << ev.kind << " device=" << ev.device << " at=" << ev.at_cycle
        << " detected=" << ev.detected_cycle << " drain=" << ev.drain_cycles
        << " completed=" << ev.completed_during_drain << " migrated=" << ev.migrated_channels
        << " resubmitted=" << ev.resubmitted_jobs << " lost=" << ev.lost_jobs << '\n';
  for (const ClassReport& c : r.classes) {
    out << "class " << c.name << " offered=" << c.offered << " submitted=" << c.submitted
        << " completed=" << c.completed << " auth_failures=" << c.auth_failures
        << " dropped=" << c.dropped << " throttled=" << c.throttled << " shed=" << c.shed
        << " busy=" << c.busy_rejections << " bytes=" << c.payload_bytes
        << " decrypt=" << c.decrypt_submitted << '/' << c.decrypt_completed
        << " image_swaps=" << c.image_reconfigurations << " first=" << c.first_submit_cycle
        << " last=" << c.last_complete_cycle;
    render_histogram(out, "latency", c.latency);
    render_histogram(out, "service", c.service);
    out << '\n';
  }
  for (const TenantReport& t : r.tenants) {
    out << "tenant " << t.name << " accepted=" << t.accepted << " completed=" << t.completed
        << " throttled=" << t.throttled << " shed=" << t.shed
        << " p99=" << t.p99_latency_cycles << " slo_ok=" << t.slo_ok;
    render_histogram(out, "latency", t.latency);
    out << '\n';
  }
  // The series can hold ~2k points: pin its length, interval and an
  // FNV-1a digest of every (cycle, inflight) pair.
  std::uint64_t fnv = 1469598103934665603ull;
  auto mix = [&fnv](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (8 * i)) & 0xFF;
      fnv *= 1099511628211ull;
    }
  };
  for (const QueueSample& q : r.queue_depth) {
    mix(q.cycle);
    mix(q.inflight);
  }
  out << "queue samples=" << r.queue_depth.size() << " interval=" << r.queue_sample_interval
      << " fnv=" << std::hex << fnv << std::dec << '\n';
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

TEST(SimGolden, ShippedScenariosMatchCheckedInModeledFigures) {
  std::string actual;
  for (const GoldenCase& c : kCases)
    for (std::uint64_t seed : kSeeds) {
      ScenarioReport report = ScenarioRunner(scaled_spec(c, seed)).run();
      std::ostringstream title;
      title << c.file << " seed=" << seed << " scale=" << c.scale;
      actual += render(title.str(), report);
    }
  const std::string golden_path =
      std::string(MCCP_SOURCE_DIR) + "/tests/data/sim_scenario_goldens.txt";
  const std::string golden = read_file(golden_path);
  if (actual != golden) {
    std::ofstream("sim_scenario_goldens.actual.txt") << actual;
    // Report the first differing line; the whole rendering is on disk.
    std::istringstream a(actual), g(golden);
    std::string al, gl;
    int line = 1;
    for (;; ++line) {
      const bool more_a = static_cast<bool>(std::getline(a, al));
      const bool more_g = static_cast<bool>(std::getline(g, gl));
      if (!more_a) al = "<end>";
      if (!more_g) gl = "<end>";
      if (al != gl || (!more_a && !more_g)) break;
    }
    FAIL() << "modeled figures differ from " << golden_path << " at line " << line
           << "\n  golden: " << gl << "\n  actual: " << al
           << "\n(full rendering written to sim_scenario_goldens.actual.txt)";
  }
}

}  // namespace
}  // namespace mccp::workload
