// mccp_perfbench: the MCCP stack's benchmark (see ../README.md).
//
//   mccp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--workloads-dir DIR] [--inject LAYER:NS] [--commit SHA]
//
// Runs one named workload closed loop for S seconds of rounds, each round
// one run of every scenario instance the seed selects; checks every output
// against the crypto replay, every run against workload::ScenarioRunner::run
// (traced) or the checked first run; prints a host stamp line, a ledger table on
// stderr (traced runs), and as the last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json_writer.h"
#include "crypto/kernels.h"
#include "driver.h"
#include "net/protocol.h"
#include "oracle.h"
#include "sim/simulation.h"
#include "workload/runner.h"

namespace perfbench {
namespace {

using namespace mccp;
using workload::ScenarioReport;
using workload::ScenarioSpec;

struct WorkloadDef {
  const char* name;
  const char* file;
  host::Backend backend;
  std::size_t threads;
  double scale;           // packets per class x scale
  std::size_t instances;  // scenario seeds, all checked and pooled for modeled figures
  std::size_t timed;      // the first `timed` instances re-run in every measured round
  bool net;
  bool fidelity;  // also run on sim as the fidelity reference
};

// Modeled figures pool every instance, so one seed's traffic shape does not
// set a run's figures. Host time re-runs the first `timed` instances each
// round: few enough that every instance gets many runs to take the fastest
// of, enough that a round has well over 1000 latencies (a p99 with >= 10
// samples beyond it).
constexpr WorkloadDef kWorkloads[] = {
    {"radio_sim", "mixed_radio.json", host::Backend::kSim, 0, 0.5, 32, 8, false, false},
    {"radio_fast", "mixed_radio.json", host::Backend::kFast, 2, 2.0, 32, 32, false, false},
    {"churn_fast", "reconfig_churn.json", host::Backend::kFast, 0, 1.0, 32, 8, false, true},
    {"tenant_net", "tenant_storm.json", host::Backend::kFast, 0, 1.0, 16, 16, true, false},
};

const char* arg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// First difference between a driver's report and the runner's, or "".
/// `counts_only` compares what the net transport pins: per-class counts.
std::string diff_reports(const ScenarioReport& ref, const ScenarioReport& got, bool counts_only) {
  auto cmp = [](const std::string& what, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string()
                  : what + ": runner " + std::to_string(a) + ", driver " + std::to_string(b);
  };
  if (ref.classes.size() != got.classes.size()) return "class count";
  std::vector<std::string> diffs;
  for (std::size_t i = 0; i < ref.classes.size(); ++i) {
    const workload::ClassReport& a = ref.classes[i];
    const workload::ClassReport& b = got.classes[i];
    const std::string c = a.name + ".";
    diffs.push_back(cmp(c + "offered", a.offered, b.offered));
    diffs.push_back(cmp(c + "submitted", a.submitted, b.submitted));
    diffs.push_back(cmp(c + "completed", a.completed, b.completed));
    diffs.push_back(cmp(c + "auth_failures", a.auth_failures, b.auth_failures));
    diffs.push_back(cmp(c + "dropped", a.dropped, b.dropped));
    diffs.push_back(cmp(c + "throttled", a.throttled, b.throttled));
    diffs.push_back(cmp(c + "shed", a.shed, b.shed));
    diffs.push_back(cmp(c + "payload_bytes", a.payload_bytes, b.payload_bytes));
    diffs.push_back(cmp(c + "decrypt_submitted", a.decrypt_submitted, b.decrypt_submitted));
    diffs.push_back(cmp(c + "decrypt_completed", a.decrypt_completed, b.decrypt_completed));
    if (counts_only) continue;
    diffs.push_back(cmp(c + "busy_rejections", a.busy_rejections, b.busy_rejections));
    diffs.push_back(cmp(c + "first_submit_cycle", a.first_submit_cycle, b.first_submit_cycle));
    diffs.push_back(cmp(c + "last_complete_cycle", a.last_complete_cycle, b.last_complete_cycle));
    diffs.push_back(cmp(c + "image_reconfigurations", a.image_reconfigurations,
                        b.image_reconfigurations));
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
      const std::string p = std::to_string(static_cast<int>(q * 100));
      diffs.push_back(cmp(c + "latency_q" + p, a.latency.quantile(q), b.latency.quantile(q)));
      diffs.push_back(cmp(c + "service_q" + p, a.service.quantile(q), b.service.quantile(q)));
    }
    diffs.push_back(cmp(c + "latency_count", a.latency.count(), b.latency.count()));
  }
  if (!counts_only) {
    diffs.push_back(cmp("makespan_cycles", ref.makespan_cycles, got.makespan_cycles));
    diffs.push_back(cmp("reconfigurations", ref.reconfigurations, got.reconfigurations));
    diffs.push_back(cmp("reconfig_stall_cycles", ref.reconfig_stall_cycles,
                        got.reconfig_stall_cycles));
  }
  for (const std::string& d : diffs)
    if (!d.empty()) return d;
  return "";
}

workload::LogHistogram merged(const ScenarioReport& r, bool service) {
  workload::LogHistogram h;
  for (const workload::ClassReport& c : r.classes) h.merge(service ? c.service : c.latency);
  return h;
}

double modeled_mbps(const ScenarioReport& r) {
  std::uint64_t bytes = 0;
  for (const workload::ClassReport& c : r.classes) bytes += c.payload_bytes;
  return r.makespan_cycles == 0 ? 0.0 : sim::throughput_mbps(bytes * 8, r.makespan_cycles);
}

double cycles_to_us(double cycles) { return cycles / (sim::kClockFrequencyHz / 1e6); }

double rel_err(double fast, double sim) { return sim == 0.0 ? 0.0 : std::fabs(fast - sim) / sim; }

/// Encoded bytes on the wire (SUBMIT + COMPLETION frames) of a run's
/// requests, from the protocol encoder over its inputs and outputs.
void add_wire_bytes(const ScenarioSpec& spec, const RunResult& run, std::uint64_t& bytes,
                    std::uint64_t& requests) {
  const auto jobs = accepted_jobs(spec);
  for (std::size_t ci = 0; ci < jobs.size(); ++ci)
    for (std::size_t k = 0; k < jobs[ci].size() && k < run.outputs[ci].size(); ++k) {
      const workload::GeneratedJob& g = jobs[ci][k];
      const JobOutput& o = run.outputs[ci][k];
      net::SubmitFrame submit;
      submit.job.iv = g.job.iv_or_nonce;
      submit.job.aad = g.job.aad;
      submit.job.payload = g.job.payload;
      net::CompletionFrame done;
      done.payload = o.payload;
      done.tag = o.tag;
      bytes += net::encode_frame(submit).size() + net::encode_frame(done).size();
      ++requests;
      if (!o.verify_done) continue;
      submit.job.payload = o.payload;
      submit.job.tag = o.tag;
      done.payload = o.verify_payload;
      done.tag.clear();
      bytes += net::encode_frame(submit).size() + net::encode_frame(done).size();
      ++requests;
    }
}

/// One round: every instance of the workload run once, pooled.
struct Round {
  std::uint64_t jobs = 0;
  double run_s = 0.0;
  std::vector<double> plan_ms, request_us;
  TraceTotals trace;
  std::uint64_t rejections = 0, quota_holds = 0, server_frames = 0;
  workload::LogHistogram queue_wait, service;
  bool traced = false, net = false;

  void add(const RunResult& r) {
    jobs += r.jobs_completed;
    run_s += r.run_s;
    plan_ms.push_back(r.plan_s * 1e3);
    request_us.insert(request_us.end(), r.request_us.begin(), r.request_us.end());
    trace += r.trace;
    for (const workload::ClassReport& c : r.report.classes) {
      rejections += c.busy_rejections;
      service.merge(c.service);
    }
    quota_holds += r.quota_holds;
    server_frames += r.server_frames;
    queue_wait.merge(r.queue_wait);
    traced = r.traced;
    net = r.server_frames > 0;
  }
};

/// A round's figures, normalized per completed job.
struct Sample {
  double plan_ms, req_p50_us, req_p99_us, wall_ns_per_pkt;
  std::map<std::string, double> layers;
};

Sample sample_of(const Round& r) {
  const double pkts = static_cast<double>(std::max<std::uint64_t>(1, r.jobs));
  Sample s{};
  s.plan_ms = median(r.plan_ms);
  s.req_p50_us = quantile(r.request_us, 0.50);
  s.req_p99_us = quantile(r.request_us, 0.99);
  s.wall_ns_per_pkt = r.run_s * 1e9 / pkts;
  if (!r.traced) return s;
  const TraceTotals& t = r.trace;
  auto per = [pkts](double v) { return v / pkts; };
  auto& L = s.layers;
  L["workload.gen_ns_per_pkt"] = per(t.self_ns[kGen]);
  L["workload.callback_ns_per_pkt"] = per(t.self_ns[kCallback]);
  double attributed = t.self_ns[kGen] + t.self_ns[kCallback];
  if (r.net) {
    L["net.send_ns_per_req"] = per(t.self_ns[kNetSend]);
    L["net.poll_ns_per_req"] = per(t.self_ns[kNetPoll]);
    L["net.idle_ns_per_req"] = per(t.self_ns[kNetIdle]);
    L["net.idle_wait_frac"] = t.self_ns[kNetIdle] / (r.run_s * 1e9);
    L["net.frames_per_req"] = per(static_cast<double>(r.server_frames));
    attributed += t.self_ns[kNetSend] + t.self_ns[kNetPoll] + t.self_ns[kNetIdle];
  } else {
    const double rejections = static_cast<double>(r.rejections);
    L["host.submit_ns_per_pkt"] = per(t.self_ns[kHostSubmit]);
    L["host.step_self_ns_per_pkt"] = per(t.self_ns[kHostStep]);
    L["host.steps_per_pkt"] = per(static_cast<double>(t.engine_steps));
    L["host.device_rounds_per_pkt"] = per(static_cast<double>(t.device_rounds));
    L["host.busy_rejections_per_pkt"] = per(rejections);
    L["host.useful_frac"] = pkts / (pkts + rejections);
    L["device.step_ns_per_pkt"] = per(static_cast<double>(t.device_ns[kDevStep]));
    L["device.submit_ns_per_pkt"] = per(static_cast<double>(t.device_ns[kDevSubmit]));
    L["device.poll_ns_per_pkt"] = per(static_cast<double>(t.device_ns[kDevPoll]));
    L["device.path_ns_per_pkt"] = per(static_cast<double>(t.device_path_ns));
    double calls = 0;
    for (std::uint64_t c : t.device_calls) calls += static_cast<double>(c);
    L["device.calls_per_pkt"] = per(calls);
    L["device.ns_per_cycle"] =
        t.device_cycles == 0 ? 0.0
                             : static_cast<double>(t.device_ns[kDevStep]) /
                                   static_cast<double>(t.device_cycles);
    L["device.queue_wait_p50_cycles"] = static_cast<double>(r.queue_wait.quantile(0.5));
    L["device.service_p50_cycles"] = static_cast<double>(r.service.quantile(0.5));
    L["qos.quota_holds"] = static_cast<double>(r.quota_holds);
    attributed += t.self_ns[kHostSubmit] + t.self_ns[kHostStep] + t.device_path_ns;
  }
  L["other_ns_per_pkt"] = per(r.run_s * 1e9 - attributed);
  return s;
}

/// The ledger of one traced round: its layers plus "other" sum to its wall.
void print_ledger(const char* title, const Sample& s) {
  static const char* const kParts[] = {
      "workload.gen_ns_per_pkt",   "workload.callback_ns_per_pkt", "host.submit_ns_per_pkt",
      "host.step_self_ns_per_pkt", "device.path_ns_per_pkt",       "net.send_ns_per_req",
      "net.poll_ns_per_req",       "net.idle_ns_per_req",          "other_ns_per_pkt"};
  std::fprintf(stderr, "%s ledger (traced round with the median wall, ns per job)\n", title);
  double sum = 0;
  for (const char* k : kParts) {
    auto it = s.layers.find(k);
    if (it == s.layers.end()) continue;
    sum += it->second;
    std::fprintf(stderr, "  %-30s %12.1f  %5.1f%%\n", k, it->second,
                 100.0 * it->second / s.wall_ns_per_pkt);
  }
  std::fprintf(stderr, "  %-30s %12.1f  (layers sum to %.1f)\n", "traced wall", s.wall_ns_per_pkt,
               sum);
}

int run(int argc, char** argv) {
  const char* name = arg(argc, argv, "--workload");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (name != nullptr && std::strcmp(name, w.name) == 0) def = &w;
  if (def == nullptr) {
    std::fprintf(stderr, "usage: mccp_perfbench --workload radio_sim|radio_fast|churn_fast|"
                         "tenant_net [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const char* dir = arg(argc, argv, "--workloads-dir");
  ScenarioSpec shipped =
      workload::load_scenario(std::string(dir ? dir : "perfbench/workloads") + "/" + def->file);
  shipped.backend = def->backend;
  shipped.threads = def->threads;
  for (workload::ClassSpec& cs : shipped.classes)
    cs.packets = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(static_cast<double>(cs.packets) * def->scale)));
  const std::uint64_t seed =
      arg(argc, argv, "--seed") ? std::stoull(arg(argc, argv, "--seed")) : shipped.seed;
  // Instance j of run seed n is the scenario at seed n * 1000 + j.
  std::vector<ScenarioSpec> specs(def->instances, shipped);
  for (std::size_t j = 0; j < specs.size(); ++j) specs[j].seed = seed * 1000 + j;

  const double seconds =
      arg(argc, argv, "--seconds") ? std::stod(arg(argc, argv, "--seconds")) : 10.0;
  const bool trace =
      arg(argc, argv, "--trace") && std::strcmp(arg(argc, argv, "--trace"), "1") == 0;
  Injection inject;
  if (const char* inj = arg(argc, argv, "--inject")) {
    const std::string s(inj);
    const std::size_t colon = s.find(':');
    const std::string layer = s.substr(0, colon);
    const std::int64_t ns = colon == std::string::npos ? 0 : std::stoll(s.substr(colon + 1));
    if (layer == "device.step")
      inject.device_step_ns = ns;
    else if (layer == "workload.callback")
      inject.callback_ns = ns;
    else
      throw std::runtime_error("--inject: unknown boundary " + layer);
  }

  {
    JsonWriter stamp;
    stamp.begin_object()
        .begin_object("host")
        .field("cpu", cpu_model())
        .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("kernel", crypto::active_kernel_name())
        .field("build_type", MCCP_BENCH_BUILD_TYPE)
        .field("commit", arg(argc, argv, "--commit") ? arg(argc, argv, "--commit") : "unknown")
        .end_object()
        .field("workload", def->name)
        .field("seed", seed)
        .field("instances", specs.size())
        .field("timed", def->timed)
        .field("trace", trace)
        .end_object();
    std::printf("%s\n", stamp.str().c_str());
  }

  auto drive = [&](const ScenarioSpec& spec, bool traced) {
    return def->net ? run_net(spec, traced, inject) : run_inproc(spec, traced, inject);
  };
  std::vector<std::string> problems;
  auto problem = [&problems](const std::string& p) {
    if (problems.size() < 8) problems.push_back(p);
  };
  std::uint64_t attempted = 0, failed = 0;

  // Checked warm-up round (untimed): each instance's outputs against the
  // crypto replay; its report and output digest become the baseline every
  // later run of that instance must reproduce. Traced runs are held to
  // workload::ScenarioRunner::run itself.
  CryptoCost crypto_cost;
  std::uint64_t wire_bytes = 0, wire_requests = 0;
  std::vector<ScenarioReport> baseline(specs.size()), modeled(specs.size());
  std::vector<double> modeled_latency;  // exact cycles, pooled over the instances
  std::vector<std::uint64_t> digest(specs.size());
  auto check = [&](std::size_t j, const RunResult& r) {
    attempted += r.jobs_attempted;
    failed += r.jobs_attempted - std::min(r.jobs_attempted, r.jobs_completed);
    for (const workload::ClassReport& c : r.report.classes) failed += c.auth_failures;
    const bool counts_only = r.server_frames > 0;
    if (const std::string d = diff_reports(baseline[j], r.report, counts_only); !d.empty())
      problem(std::string(r.traced ? "traced" : "untraced") + " run of seed " +
              std::to_string(specs[j].seed) + " differs from the " +
              (trace ? "runner" : "checked run") + ": " + d);
    if (output_digest(r.outputs) != digest[j]) {
      ++failed;
      problem("outputs of seed " + std::to_string(specs[j].seed) + " differ from the checked run");
    }
  };
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const RunResult first = drive(specs[j], false);
    const OracleResult oracle = check_outputs(replay_expected(specs[j], crypto_cost), first.outputs);
    failed += oracle.mismatched;
    if (oracle.mismatched > 0)
      problem("seed " + std::to_string(specs[j].seed) + " oracle: " + oracle.first_mismatch);
    digest[j] = output_digest(first.outputs);
    if (def->net) add_wire_bytes(specs[j], first, wire_bytes, wire_requests);
    // Modeled figures come from an in-process run (tenant_net: its twin).
    const RunResult twin = def->net ? run_inproc(specs[j], false, inject) : RunResult{};
    const RunResult& inproc = def->net ? twin : first;
    modeled[j] = inproc.report;
    modeled_latency.insert(modeled_latency.end(), inproc.latency_cycles.begin(),
                           inproc.latency_cycles.end());
    baseline[j] = trace ? workload::ScenarioRunner(specs[j]).run() : first.report;
    if (const std::string d = diff_reports(baseline[j], modeled[j], def->net && !trace);
        !d.empty())
      problem("in-process run of seed " + std::to_string(specs[j].seed) + " differs: " + d);
    check(j, first);
  }

  // Measured rounds: every timed instance once per round, untraced (and
  // traced, interleaved, with --trace 1); only whole rounds count.
  std::vector<Sample> plain, traced, traced_inproc;
  // Each instance's fastest untraced run and set-up: other tenants of a
  // shared host only ever slow a run down, by up to a half for seconds to
  // minutes at a time, so an instance's fastest run follows the program and
  // a median would follow the neighbours.
  std::vector<double> best_run_s(def->timed, HUGE_VAL), best_setup_s(def->timed, HUGE_VAL);
  std::uint64_t round_jobs = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline || plain.size() < 3) {
    Round p, t, ti;
    for (std::size_t j = 0; j < def->timed; ++j) {
      RunResult r = drive(specs[j], false);
      check(j, r);
      best_run_s[j] = std::min(best_run_s[j], r.run_s);
      best_setup_s[j] = std::min(best_setup_s[j], r.setup_s);
      p.add(r);
      if (!trace) continue;
      RunResult rt = drive(specs[j], true);
      check(j, rt);
      t.add(rt);
      if (def->net) {  // host/device layers of the same scenario, in process
        RunResult rti = run_inproc(specs[j], true, inject);
        check(j, rti);
        ti.add(rti);
      }
    }
    round_jobs = p.jobs;
    plain.push_back(sample_of(p));
    if (trace) traced.push_back(sample_of(t));
    if (def->net && trace) traced_inproc.push_back(sample_of(ti));
  }

  auto med = [](const std::vector<Sample>& v, auto field) {
    std::vector<double> xs;
    for (const Sample& s : v) xs.push_back(field(s));
    return median(xs);
  };
  auto med_layer = [&med](const std::vector<Sample>& v, const std::string& key) {
    return med(v, [&key](const Sample& s) {
      auto it = s.layers.find(key);
      return it == s.layers.end() ? 0.0 : it->second;
    });
  };

  // (name, value, unit), printed with every digit at the end.
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  auto put = [&metrics](const std::string& key, double value, const char* unit) {
    metrics.emplace_back(key, std::isfinite(value) ? value : 0.0, unit);
  };
  // Modeled figures pooled over the instances (deterministic per seed).
  ScenarioReport pooled;
  for (const ScenarioReport& r : modeled) {
    pooled.makespan_cycles += r.makespan_cycles;
    pooled.reconfigurations += r.reconfigurations;
    pooled.reconfig_stall_cycles += r.reconfig_stall_cycles;
    pooled.classes.insert(pooled.classes.end(), r.classes.begin(), r.classes.end());
  }
  if (!trace) {
    double best_round_s = 0.0;
    for (double run_s : best_run_s) best_round_s += run_s;
    put("setup_s", median(best_setup_s), "s");
    put("pkts_per_s", static_cast<double>(round_jobs) / best_round_s, "1/s");
    put("modeled_mbps", modeled_mbps(pooled), "Mbps");
    put("modeled_p99_us", cycles_to_us(quantile(modeled_latency, 0.99)), "us");
    put("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Host request latency swings by up to 3x between runs on a shared
    // host (thread wake-ups and preemption), more than a regression bound
    // can absorb, so it is reported here: the untraced rounds' fast
    // quartile (a p99 needs a whole round's samples, not one instance's).
    auto fast_quartile = [&plain](auto field) {
      std::vector<double> xs;
      for (const Sample& s : plain) xs.push_back(field(s));
      return quantile(xs, 0.25);
    };
    put("req_p50_us", fast_quartile([](const Sample& s) { return s.req_p50_us; }), "us");
    put("req_p99_us", fast_quartile([](const Sample& s) { return s.req_p99_us; }), "us");
    // Layers of the workload's own driver; for tenant_net the Engine and
    // device layers come from the in-process twin runs.
    const std::vector<Sample>& host_src = def->net ? traced_inproc : traced;
    put("workload.gen_ns_per_pkt", med_layer(traced, "workload.gen_ns_per_pkt"), "ns");
    put("workload.callback_ns_per_pkt", med_layer(traced, "workload.callback_ns_per_pkt"), "ns");
    put("workload.plan_ms", med(plain, [](const Sample& s) { return s.plan_ms; }), "ms");
    std::uint64_t offered = 0, submitted = 0, throttled = 0, shed = 0;
    for (const workload::ClassReport& c : pooled.classes) {
      offered += c.offered;
      submitted += c.submitted;
      throttled += c.throttled;
      shed += c.shed;
    }
    put("qos.accept_frac", offered == 0 ? 0.0 : static_cast<double>(submitted) / offered, "ratio");
    put("qos.throttled", static_cast<double>(throttled), "count");
    put("qos.shed", static_cast<double>(shed), "count");
    put("qos.quota_holds", med_layer(host_src, "qos.quota_holds"), "count");
    for (const char* k : {"host.submit_ns_per_pkt", "host.step_self_ns_per_pkt",
                          "device.step_ns_per_pkt", "device.submit_ns_per_pkt",
                          "device.poll_ns_per_pkt", "device.path_ns_per_pkt",
                          "device.ns_per_cycle"})
      put(k, med_layer(host_src, k), "ns");
    for (const char* k : {"host.steps_per_pkt", "host.device_rounds_per_pkt",
                          "host.busy_rejections_per_pkt", "device.calls_per_pkt"})
      put(k, med_layer(host_src, k), "count");
    put("host.useful_frac", med_layer(host_src, "host.useful_frac"), "ratio");
    for (const char* k : {"device.queue_wait_p50_cycles", "device.service_p50_cycles"})
      put(k, med_layer(host_src, k), "cycles");
    put("reconfig.swaps", static_cast<double>(pooled.reconfigurations), "count");
    put("reconfig.stall_cycles", static_cast<double>(pooled.reconfig_stall_cycles), "cycles");

    std::uint64_t cns = 0, ccalls = 0, cbytes = 0;
    static const char* const kModes[] = {"gcm", "ccm", "ctr", "cbc_mac", "whirlpool"};
    for (std::size_t m = 0; m < CryptoCost::kModes; ++m) {
      cns += crypto_cost.ns[m];
      ccalls += crypto_cost.calls[m];
      cbytes += crypto_cost.bytes[m];
      put(std::string("crypto.") + kModes[m] + "_ns_per_pkt",
          crypto_cost.calls[m] == 0
              ? 0.0
              : static_cast<double>(crypto_cost.ns[m]) / static_cast<double>(crypto_cost.calls[m]),
          "ns");
    }
    put("crypto.ns_per_pkt", ccalls == 0 ? 0.0 : static_cast<double>(cns) / ccalls, "ns");
    put("crypto.mb_per_s", cns == 0 ? 0.0 : static_cast<double>(cbytes) * 1e3 / cns, "MB/s");

    put("net.send_ns_per_req", med_layer(traced, "net.send_ns_per_req"), "ns");
    put("net.poll_ns_per_req", med_layer(traced, "net.poll_ns_per_req"), "ns");
    put("net.idle_wait_frac", med_layer(traced, "net.idle_wait_frac"), "ratio");
    put("net.frames_per_req", med_layer(traced, "net.frames_per_req"), "count");
    put("net.bytes_per_req",
        wire_requests == 0 ? 0.0 : static_cast<double>(wire_bytes) / wire_requests, "B");

    const double wall_traced = med(traced, [](const Sample& s) { return s.wall_ns_per_pkt; });
    const double wall_plain = med(plain, [](const Sample& s) { return s.wall_ns_per_pkt; });
    put("other_ns_per_pkt", med_layer(traced, "other_ns_per_pkt"), "ns");
    put("wall_ns_per_pkt", wall_traced, "ns");
    put("trace_overhead_frac", (wall_traced - wall_plain) / wall_plain, "ratio");
    put("fail_frac", attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted, "ratio");

    // Fidelity: the same instances on the cycle-accurate backend.
    double fid_makespan = 0, fid_swaps = 0, fid_p99 = 0;
    if (def->fidelity) {
      ScenarioReport sim;
      for (ScenarioSpec spec : specs) {
        spec.backend = host::Backend::kSim;
        spec.threads = 0;
        const ScenarioReport r = workload::ScenarioRunner(spec).run();
        sim.makespan_cycles += r.makespan_cycles;
        sim.reconfigurations += r.reconfigurations;
        sim.classes.insert(sim.classes.end(), r.classes.begin(), r.classes.end());
      }
      fid_makespan = rel_err(static_cast<double>(pooled.makespan_cycles),
                             static_cast<double>(sim.makespan_cycles));
      fid_swaps = rel_err(static_cast<double>(pooled.reconfigurations),
                          static_cast<double>(sim.reconfigurations));
      fid_p99 = rel_err(static_cast<double>(merged(pooled, false).quantile(0.99)),
                        static_cast<double>(merged(sim, false).quantile(0.99)));
    }
    put("fidelity_makespan_err", fid_makespan, "ratio");
    put("fidelity_swaps_err", fid_swaps, "ratio");
    put("fidelity_p99_err", fid_p99, "ratio");

    std::vector<Sample> by_wall = traced;
    std::sort(by_wall.begin(), by_wall.end(), [](const Sample& a, const Sample& b) {
      return a.wall_ns_per_pkt < b.wall_ns_per_pkt;
    });
    print_ledger(def->name, by_wall[by_wall.size() / 2]);
  }

  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  const bool correct = problems.empty() && failed == 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [key, value, unit] = metrics[i];
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", value);
    line += (i ? ", " : "") + JsonWriter::quote(key) + ": {\"value\": " + num +
            ", \"unit\": " + JsonWriter::quote(unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mccp_perfbench: %s\n", e.what());
    return 1;
  }
}
