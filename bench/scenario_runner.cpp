// scenario_runner: execute a declarative workload scenario and report
// per-class latency/throughput/rejection metrics.
//
// Loads a JSON scenario spec (shipped presets under scenarios/), drives
// the fleet closed-loop on the chosen backend, prints a per-class table,
// and optionally emits the full report (log-bucketed latency percentiles,
// queue-depth-over-time series) as a BENCH_*.json perf-trajectory
// artifact. Two transports run the same spec: the in-process
// workload::ScenarioRunner, or a client swarm replaying the scenario
// against the networked crypto-offload service (net::SwarmRunner) — with
// blocking admission the per-class completion counts come out identical.
//
// Flags:
//   --scenario PATH   scenario spec to run (required)
//   --transport NAME  inproc (default) | net: replay through a client
//                     swarm against the offload service
//   --connect H:P     net transport: an already-running net_server to use
//                     (default: self-host a loopback server for the run)
//   --clients N       net transport: concurrent client connections (8)
//   --backend NAME    override the spec's backend: sim | fast
//   --scale F         multiply every class's packet count by F (e.g. 0.05
//                     to shrink a fleet-scale scenario for the
//                     cycle-accurate simulator)
//   --window N        override the spec's in-flight window
//   --seed N          override the spec's seed
//   --threads N       override the spec's engine worker threads stepping
//                     simulated devices (0 = step the fleet serially on
//                     this thread; FastDevices always step here)
//   --kernel K        force a crypto kernel tier (portable|auto|aesni|
//                     vaes); the dispatched tier lands in the report JSON
//                     and trajectory records
//   --json PATH       write the report artifact (with --json and no PATH
//                     that looks like a file, BENCH_scenario_<name>.json)
//   --append-trajectory FILE
//                     append one compact JSONL record (UTC stamp, wall
//                     clock, modeled throughput, p99) to FILE — the
//                     across-PRs perf trajectory (BENCH_trajectory.jsonl)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "net_common.h"
#include "net/swarm.h"
#include "workload/jobgen.h"
#include "workload/runner.h"

namespace mccp::bench {
namespace {

int run(int argc, char** argv) {
  const char* scenario_path = arg_value(argc, argv, "--scenario");
  if (scenario_path == nullptr) {
    std::fprintf(stderr,
                 "usage: scenario_runner --scenario PATH [--transport inproc|net]\n"
                 "                       [--connect HOST:PORT] [--clients N]\n"
                 "                       [--backend sim|fast] [--scale F] [--window N]\n"
                 "                       [--seed N] [--threads N] [--kernel TIER]\n"
                 "                       [--json PATH] [--append-trajectory FILE]\n");
    return 2;
  }

  mccp::workload::ScenarioSpec spec = mccp::workload::load_scenario(scenario_path);
  if (const char* backend = arg_value(argc, argv, "--backend"))
    spec.backend = mccp::workload::backend_from_name(backend);
  if (const char* scale_str = arg_value(argc, argv, "--scale")) {
    double scale = std::strtod(scale_str, nullptr);
    if (!(scale > 0.0)) throw std::runtime_error("scenario_runner: --scale must be > 0");
    for (auto& cs : spec.classes)
      if (cs.packets != 0)
        cs.packets = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(static_cast<double>(cs.packets) * scale)));
  }
  spec.window = arg_size(argc, argv, "--window", spec.window);
  if (const char* seed = arg_value(argc, argv, "--seed"))
    spec.seed = std::strtoull(seed, nullptr, 10);
  spec.threads = arg_size(argc, argv, "--threads", spec.threads);
  apply_kernel_flag(argc, argv);

  const std::string transport = [&] {
    const char* t = arg_value(argc, argv, "--transport");
    return std::string(t != nullptr ? t : "inproc");
  }();

  mccp::workload::ScenarioReport report;
  std::string transport_note;
  if (transport == "inproc") {
    mccp::workload::ScenarioRunner runner(std::move(spec));
    report = runner.run();
  } else if (transport == "net") {
    if (!spec.faults.empty() || spec.autoscale.enabled)
      throw std::runtime_error(
          "scenario \"" + spec.name +
          "\" scripts fleet membership events (faults/autoscale), which only the "
          "inproc transport can execute — drop --transport net or the events");
    mccp::net::SwarmConfig net;
    net.connections = arg_size(argc, argv, "--clients", net.connections);
    std::unique_ptr<SelfHostedServer> self_hosted;
    if (const char* connect = arg_value(argc, argv, "--connect")) {
      auto [host, port] = parse_hostport(connect);
      net.host = host;
      net.port = port;
    } else {
      mccp::net::ServerConfig server_cfg;
      server_cfg.engine = mccp::workload::engine_config_from(spec);
      self_hosted = std::make_unique<SelfHostedServer>(std::move(server_cfg));
      net.port = self_hosted->port();
    }
    transport_note = ", net swarm x" + std::to_string(net.connections);
    mccp::net::SwarmRunner runner(std::move(spec), std::move(net));
    report = runner.run();
  } else {
    std::fprintf(stderr, "scenario_runner: unknown --transport \"%s\" (inproc | net)\n",
                 transport.c_str());
    return 2;
  }
  print_scenario_report(report, transport_note);

  // `--json` with or without a path argument (the next token may be
  // another flag): default to BENCH_scenario_<name>.json.
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
      json_path = argv[i + 1];
    else
      json_path = "BENCH_scenario_" + report.scenario + ".json";
  }
  if (!json_path.empty()) {
    if (!JsonWriter::write_text_file(json_path, mccp::workload::report_json(report))) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (const char* traj = arg_value(argc, argv, "--append-trajectory")) {
    if (!mccp::workload::append_trajectory(traj,
                                           mccp::workload::trajectory_line(report, transport))) {
      std::fprintf(stderr, "scenario_runner: cannot append to %s\n", traj);
      return 1;
    }
    std::printf("appended trajectory record to %s\n", traj);
  }
  return 0;
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  try {
    return mccp::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  }
}
