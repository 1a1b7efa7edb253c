// net_server: stand up the networked crypto-offload service.
//
// Builds the fleet a scenario file describes (devices x cores, backend,
// slot personalities) — or a default one-device fast fleet — binds the
// MCCP/1 TCP endpoint, prints the listening port, and serves until
// SIGINT/SIGTERM. Pair with `scenario_runner --transport net --connect`
// on the other side.
//
// Flags:
//   --scenario PATH   fleet shape from this scenario spec (classes are
//                     ignored; clients bring their own workload)
//   --backend NAME    override the backend: sim | fast
//   --devices N       override the fleet's device count
//   --cores N         override cores per device
//   --threads N       engine worker threads stepping the fleet
//   --port N          TCP port (default 0 = ephemeral, printed on stdout)
//   --bind ADDR       bind address (default 127.0.0.1)
#include <csignal>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "net/server.h"
#include "workload/jobgen.h"
#include "workload/spec.h"

namespace mccp::bench {
namespace {

mccp::net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int run(int argc, char** argv) {
  mccp::net::ServerConfig cfg;
  if (const char* scenario_path = arg_value(argc, argv, "--scenario")) {
    mccp::workload::ScenarioSpec spec = mccp::workload::load_scenario(scenario_path);
    cfg.engine = mccp::workload::engine_config_from(spec);
  } else {
    cfg.engine.backend = host::Backend::kFast;
  }
  if (const char* backend = arg_value(argc, argv, "--backend"))
    cfg.engine.backend = mccp::workload::backend_from_name(backend);
  cfg.engine.num_devices = arg_size(argc, argv, "--devices", cfg.engine.num_devices);
  cfg.engine.device.num_cores = arg_size(argc, argv, "--cores", cfg.engine.device.num_cores);
  cfg.engine.num_workers = arg_size(argc, argv, "--threads", cfg.engine.num_workers);
  cfg.port = static_cast<std::uint16_t>(arg_size(argc, argv, "--port", 0));
  if (const char* bind = arg_value(argc, argv, "--bind")) cfg.bind_address = bind;

  const std::string bind_address = cfg.bind_address;
  const std::string backend = mccp::workload::backend_name(cfg.engine.backend);
  const std::size_t devices = cfg.engine.num_devices;

  mccp::net::Server server(std::move(cfg));
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("net_server: listening on %s:%u (%s backend, %zu device(s))\n",
              bind_address.c_str(), server.port(), backend.c_str(), devices);
  std::fflush(stdout);

  server.run();

  std::printf("net_server: stopped (%llu session(s) served, %llu frame(s), %llu completion(s))\n",
              static_cast<unsigned long long>(server.sessions_accepted()),
              static_cast<unsigned long long>(server.frames_received()),
              static_cast<unsigned long long>(server.completions_sent()));
  g_server = nullptr;
  return 0;
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  try {
    return mccp::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_server: %s\n", e.what());
    return 1;
  }
}
