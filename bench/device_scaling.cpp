// Fleet scaling: aggregate throughput vs number of MCCP devices behind one
// host::Engine.
//
// The paper scales the MCCP by the number of crypto-cores; the host driver
// scales the platform by the number of MCCPs. Each device has its own Task
// Scheduler, Key Scheduler and crossbar, so — unlike adding cores to one
// MCCP, where the shared control port eventually saturates (see the
// core_scaling section of bench/paper_figures) — devices multiply
// near-linearly. This bench sweeps the fleet size at fixed per-device
// shape (the paper's 4-core MCCP) and offered load per device, for GCM and
// for split-CCM traffic, and compares the placement policies under a
// skewed channel mix.
//
// `--threads N` steps each swept fleet with N engine worker threads
// (default 0 = serial): device clocks and results are bit-identical either
// way, so the table's cycle-accounted Mbps figures do not move — the flag
// smokes the threaded engine across fleet shapes and buys host wall-clock
// on multi-core machines.
#include "bench_common.h"

namespace mccp::bench {
namespace {

void sweep(host::ChannelMode mode, top::CcmMapping mapping, const char* label,
           std::size_t threads) {
  print_header(std::string("Fleet scaling -- ") + label +
               ", 4-core devices, 8 x 2 KB packets per device" +
               (threads > 0 ? ", " + std::to_string(threads) + " worker thread(s)" : ""));
  std::printf("%-9s %-16s %-18s %-14s\n", "devices", "aggregate Mbps", "mean latency (us)",
              "scaling");
  double base = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    auto m = measure_engine({.num_devices = n, .device = {.num_cores = 4, .ccm_mapping = mapping},
                             .num_workers = threads},
                            mode, 16, 2048, 8 * n, 16, mode == host::ChannelMode::kCcm ? 13u : 12u);
    if (n == 1) base = m.aggregate_mbps;
    std::printf("%-9zu %-16.1f %-18.1f %.2fx\n", n, m.aggregate_mbps,
                m.mean_latency_cycles / kMHz, m.aggregate_mbps / base);
  }
}

void placement_comparison() {
  print_header("Placement policy under a skewed mix (4 devices, 12 channels, 36 packets)");
  std::printf("%-14s %-16s %-18s %-22s\n", "policy", "aggregate Mbps", "mean latency (us)",
              "busiest/idlest device");

  for (auto [policy, name] : {std::pair{host::Placement::kRoundRobin, "round-robin"},
                              {host::Placement::kLeastLoaded, "least-loaded"},
                              {host::Placement::kModeAffinity, "mode-affinity"}}) {
    host::Engine engine({.num_devices = 4, .device = {.num_cores = 4}, .placement = policy});
    Rng rng(77);
    engine.provision_key(1, rng.bytes(16));

    // Skew: 8 GCM channels, 3 CCM, 1 CTR — round-robin spreads blindly,
    // least-loaded balances, mode-affinity clusters each mode.
    std::vector<host::Channel> channels;
    for (int i = 0; i < 8; ++i) channels.push_back(engine.open_channel(host::ChannelMode::kGcm, 1, 16, 12));
    for (int i = 0; i < 3; ++i) channels.push_back(engine.open_channel(host::ChannelMode::kCcm, 1, 8, 13));
    channels.push_back(engine.open_channel(host::ChannelMode::kCtr, 1));

    std::vector<host::Completion> jobs;
    sim::Cycle start = engine.max_cycle();
    std::uint64_t bytes = 0;
    for (int round = 0; round < 3; ++round)
      for (auto& ch : channels) {
        Bytes iv = make_iv(rng, ch.mode(), 13);
        Bytes payload = rng.bytes(2048);
        bytes += payload.size();
        jobs.push_back(engine.submit_encrypt(ch, std::move(iv), {}, std::move(payload)));
      }
    engine.wait_all();
    sim::Cycle makespan = engine.max_cycle() - start;

    double lat = 0;
    for (auto& j : jobs)
      lat += static_cast<double>(j.result().complete_cycle - j.result().accept_cycle);

    std::uint64_t busiest = 0, idlest = ~0ull;
    for (std::size_t d = 0; d < engine.num_devices(); ++d) {
      auto* dev = engine.sim_device(d);
      std::uint64_t done = dev->mccp().requests_completed();
      busiest = std::max(busiest, done);
      idlest = std::min(idlest, done);
    }
    std::printf("%-14s %-16.1f %-18.1f %llu / %llu requests\n", name,
                mbps_from_cycles(bytes * 8, makespan),
                lat / static_cast<double>(jobs.size()) / kMHz,
                static_cast<unsigned long long>(busiest),
                static_cast<unsigned long long>(idlest));
  }
}

void run(std::size_t threads) {
  sweep(host::ChannelMode::kGcm, top::CcmMapping::kSingleCore, "AES-128-GCM", threads);
  sweep(host::ChannelMode::kCcm, top::CcmMapping::kPairPreferred, "AES-128-CCM 2x2", threads);
  placement_comparison();
  std::printf("\nEach device is an independent clock domain with its own control port;\n"
              "the host driver multiplexes completions, so fleet throughput scales with\n"
              "device count while per-packet latency stays at the single-device figure.\n");
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  mccp::bench::run(mccp::bench::arg_size(argc, argv, "--threads", 0));
  return 0;
}
