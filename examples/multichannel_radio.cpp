// Multi-channel, multi-standard secure SDR scenario — the workload the
// paper's introduction motivates: one radio terminal concurrently serving
// a WiFi-style CCM link, a GCM video link, a latency-sensitive CTR voice
// stream and an authentication-only telemetry stream, all through one
// 4-core MCCP behind the asynchronous host driver. The traffic comes from
// the same workload presets and job streams the scenario runner uses.
//
//   $ ./build/examples/multichannel_radio
#include <cstdio>
#include <vector>

#include "host/engine.h"
#include "workload/jobgen.h"

using namespace mccp;

int main() {
  host::Engine engine(
      {.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore}});
  constexpr std::uint64_t kSeed = 99;
  constexpr std::size_t kPacketsPerClass = 10;

  std::vector<workload::ClassSpec> classes;
  for (const char* name : {"bulk", "video", "voip", "control"})
    classes.push_back({.profile = workload::preset_class(name), .packets = kPacketsPerClass});

  std::vector<host::Channel> channels;
  std::vector<workload::ClassJobStream> streams;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const workload::ChannelClass& p = classes[i].profile;
    auto key_id = static_cast<top::KeyId>(i + 1);
    engine.provision_key(key_id, workload::class_key(kSeed, i, p.key_len));
    auto ch = engine.open_channel(p.mode, key_id, p.tag_len, p.nonce_len);
    if (!ch) {
      std::printf("failed to open %s\n", p.name.c_str());
      return 1;
    }
    std::printf("opened %-8s %-8s (channel %u, key %u, %zu-bit AES)\n", p.name.c_str(),
                workload::mode_name(p.mode), ch.id(), key_id, p.key_len * 8);
    channels.push_back(std::move(ch));
    streams.emplace_back(classes[i], kSeed, i, /*max_cycles=*/0);
  }

  // 40 packets round-robin across the four standards, all in flight at
  // once (the streams' arrival instants are ignored); the driver
  // multiplexes them over the single control port.
  std::vector<host::Completion> jobs;
  bool failed = false;

  sim::Cycle start = engine.max_cycle();
  for (std::size_t n = 0; n < kPacketsPerClass; ++n) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      host::JobSpec spec = streams[i].take().job;
      auto job = engine.submit_encrypt(channels[i], std::move(spec.iv_or_nonce),
                                       std::move(spec.aad), std::move(spec.payload));
      job.on_done([&failed](const host::JobResult& r) {
        if (!r.complete || !r.auth_ok) failed = true;
      });
      jobs.push_back(std::move(job));
    }
  }
  engine.wait_all();
  sim::Cycle makespan = engine.max_cycle() - start;
  if (failed) {
    std::printf("a packet failed!\n");
    return 1;
  }

  std::uint64_t total_bytes = 0;
  for (const auto& ch : channels) total_bytes += ch.stats().payload_bytes;
  std::printf("\n%zu packets, makespan %.1f us at 190 MHz\n", jobs.size(),
              static_cast<double>(makespan) / 190.0);
  std::printf("aggregate goodput: %.1f Mbps\n\n",
              sim::throughput_mbps(total_bytes * 8, makespan));

  // Per-channel statistics come straight off the RAII handles now.
  std::printf("%-9s %-9s %-10s %-18s\n", "class", "packets", "kB", "mean latency (us)");
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const host::ChannelStats& s = channels[i].stats();
    std::printf("%-9s %-9llu %-10.1f %-18.1f\n", classes[i].profile.name.c_str(),
                static_cast<unsigned long long>(s.completed),
                static_cast<double>(s.payload_bytes) / 1024.0,
                s.mean_service_latency_cycles() / 190.0);
  }

  std::printf("\nper-core utilisation:\n");
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  for (std::size_t i = 0; i < mccp.num_cores(); ++i) {
    const auto& c = mccp.core(i);
    std::printf("  core %zu: %llu tasks, %llu busy cycles, %llu AES blocks\n", i,
                static_cast<unsigned long long>(c.tasks_completed()),
                static_cast<unsigned long long>(c.busy_cycles()),
                static_cast<unsigned long long>(c.unit().aes_blocks()));
  }
  return 0;
}
