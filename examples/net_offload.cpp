// Networked crypto-offload in a nutshell: stand up the service on a
// loopback port, connect a net::Client, and drive the fleet over the wire
// with the same provision/open/submit flow the in-process engine exposes.
// Results come back through the client's per-job completion callback.
//
// Deterministic and self-checking (exits non-zero on any mismatch); runs
// as a ctest smoke like every example.
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "host/engine.h"
#include "net/client.h"
#include "net/server.h"

using namespace mccp;

int main() {
  // A one-device fast-backend fleet behind a TCP endpoint. The server
  // owns the engine and its event loop; we run it on a background thread
  // and talk to it like any remote client would.
  net::ServerConfig server_cfg;
  server_cfg.engine.backend = host::Backend::kFast;
  server_cfg.engine.device.num_cores = 4;
  net::Server server(server_cfg);
  std::thread server_thread([&server] { server.run(); });

  int failures = 0;
  {
    net::ClientConfig client_cfg;
    client_cfg.port = server.port();
    client_cfg.name = "net_offload_example";
    net::Client client(client_cfg);

    std::printf("connected: server \"%s\", protocol v%u, %u device(s) x %u cores\n",
                client.welcome().server_name.c_str(), client.welcome().version,
                client.welcome().devices, client.welcome().cores_per_device);

    // Same main-controller flow as in-process: provision a session key,
    // open a channel, submit.
    client.provision_key(1, Bytes(16, 0x42));
    const net::OpenOkFrame gcm =
        client.open_channel(static_cast<std::uint8_t>(top::ChannelMode::kGcm), 1, 16, 12);
    std::printf("opened AES-GCM channel %u on device %u\n", gcm.channel, gcm.device_index);

    // Job ids are ours to choose, from net::kMinJobId up (the Client
    // rejects smaller ones, which could shadow a control request id).
    std::uint64_t next_job = net::kMinJobId;
    // Submit one job and pump the socket until its completion arrives.
    auto run = [&](bool decrypt, const Bytes& iv, const Bytes& aad, Bytes payload, Bytes tag) {
      net::SubmitJob job;
      job.job_id = next_job++;
      job.decrypt = decrypt;
      job.iv = iv;
      job.aad = aad;
      job.payload = std::move(payload);
      job.tag = std::move(tag);
      net::CompletionFrame done;
      client.submit(gcm.channel, std::move(job), [&done](const net::CompletionFrame& c) { done = c; });
      client.drain();
      return done;
    };

    // Seal a packet, then round-trip it: decrypt what came back and check
    // the plaintext survives the wire in both directions.
    const Bytes iv(12, 0xA5);
    const Bytes aad = {0xDE, 0xAD, 0xBE, 0xEF};
    const Bytes plaintext(256, 0x5C);
    const net::CompletionFrame sealed = run(false, iv, aad, plaintext, {});
    if (!sealed.auth_ok || sealed.payload == plaintext) {
      std::printf("FAIL: seal did not produce ciphertext\n");
      ++failures;
    }

    const net::CompletionFrame opened = run(true, iv, aad, sealed.payload, sealed.tag);
    if (!opened.auth_ok || opened.payload != plaintext) {
      std::printf("FAIL: decrypt round-trip did not authenticate\n");
      ++failures;
    } else {
      std::printf("seal + open round-trip ok (%zu payload bytes, tag authenticated)\n",
                  plaintext.size());
    }

    // A tampered ciphertext must fail authentication — over the wire the
    // failure arrives as a completion with auth_ok = false, never a
    // corrupted payload.
    Bytes tampered = sealed.payload;
    tampered[0] ^= 0x01;
    if (run(true, iv, aad, tampered, sealed.tag).auth_ok) {
      std::printf("FAIL: tampered ciphertext authenticated\n");
      ++failures;
    } else {
      std::printf("tampered ciphertext rejected (auth_ok = false)\n");
    }

    // Batched submits amortize framing: one SUBMIT_BATCH, eight
    // completions through one shared callback.
    std::vector<net::SubmitJob> burst(8);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      burst[i].job_id = next_job++;
      burst[i].iv = Bytes(12, static_cast<std::uint8_t>(i));
      burst[i].payload = Bytes(64 + 16 * i, static_cast<std::uint8_t>(0x10 + i));
    }
    const std::size_t burst_size = burst.size();
    std::size_t done = 0;
    client.submit_batch(gcm.channel, std::move(burst), [&done](const net::CompletionFrame& c) {
      if (c.auth_ok) ++done;
    });
    client.drain();
    std::printf("burst of %zu sealed via SUBMIT_BATCH, %zu completed\n", burst_size, done);
    if (done != burst_size) ++failures;

    // Fleet stats over the wire: the engine-lifetime completion counter
    // covers everything this connection submitted.
    const net::StatsFrame stats = client.stats_snapshot();
    std::printf("server stats: %llu jobs completed, engine cycle %llu\n",
                static_cast<unsigned long long>(stats.completed_jobs),
                static_cast<unsigned long long>(stats.engine_cycle));
    if (stats.completed_jobs < 3 + burst_size) ++failures;

    client.close_channel(gcm.channel);
  }

  server.stop();
  server_thread.join();
  std::printf(failures == 0 ? "net_offload: OK\n" : "net_offload: %d FAILURE(S)\n", failures);
  return failures == 0 ? 0 : 1;
}
