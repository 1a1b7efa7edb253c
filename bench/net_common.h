// Shared plumbing for the networked-service benches (net_server,
// scenario_runner --transport net): self-hosting a loopback server on a
// background thread, and HOST:PORT parsing.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "net/server.h"

namespace mccp::bench {

/// Loopback crypto-offload server on its own thread; binds in the
/// constructor (so port() is immediately valid, ephemeral by default) and
/// stop()+joins on destruction. What --transport net and the swarm tests
/// use when no external --connect endpoint is given.
class SelfHostedServer {
 public:
  explicit SelfHostedServer(net::ServerConfig config) {
    server_ = std::make_unique<net::Server>(std::move(config));
    thread_ = std::thread([this] { server_->run(); });
  }
  SelfHostedServer(const SelfHostedServer&) = delete;
  SelfHostedServer& operator=(const SelfHostedServer&) = delete;
  ~SelfHostedServer() {
    server_->stop();
    thread_.join();
  }

  std::uint16_t port() const { return server_->port(); }
  net::Server& server() { return *server_; }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

/// "HOST:PORT" (e.g. "127.0.0.1:9471") -> {host, port}.
inline std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size())
    throw std::runtime_error("expected HOST:PORT, got \"" + s + "\"");
  const unsigned long port = std::stoul(s.substr(colon + 1));
  if (port == 0 || port > 65535)
    throw std::runtime_error("port out of range in \"" + s + "\"");
  return {s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

}  // namespace mccp::bench
