#pragma once

/// \file socket.hpp
/// The one wire layer under every pipeopt tier: the listener that server
/// and router accept on, the connect that router relays, health probes
/// and the CLI client dial with, and the peer probe that watches a client
/// while its answer is computed elsewhere. Framing on top of these fds is
/// util/fdio.hpp; fault injection hooks in through net/fault.hpp.
///
/// Every fd this module opens is close-on-exec (the router forks shard
/// children while sessions run), and every connection it makes or accepts
/// is TCP_NODELAY (one write per line, and streamed multi-line answers, so
/// Nagle would hold each next line for the peer's delayed ACK). SIGPIPE is
/// ignored process-wide the first time a socket is made, so a vanished
/// peer surfaces as a write error on every path instead of killing the
/// process.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.hpp"

namespace pipeopt::net {

/// listen(2) queue depth of every listener: the kernel's cap.
inline constexpr int kBacklog = SOMAXCONN;

/// Ignores SIGPIPE for the whole process; idempotent.
void ignore_sigpipe();

/// Blocking TCP connect to host:port (IPv4 literal). A positive `timeout`
/// also arms SO_RCVTIMEO/SO_SNDTIMEO on the socket and bounds a connect
/// that a signal interrupted; zero means no timeouts. Returns the fd, or
/// -1 with errno describing why (ECONNREFUSED, EINVAL for a bad address).
[[nodiscard]] int connect(const std::string& host, std::uint16_t port,
                          std::chrono::milliseconds timeout = {});

/// One non-blocking look at a connection whose answer is pending:
/// Gone = orderly EOF, reset or hang-up; Busy = input is waiting (the peer
/// is pipelining, so it is alive — stop probing, the bytes are a request);
/// Idle = nothing to see.
enum class Peer { Idle, Busy, Gone };
[[nodiscard]] Peer probe_peer(int fd);

/// A TCP listener that runs one thread per accepted session and drains
/// them on stop(): close the listener (late connects are refused, not
/// parked), half-close every session so its next read sees EOF, join.
class Listener {
 public:
  /// Runs on the session's own thread; the listener closes `fd` after it
  /// returns.
  using Session = std::function<void(int fd)>;

  /// `who` prefixes error messages ("pipeopt-server").
  explicit Listener(std::string who);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens once; returns the bound port (the ephemeral one
  /// for port 0). \throws std::runtime_error when the address is bad or
  /// taken.
  std::uint16_t bind(const std::string& host, std::uint16_t port);
  [[nodiscard]] bool bound() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept loop until stop(), then the drain; every session is joined
  /// when it returns. With `fault`, each accept draws accept_should_close()
  /// exactly once and a hit closes the connection before a byte moves.
  void run(const Session& session, FaultInjector* fault);

  /// Ends run(). Thread-safe, idempotent, returns immediately.
  void stop();
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Routes SIGINT/SIGTERM to this listener's stop() (one per process;
  /// the last call wins).
  void route_signals();

 private:
  struct Live {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  /// Joins sessions that have finished; `all` joins the rest.
  void reap(bool all);

  std::string who_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_[2] = {-1, -1};  ///< stop()/signal wakeup for the accept poll
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Live>> sessions_;
};

}  // namespace pipeopt::net
