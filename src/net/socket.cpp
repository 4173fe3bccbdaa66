#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace pipeopt::net {

namespace {

#ifdef POLLRDHUP
constexpr short kHupEvents = POLLRDHUP | POLLHUP | POLLERR;
#else
constexpr short kHupEvents = POLLHUP | POLLERR;
#endif

/// Signal handlers may only touch async-signal-safe state: they write one
/// byte into the routed listener's wake pipe and the accept loop stops.
std::atomic<int> g_signal_wake_fd{-1};

void signal_to_pipe(int) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

bool parse_address(const std::string& host, std::uint16_t port,
                   sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

/// Closes `fd` without clobbering errno; returns -1 for the caller.
int fail(int fd) {
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return -1;
}

}  // namespace

void ignore_sigpipe() {
  static const bool ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
}

int connect(const std::string& host, std::uint16_t port,
            std::chrono::milliseconds timeout) {
  ignore_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (timeout.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  sockaddr_in addr;
  if (!parse_address(host, port, addr)) {
    errno = EINVAL;
    return fail(fd);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    return fd;
  }
  if (errno != EINTR) return fail(fd);
  // An interrupted blocking connect keeps completing in the background;
  // retrying connect() would yield EALREADY. Wait for writability and read
  // the real outcome from SO_ERROR.
  pollfd waiter{fd, POLLOUT, 0};
  for (;;) {
    const int ready =
        ::poll(&waiter, 1,
               timeout.count() > 0 ? static_cast<int>(timeout.count()) : -1);
    if (ready > 0) break;
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) errno = ETIMEDOUT;
    return fail(fd);
  }
  int error = 0;
  socklen_t error_len = sizeof error;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0) {
    return fail(fd);
  }
  if (error != 0) {
    errno = error;
    return fail(fd);
  }
  return fd;
}

Peer probe_peer(int fd) {
  pollfd probe{fd, static_cast<short>(POLLIN | kHupEvents), 0};
  if (::poll(&probe, 1, 0) <= 0) return Peer::Idle;
  if (probe.revents & POLLIN) {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return Peer::Gone;
    if (n > 0) return Peer::Busy;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Peer::Gone;
    }
    return Peer::Idle;
  }
  if (probe.revents & kHupEvents) return Peer::Gone;
  return Peer::Idle;
}

Listener::Listener(std::string who) : who_(std::move(who)) {
  ignore_sigpipe();
  if (::pipe2(wake_, O_CLOEXEC) != 0) {
    throw std::runtime_error(who_ + ": cannot create wake pipe");
  }
}

Listener::~Listener() {
  stop();
  reap(/*all=*/true);
  int routed = wake_[1];
  g_signal_wake_fd.compare_exchange_strong(routed, -1);
  if (fd_ >= 0) ::close(fd_);
  ::close(wake_[0]);
  ::close(wake_[1]);
}

std::uint16_t Listener::bind(const std::string& host, std::uint16_t port) {
  if (fd_ >= 0) return port_;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(who_ + ": socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  if (!parse_address(host, port, addr)) {
    ::close(fd);
    throw std::runtime_error(who_ + ": bad listen address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, kBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(who_ + ": cannot listen on " + host + ":" +
                             std::to_string(port) + ": " + reason);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error(who_ + ": getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = fd;
  return port_;
}

void Listener::run(const Session& session, FaultInjector* fault) {
  while (!stopping()) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() or a signal woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    if (fault != nullptr && fault->accept_should_close()) {
      // Injected accept-then-close: the peer sees its connection die
      // before a byte moves — the request provably never executed, so a
      // retrying client is always safe.
      ::close(client);
      continue;
    }
    auto live = std::make_unique<Live>();
    Live* raw = live.get();
    raw->fd = client;
    raw->thread = std::thread([this, session, raw] {
      session(raw->fd);
      // The drain half-closes fds it reads under the same lock, so the
      // close (and the -1 that retires the fd) must not race with it.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ::close(raw->fd);
        raw->fd = -1;
      }
      raw->done.store(true, std::memory_order_release);
    });
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      sessions_.push_back(std::move(live));
    }
    reap(/*all=*/false);
  }
  stopping_.store(true, std::memory_order_relaxed);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& live : sessions_) {
      if (live->fd >= 0) ::shutdown(live->fd, SHUT_RD);
    }
  }
  reap(/*all=*/true);
}

void Listener::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
}

void Listener::route_signals() {
  g_signal_wake_fd.store(wake_[1], std::memory_order_relaxed);
  struct sigaction action{};
  action.sa_handler = signal_to_pipe;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void Listener::reap(bool all) {
  std::vector<std::unique_ptr<Live>> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& live : finished) {
    if (live->thread.joinable()) live->thread.join();
  }
}

}  // namespace pipeopt::net
