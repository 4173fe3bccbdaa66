/// net/socket.hpp: connect failures keep their errno, the peer probe's
/// three answers, the close-on-exec contract — every fd a server or a
/// router opens (listener, wake pipe, accepted sessions, relay and probe
/// connections) must not leak into a forked shard child — and the
/// TCP_NODELAY contract: every TCP connection either tier accepts or makes
/// sends each line at once instead of holding it for the peer's ACK.

#include "net/socket.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "gen/motivating_example.hpp"
#include "io/request_io.hpp"
#include "tests/router/fleet_harness.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt::net {
namespace {

std::set<int> open_fds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != ::dirfd(dir)) fds.insert(fd);
  }
  ::closedir(dir);
  return fds;
}

/// Fds opened since `before` that would survive an exec.
std::vector<int> inheritable_since(const std::set<int>& before) {
  std::vector<int> leaks;
  for (const int fd : open_fds()) {
    if (before.count(fd) != 0) continue;
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0 && (flags & FD_CLOEXEC) == 0) leaks.push_back(fd);
  }
  return leaks;
}

int socket_option(int fd, int level, int name) {
  int value = 0;
  socklen_t len = sizeof value;
  return ::getsockopt(fd, level, name, &value, &len) == 0 ? value : -1;
}

/// Connected TCP fds opened since `before` that still run Nagle's
/// algorithm (listening sockets carry no traffic and are skipped).
std::vector<int> nagled_since(const std::set<int>& before) {
  std::vector<int> nagled;
  for (const int fd : open_fds()) {
    if (before.count(fd) != 0) continue;
    if (socket_option(fd, SOL_SOCKET, SO_DOMAIN) != AF_INET ||
        socket_option(fd, SOL_SOCKET, SO_TYPE) != SOCK_STREAM ||
        socket_option(fd, SOL_SOCKET, SO_ACCEPTCONN) != 0) {
      continue;
    }
    if (socket_option(fd, IPPROTO_TCP, TCP_NODELAY) == 0) nagled.push_back(fd);
  }
  return nagled;
}

/// Sends one solve per grid instance and one pareto sweep, reading every
/// answer to its end: each tier has opened and used its connections.
void solve_and_sweep(testing_wire::WireClient& client) {
  for (const core::Problem& problem : testing_wire::table_grid(1)) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());
  }
  api::SweepRequest sweep;
  sweep.bounds = {1.0, 2.0, 14.0};
  client.send_line(
      io::format_pareto_request(gen::motivating_example(), sweep));
  for (;;) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    if (line->rfind(R"({"type":"pareto")", 0) == 0) break;
  }
}

TEST(Net, ConnectToAClosedPortIsRefusedWithErrno) {
  // A bound socket that never listens: the port stays ours, and connects
  // to it are refused.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  errno = 0;
  EXPECT_EQ(connect("127.0.0.1", ntohs(addr.sin_port)), -1);
  EXPECT_EQ(errno, ECONNREFUSED);
  ::close(holder);

  errno = 0;
  EXPECT_EQ(connect("not-an-address", 1), -1);
  EXPECT_EQ(errno, EINVAL);
}

TEST(Net, ProbePeerReportsIdleBusyAndGone) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(probe_peer(fds[0]), Peer::Idle);

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(probe_peer(fds[0]), Peer::Busy);
  EXPECT_EQ(probe_peer(fds[0]), Peer::Busy);  // a peek, not a read
  char byte;
  ASSERT_EQ(::read(fds[0], &byte, 1), 1);
  EXPECT_EQ(probe_peer(fds[0]), Peer::Idle);

  ::close(fds[1]);
  EXPECT_EQ(probe_peer(fds[0]), Peer::Gone);
  ::close(fds[0]);
}

TEST(Net, EveryServerFdIsCloseOnExec) {
  const std::set<int> before = open_fds();
  testing_wire::TestServer server(1);
  testing_wire::WireClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_line(R"({"type":"ping"})");
  ASSERT_TRUE(client.recv_line().has_value());  // the session is live
  EXPECT_EQ(inheritable_since(before), std::vector<int>{});
}

TEST(Net, EveryRouterFdIsCloseOnExec) {
  const std::set<int> before = open_fds();
  router::testing_fleet::TestFleet fleet(2);
  testing_wire::WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());
  for (const core::Problem& problem : testing_wire::table_grid(1)) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());  // relay connections open
  }
  EXPECT_EQ(inheritable_since(before), std::vector<int>{});
}

TEST(Net, EveryServerTcpFdHasNoDelay) {
  const std::set<int> before = open_fds();
  testing_wire::TestServer server(1);
  testing_wire::WireClient client(server.port());
  ASSERT_TRUE(client.connected());
  solve_and_sweep(client);
  EXPECT_EQ(nagled_since(before), std::vector<int>{});
}

TEST(Net, EveryRouterTcpFdHasNoDelay) {
  const std::set<int> before = open_fds();
  router::testing_fleet::TestFleet fleet(2);
  testing_wire::WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());
  solve_and_sweep(client);  // relay connections open to both shards
  EXPECT_EQ(nagled_since(before), std::vector<int>{});
}

}  // namespace
}  // namespace pipeopt::net
