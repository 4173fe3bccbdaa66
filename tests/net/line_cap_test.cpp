/// The line-length cap at every front session: a client that streams a
/// 64 MiB line with no newline gets a typed `line-too-long` error within a
/// fixed bound and then a closed connection — from a server, a router and
/// a stdio session alike — instead of pinning a session thread while its
/// buffer grows.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "io/json.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "tests/router/fleet_harness.hpp"
#include "tests/server/wire_harness.hpp"
#include "util/fdio.hpp"

namespace pipeopt::net {
namespace {

constexpr std::size_t kFloodBytes = std::size_t{64} << 20;
constexpr auto kAnswerBound = std::chrono::seconds(1);

/// Writes up to kFloodBytes of 'x' to `fd`, stopping at the first failed
/// write (the peer closed on us).
void flood(int fd) {
  const std::string chunk(64 * 1024, 'x');
  for (std::size_t sent = 0; sent < kFloodBytes; sent += chunk.size()) {
    if (::write(fd, chunk.data(), chunk.size()) <= 0) return;
  }
}

std::string error_code(const std::string& line) {
  for (const auto& [key, value] : io::parse_flat_json(line)) {
    if (key == "code") return value;
  }
  return {};
}

/// Floods `port` with one unterminated line; expects the typed answer
/// within kAnswerBound, then end of stream.
void expect_line_too_long(std::uint16_t port) {
  const int fd = connect("127.0.0.1", port, std::chrono::seconds(10));
  ASSERT_GE(fd, 0);
  const auto start = std::chrono::steady_clock::now();
  std::thread writer([fd] { flood(fd); });
  util::FdLineReader reader(fd);
  std::string line;
  const bool answered = reader.next_line(line);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const bool terminated = reader.last_terminated();
  std::string tail;
  const bool more = reader.next_line(tail);
  ::shutdown(fd, SHUT_RDWR);  // unblocks the writer if the peer did not
  writer.join();
  ::close(fd);

  ASSERT_TRUE(answered);
  EXPECT_TRUE(terminated);
  EXPECT_EQ(error_code(line), "line-too-long") << line;
  EXPECT_LT(elapsed, kAnswerBound);
  EXPECT_FALSE(more) << "connection stayed open: " << tail;
}

TEST(LineCap, ServerAnswersAnOverCapLineTypedThenCloses) {
  testing_wire::TestServer server(1);
  expect_line_too_long(server.port());
  // The server itself is unharmed.
  testing_wire::WireClient client(server.port());
  client.send_line(R"({"type":"ping"})");
  EXPECT_EQ(client.recv_line(),
            std::optional<std::string>(R"({"type":"pong"})"));
}

TEST(LineCap, RouterAnswersAnOverCapLineTypedThenCloses) {
  router::testing_fleet::TestFleet fleet(1);
  expect_line_too_long(fleet.port());
  testing_wire::WireClient client(fleet.port());
  client.send_line(R"({"type":"ping"})");
  EXPECT_EQ(client.recv_line(),
            std::optional<std::string>(R"({"type":"pong"})"));
}

TEST(LineCap, StdioSessionAnswersAnOverCapLineTypedThenEnds) {
  ignore_sigpipe();
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  server::Server server(server::ServerOptions{.jobs = 1});
  std::thread session([&] {
    server.serve_stream(in[0], out[1]);
    ::close(out[1]);
  });
  std::thread writer([fd = in[1]] { flood(fd); });
  util::FdLineReader reader(out[0]);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(error_code(line), "line-too-long") << line;
  EXPECT_FALSE(reader.next_line(line));  // the session ended
  session.join();
  ::close(in[0]);  // the flood's next write fails
  writer.join();
  ::close(in[1]);
  ::close(out[0]);
}

}  // namespace
}  // namespace pipeopt::net
