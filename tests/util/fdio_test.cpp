/// util/fdio.hpp: the line reader's framing over a real pipe — pipelined
/// and split lines, the final unterminated line, move assignment, and the
/// kMaxLineBytes cap that stops buffering instead of growing without bound.

#include "util/fdio.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "net/socket.hpp"

namespace pipeopt::util {
namespace {

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
  void write_all(const std::string& bytes) const {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
};

TEST(FdLineReader, SplitsPipelinedAndFragmentedLines) {
  Pipe pipe;
  FdLineReader reader(pipe.fds[0]);
  std::string line;

  pipe.write_all("one\ntwo\nthr");
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "one");
  EXPECT_TRUE(reader.buffered());  // "two" is already here
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "two");
  EXPECT_TRUE(reader.last_terminated());

  pipe.write_all("ee\n\nfour");
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "three");
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "");

  pipe.close_write();
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "four");
  EXPECT_FALSE(reader.last_terminated());  // torn by EOF
  EXPECT_FALSE(reader.next_line(line));
  EXPECT_FALSE(reader.line_too_long());
}

TEST(FdLineReader, MoveAssignmentKeepsReadingTheNewStream) {
  Pipe pipe;
  FdLineReader reader(-1);
  reader = FdLineReader(pipe.fds[0]);
  pipe.write_all("hello\n");
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "hello");
}

TEST(FdLineReader, AcceptsALineOfExactlyTheCap) {
  Pipe pipe;
  const std::string big(kMaxLineBytes, 'x');
  std::thread writer([&] {
    pipe.write_all(big + "\nnext\n");
    pipe.close_write();
  });
  FdLineReader reader(pipe.fds[0]);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line.size(), kMaxLineBytes);
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "next");
  writer.join();
}

TEST(FdLineReader, StopsBufferingAtTheCap) {
  // A writer that would send 8x the cap without a newline: the reader
  // gives up after the cap plus at most one read chunk, and every later
  // call stays at end of stream.
  net::ignore_sigpipe();  // the writer's EPIPE ends it, not a signal
  Pipe pipe;
  std::thread writer([fd = pipe.fds[1]] {
    const std::string chunk(64 * 1024, 'x');
    for (std::size_t sent = 0; sent < 8 * kMaxLineBytes; sent += chunk.size()) {
      if (::write(fd, chunk.data(), chunk.size()) <= 0) return;
    }
  });
  std::size_t consumed = 0;
  IoHooks counting;
  counting.read = [&consumed](int fd, void* buf, std::size_t len) {
    const ssize_t n = ::read(fd, buf, len);
    if (n > 0) consumed += static_cast<std::size_t>(n);
    return n;
  };
  FdLineReader reader(pipe.fds[0], &counting);
  std::string line;
  EXPECT_FALSE(reader.next_line(line));
  EXPECT_TRUE(reader.line_too_long());
  EXPECT_GT(consumed, kMaxLineBytes);
  EXPECT_LE(consumed, kMaxLineBytes + 4096);
  const std::size_t at_cap = consumed;
  EXPECT_FALSE(reader.next_line(line));
  EXPECT_EQ(consumed, at_cap);
  pipe.close_read();
  writer.join();
}

}  // namespace
}  // namespace pipeopt::util
