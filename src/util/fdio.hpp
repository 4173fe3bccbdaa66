#pragma once

/// \file fdio.hpp
/// Newline-framed I/O over raw file descriptors — the one line
/// reader/writer every JSONL wire endpoint shares (server sessions, the
/// CLI client, tests and benches), so framing behavior (EINTR retries,
/// final unterminated lines, partial writes) cannot drift between copies.

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <functional>
#include <string>

namespace pipeopt::util {

/// Optional replacements for the raw read/write syscalls underneath the
/// framing layer. The fault-injection shim (src/net/fault.hpp) supplies a
/// hooked pair to provoke truncation/partial-write/delay failures on
/// exactly the code paths production traffic uses, and the router bounds
/// a spawned shard's port announcement with a deadline-polling read;
/// passing nullptr (the default) costs nothing and keeps plain syscalls.
struct IoHooks {
  std::function<ssize_t(int fd, void* buf, std::size_t len)> read;
  std::function<ssize_t(int fd, const void* buf, std::size_t len)> write;
};

/// The longest line (terminator excluded) any reader accepts. A peer
/// that sends more without a '\n' gets no further bytes read: the reader
/// buffers at most this plus one read chunk per connection.
inline constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/// Blocking buffered line reader. Reads are retried on EINTR; any other
/// read failure (including a receive timeout on a socket) ends the stream
/// like EOF. Each byte is scanned for '\n' once and moved at most once, so
/// a line costs time linear in its length.
class FdLineReader {
 public:
  explicit FdLineReader(int fd, const IoHooks* hooks = nullptr)
      : fd_(fd), hooks_(hooks) {}

  /// Next '\n'-terminated line (terminator stripped; a final unterminated
  /// line is returned too); false on end of stream with nothing pending,
  /// and for good once a line outgrows kMaxLineBytes (see line_too_long).
  bool next_line(std::string& line) {
    if (too_long_) return false;
    for (;;) {
      const auto newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line.assign(buffer_, head_, newline - head_);
        head_ = scanned_ = newline + 1;
        last_terminated_ = true;
        return true;
      }
      scanned_ = buffer_.size();
      if (scanned_ - head_ > kMaxLineBytes) {
        too_long_ = true;
        return false;
      }
      // Only the unterminated tail is pending: drop the consumed prefix
      // before reading more, so every byte moves at most once.
      buffer_.erase(0, head_);
      scanned_ -= head_;
      head_ = 0;
      char chunk[4096];
      const ssize_t n = (hooks_ != nullptr && hooks_->read)
                            ? hooks_->read(fd_, chunk, sizeof chunk)
                            : ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (buffer_.empty()) return false;
      line = std::move(buffer_);
      buffer_.clear();
      scanned_ = 0;
      last_terminated_ = false;
      return true;
    }
  }

  /// True when input beyond the current line is already buffered (for the
  /// server: the client is pipelining, so it is demonstrably alive).
  [[nodiscard]] bool buffered() const noexcept {
    return head_ < buffer_.size();
  }

  /// Whether the line most recently returned by next_line carried its
  /// '\n' frame. A false value means the stream died mid-line: the bytes
  /// are a torn prefix, not a complete wire message, and relays/clients
  /// must treat them as a transport failure rather than parse them.
  [[nodiscard]] bool last_terminated() const noexcept {
    return last_terminated_;
  }

  /// Whether the stream ended because a line exceeded kMaxLineBytes (front
  /// sessions answer a typed `line-too-long` error, then close).
  [[nodiscard]] bool line_too_long() const noexcept { return too_long_; }

 private:
  int fd_;
  const IoHooks* hooks_;
  std::string buffer_;
  std::size_t head_ = 0;     ///< first byte not yet returned
  std::size_t scanned_ = 0;  ///< bytes before this hold no '\n' past head_
  bool last_terminated_ = true;
  bool too_long_ = false;
};

/// Writes `line` plus the '\n' frame, retrying on EINTR and short writes;
/// false when the peer is gone (for sockets, make sure SIGPIPE is ignored
/// so a vanished reader surfaces here instead of killing the process).
inline bool write_line(int fd, std::string line,
                       const IoHooks* hooks = nullptr) {
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = (hooks != nullptr && hooks->write)
                          ? hooks->write(fd, line.data() + off,
                                         line.size() - off)
                          : ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace pipeopt::util
