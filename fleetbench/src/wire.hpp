#pragma once

/// \file wire.hpp
/// The benchmark's view of a running fleet from outside: a blocking JSONL
/// client connection, the spawned `pipeopt route` process tree, and its
/// resource counters read from /proc.

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "util/fdio.hpp"

namespace fleetbench {

/// One blocking client connection to 127.0.0.1:port speaking JSONL,
/// framed by the repository's own util::FdLineReader / util::write_line.
class Conn {
 public:
  /// Connects; throws std::runtime_error on failure. Reads give up after
  /// `timeout` without a byte (counted as a timeout by the caller).
  Conn(std::uint16_t port, std::chrono::milliseconds timeout);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes `line` plus '\n'; false when the connection is gone.
  bool send(std::string_view line);
  /// Reads one '\n'-terminated line (newline stripped); false on EOF,
  /// timeout or a line torn by EOF.
  bool read_line(std::string& line);

 private:
  int fd_ = -1;
  pipeopt::util::FdLineReader reader_{-1};
};

/// One request/response exchange: sends `line`, then reads the single
/// response line, or for a pareto request every streamed line through the
/// terminal summary (an error line also ends the exchange). False when the
/// transport failed; `response` then holds what arrived.
bool exchange(Conn& conn, std::string_view line, bool pareto,
              std::vector<std::string>& response);

/// The `"type"` of a response line without a full parse (every pipeopt
/// line starts with it); empty when the line does not.
[[nodiscard]] std::string_view line_type(std::string_view line);

/// One flat-JSON field, "" when absent.
[[nodiscard]] std::string field(const pipeopt::io::JsonFields& fields,
                                std::string_view key);

/// Sends one control request ({"type":"stats"} etc.) and parses the answer.
[[nodiscard]] pipeopt::io::JsonFields ask(Conn& conn, std::string_view type);

/// CPU time (user + system) and peak resident set of one process.
struct ProcSample {
  double cpu_seconds = 0.0;
  double hwm_mb = 0.0;
};
/// Reads /proc/<pid>/stat and /proc/<pid>/status; throws when the process
/// is gone.
[[nodiscard]] ProcSample sample_process(pid_t pid);

/// Machine-wide CPU ticks from /proc/stat: all of them, and those the
/// hypervisor gave to other guests (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] HostTicks sample_host();

/// `pipeopt route --spawn <shards> --jobs 1 --cache-entries <entries>`
/// plus `extra_args`, launched as a child of this process and stopped
/// (with its shards) on destruction.
class Fleet {
 public:
  /// Launches the router and blocks until it announces its port and its
  /// `stats` report every shard up. `log_path` collects the fleet's stderr.
  Fleet(const std::string& cli, std::size_t shards, std::size_t cache_entries,
        const std::string& log_path,
        const std::vector<std::string>& extra_args = {});
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t router_pid() const noexcept { return router_pid_; }
  [[nodiscard]] const std::vector<pid_t>& shard_pids() const noexcept {
    return shard_pids_;
  }
  /// Launch until every shard reported up, in seconds.
  [[nodiscard]] double setup_seconds() const noexcept { return setup_s_; }

  /// SIGTERM, wait for the router to drain and exit (SIGKILL for the whole
  /// tree after a grace period); true when it exited on its own.
  bool stop();

 private:
  pid_t router_pid_ = -1;
  std::vector<pid_t> shard_pids_;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace fleetbench
