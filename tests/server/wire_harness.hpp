/// Shared wire-level test harness: an in-process listening server on a
/// background thread, a minimal blocking JSONL client, the Table 1/2
/// problem grid, and the PR 2 "needle" instance (a deterministically long
/// branch-and-bound search for cancellation/saturation tests). Used by the
/// server suite and the router suite — both speak the same protocol, so
/// they share one harness.

#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "gen/random_instances.hpp"
#include "io/result_io.hpp"
#include "io/stats_io.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "tests/support/grid_fixtures.hpp"
#include "util/fdio.hpp"

namespace pipeopt::testing_wire {

/// The Table 1/2 grid, shared with every other differential suite.
using testing_support::table_grid;

/// A listening server with its accept loop on a background thread.
class TestServer {
 public:
  explicit TestServer(std::size_t jobs = 2)
      : TestServer(server::ServerOptions{.jobs = jobs}) {}

  explicit TestServer(server::ServerOptions options)
      : server_(std::move(options)) {
    port_ = server_.listen();
    thread_ = std::thread([this] { server_.serve(); });
  }

  ~TestServer() {
    server_.shutdown();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] server::Server& server() noexcept { return server_; }

  /// Joins the accept loop (after shutdown()): proves serve() returned.
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  server::Server server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Minimal blocking JSONL client.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port)
      : fd_(net::connect("127.0.0.1", port)), reader_(fd_) {
    connected_ = fd_ >= 0;
    timeval timeout{30, 0};  // a hung server fails the test, not the suite
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  ~WireClient() { close(); }

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  void send_line(const std::string& line) {
    ASSERT_TRUE(util::write_line(fd_, line));
  }

  /// Next response line; nullopt on EOF/timeout.
  std::optional<std::string> recv_line() {
    std::string line;
    if (!reader_.next_line(line)) return std::nullopt;
    return line;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  util::FdLineReader reader_;
};

/// The PR 2 needle: a deterministically long branch-and-bound search (see
/// executor_test.cpp for the calibration guard proving > 10^7 nodes).
inline core::Problem needle_instance() {
  std::vector<core::StageSpec> cheap(5, {0.01, 0.0});
  std::vector<core::StageSpec> tail = cheap;
  tail.back().output_size = 100.0;
  std::vector<core::Application> apps;
  apps.emplace_back(0.0, cheap, 1.0, "A");
  apps.emplace_back(0.0, tail, 1.0, "B");
  const std::size_t p = 12;
  std::vector<core::Processor> procs(p, core::Processor({1.0}));
  std::vector<std::vector<double>> link(p, std::vector<double>(p, 1.0));
  std::vector<std::vector<double>> in(2, std::vector<double>(p, 1.0));
  std::vector<std::vector<double>> out(2, std::vector<double>(p, 1.0));
  for (std::size_t u = 0; u < p; ++u) out[1][u] = 0.5 + 0.09 * u;
  return core::Problem(std::move(apps),
                       core::Platform(std::move(procs), std::move(link),
                                      std::move(in), std::move(out)),
                       core::CommModel::Overlap);
}

inline api::SolveRequest needle_request() {
  api::SolveRequest request;
  request.solver = "branch-and-bound";
  request.kind = api::MappingKind::OneToOne;
  // Large enough that only cancellation ends the search in test time, small
  // enough that a cancellation bug stalls minutes, not forever.
  request.node_budget = 1'000'000'000;
  return request;
}

/// Canonical wall-less wire line for comparing results across processes.
inline std::string comparable(const api::SolveResult& result) {
  return io::format_result(result, "", /*include_wall=*/false);
}

inline std::string comparable(const std::string& wire_line) {
  return comparable(io::parse_result_line(wire_line).result);
}

/// The counters every `stats` line carries, in docs/PROTOCOL.md §stats
/// emission order (a server's line, and a router's merged shard block).
inline const std::vector<std::string> kStatsCounterKeys = {
    "requests",  "solves",    "evals",
    "sweeps",    "errors",    "cancelled",
    "disconnect_cancels",     "connections"};
/// The cache counters, present only when the cache is on.
inline const std::vector<std::string> kStatsCacheKeys = {
    "cache_hits", "cache_misses", "cache_evictions", "cache_entries"};

/// The keys of a parsed line, in wire order.
inline std::vector<std::string> keys_of(const io::JsonFields& fields) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : fields) keys.push_back(key);
  return keys;
}

inline bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

inline bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `solver.<name>` for each `solver.<name>.latency.n` field of a metrics
/// line, in its order: the `stats` per-solver keys that line implies.
inline std::vector<std::string> solver_count_keys(
    const io::JsonFields& metrics) {
  const std::string count = ".latency.n";
  std::vector<std::string> keys;
  for (const auto& [key, value] : metrics) {
    if (starts_with(key, "solver.") && ends_with(key, count)) {
      keys.push_back(key.substr(0, key.size() - count.size()));
    }
  }
  return keys;
}

/// A `stats` line agrees with the `metrics` line of the same server or
/// fleet: the same per-solver keys in the same order, each `solver.<name>`
/// equal to `solver.<name>.latency.n`, and `evals` equal to the sum of the
/// `solver.<name>.evals` counters.
inline void expect_stats_agree_with_metrics(const io::JsonFields& stats,
                                            const io::JsonFields& metrics) {
  std::vector<std::string> stats_solvers;
  for (const auto& [key, value] : stats) {
    if (starts_with(key, "solver.")) stats_solvers.push_back(key);
  }
  EXPECT_EQ(stats_solvers, solver_count_keys(metrics));
  std::uint64_t evals = 0;
  for (const auto& [key, value] : metrics) {
    if (!starts_with(key, "solver.")) continue;
    if (ends_with(key, ".evals")) evals += std::stoull(value);
    if (ends_with(key, ".latency.n")) {
      EXPECT_EQ(io::stats_field(stats, key.substr(0, key.size() - 10)), value)
          << key;
    }
  }
  EXPECT_EQ(io::stats_field(stats, "evals"), std::to_string(evals));
}

/// A readable file and a FIFO that nothing writes to, named by `path`
/// request lines: a session must refuse both without opening either
/// (opening the FIFO would block the session for good).
class PathTargets {
 public:
  static constexpr const char* kSecret = "secret-file-bytes-7f3a";

  explicit PathTargets(const std::string& name)
      : dir_(::testing::TempDir() + name + "-" + std::to_string(::getpid())),
        file_(dir_ + "/secret.txt"),
        fifo_(dir_ + "/fifo") {
    ::mkdir(dir_.c_str(), 0700);
    std::ofstream(file_) << kSecret << "\n";
    ::unlink(fifo_.c_str());
    EXPECT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);
  }

  ~PathTargets() {
    ::unlink(file_.c_str());
    ::unlink(fifo_.c_str());
    ::rmdir(dir_.c_str());
  }

  /// A solve and a pareto line naming each target, with ids p0..p3.
  [[nodiscard]] std::vector<std::string> request_lines() const {
    std::vector<std::string> lines;
    for (const std::string& path : {file_, fifo_}) {
      for (const char* head :
           {R"({"type":"solve")", R"({"type":"pareto","sweep_bounds":"1,2")"}) {
        lines.push_back(head + std::string(R"(,"id":"p)") +
                        std::to_string(lines.size()) + R"(","path":")" + path +
                        "\"}");
      }
    }
    return lines;
  }

 private:
  std::string dir_, file_, fifo_;
};

/// The answer to request_lines()[index]: the typed, never-retryable
/// `path-refused` error under the request's id, with none of the file.
inline void expect_path_refused(const std::optional<std::string>& answer,
                                std::size_t index) {
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->find(PathTargets::kSecret), std::string::npos) << *answer;
  const io::JsonFields fields = io::parse_flat_json(*answer);
  EXPECT_EQ(keys_of(fields),
            (std::vector<std::string>{"type", "id", "code", "message"}));
  EXPECT_EQ(io::stats_field(fields, "type"), "error");
  EXPECT_EQ(io::stats_field(fields, "id"), "p" + std::to_string(index));
  EXPECT_EQ(io::stats_field(fields, "code"), "path-refused") << *answer;
}

}  // namespace pipeopt::testing_wire
