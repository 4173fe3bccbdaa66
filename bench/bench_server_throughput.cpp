/// \file bench_server_throughput.cpp
/// Experiment SERVE: protocol overhead and sustained request rate of
/// pipeopt-server against the raw executor path.
///
/// Three measurements over the same request stream (Table 1/2 instance
/// grid, period objective, auto dispatch):
///
///  1. direct `api::solve` — no pool, no wire: the floor;
///  2. `Executor::solve_async` — the pool alone (what the server
///     multiplexes onto);
///  3. the full server loop — in-process `server::Server` on an ephemeral
///     port, real sockets, one JSONL request per solve, lock-step clients;
///  4. the same server loop with `--cache-entries` on, replayed twice:
///     the first pass populates the solve cache, the second is served
///     from it — the cache-on/cache-off column of the serving story.
///
/// The wire results of modes 3 and 4 are cross-checked bit-identical
/// against mode 1 (the server contract — the cache returns stored results
/// verbatim), and the per-request overhead of the serialization + socket
/// round trip is reported. Concurrency here means concurrent
/// *connections*; on a single-core container the rate is protocol-bound,
/// not solver-bound, which is exactly what this isolates.

#include <unistd.h>

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "bench_support.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "util/fdio.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace pipeopt;
using bench::CellShape;
using bench::Column;

constexpr int kInstancesPerColumn = 40;
constexpr std::size_t kClients = 2;

std::vector<core::Problem> make_grid() {
  CellShape shape;
  shape.applications = 2;
  shape.min_stages = 1;
  shape.max_stages = 3;
  shape.processors = 5;

  std::vector<core::Problem> problems;
  util::Rng rng(20260728);
  for (const Column column : {Column::FullyHom, Column::SpecialApp,
                              Column::CommHom, Column::FullyHet}) {
    for (int i = 0; i < kInstancesPerColumn; ++i) {
      shape.comm = (i % 2 == 0) ? core::CommModel::Overlap
                                : core::CommModel::NoOverlap;
      problems.push_back(bench::make_instance(rng, column, shape));
    }
  }
  return problems;
}

/// One lock-step client: sends its slice of request lines, collects the
/// wall-less comparable form of every response.
std::vector<std::string> drive_client(std::uint16_t port,
                                      const std::vector<std::string>& lines) {
  const int fd = net::connect("127.0.0.1", port);
  if (fd < 0) {
    std::perror("bench_server_throughput: connect");
    std::exit(1);
  }
  std::vector<std::string> responses;
  util::FdLineReader reader(fd);
  for (const std::string& line : lines) {
    std::string response;
    if (!util::write_line(fd, line) || !reader.next_line(response)) {
      std::fprintf(stderr, "bench_server_throughput: connection lost\n");
      std::exit(1);
    }
    responses.push_back(io::format_result(io::parse_result_line(response).result,
                                          "", /*include_wall=*/false));
  }
  ::close(fd);
  return responses;
}

}  // namespace

int main() {
  const std::vector<core::Problem> grid = make_grid();
  const api::SolveRequest request;  // period over intervals, auto dispatch
  std::printf("SERVE: %zu requests over the Table 1/2 grid, %zu client(s)\n\n",
              grid.size(), kClients);

  // Mode 1: direct api::solve, also the bit-identity reference.
  std::vector<std::string> reference;
  reference.reserve(grid.size());
  const util::Stopwatch direct_watch;
  for (const core::Problem& problem : grid) {
    reference.push_back(
        io::format_result(api::solve(problem, request), "", false));
  }
  const double direct_s = direct_watch.elapsed_seconds();

  // Mode 2: the executor pool alone.
  const double pool_s = [&] {
    api::Executor executor;
    std::vector<std::future<api::SolveResult>> futures;
    futures.reserve(grid.size());
    const util::Stopwatch watch;
    for (const core::Problem& problem : grid) {
      futures.push_back(executor.solve_async(problem, request));
    }
    for (auto& future : futures) (void)future.get();
    return watch.elapsed_seconds();
  }();

  // Modes 3 and 4: the full server loop over real sockets, cache off and
  // cache on (the cache-on server is driven twice: populate, then replay).
  std::vector<std::vector<std::string>> slices(kClients);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    slices[i % kClients].push_back(io::format_solve_request(grid[i], request));
  }
  const auto drive_all = [&](std::uint16_t port) {
    std::vector<std::future<std::vector<std::string>>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::async(std::launch::async, drive_client, port,
                                   std::cref(slices[c])));
    }
    std::vector<std::vector<std::string>> responses;
    for (auto& client : clients) responses.push_back(client.get());
    return responses;
  };
  // Bit-identity cross-check: every wire response equals its reference.
  const auto mismatches =
      [&](const std::vector<std::vector<std::string>>& responses) {
        std::size_t count = 0;
        for (std::size_t c = 0; c < kClients; ++c) {
          for (std::size_t j = 0; j < responses[c].size(); ++j) {
            if (responses[c][j] != reference[c + j * kClients]) ++count;
          }
        }
        return count;
      };

  double serve_s = 0.0, cached_cold_s = 0.0, cached_hit_s = 0.0;
  std::size_t bad = 0;
  {
    server::Server server;
    const std::uint16_t port = server.listen();
    std::thread accept_thread([&server] { server.serve(); });
    const util::Stopwatch watch;
    bad += mismatches(drive_all(port));
    serve_s = watch.elapsed_seconds();
    server.shutdown();
    accept_thread.join();
  }
  {
    // 4x headroom over the working set, like every other cache site: a
    // per-shard LRU overflows early under an uneven key-hash split if the
    // capacity is exactly the key count.
    server::Server server(
        server::ServerOptions{.cache_entries = 4 * grid.size()});
    const std::uint16_t port = server.listen();
    std::thread accept_thread([&server] { server.serve(); });
    const util::Stopwatch cold_watch;
    bad += mismatches(drive_all(port));
    cached_cold_s = cold_watch.elapsed_seconds();
    const util::Stopwatch hit_watch;
    bad += mismatches(drive_all(port));
    cached_hit_s = hit_watch.elapsed_seconds();
    server.shutdown();
    accept_thread.join();
  }
  if (bad != 0) {
    std::printf("BIT-IDENTITY FAILED: %zu mismatching responses\n", bad);
    return 1;
  }

  const double n = static_cast<double>(grid.size());
  util::Table table({"mode", "wall", "req/s", "us/req"});
  const auto row = [&](const char* mode, double seconds) {
    table.add_row({mode, util::format_double(seconds, 3) + "s",
                   util::format_double(n / seconds, 0),
                   util::format_double(1e6 * seconds / n, 1)});
  };
  row("direct api::solve", direct_s);
  row("executor pool", pool_s);
  row("server, cache off", serve_s);
  row("server, cache on (populate)", cached_cold_s);
  row("server, cache on (replay)", cached_hit_s);
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nprotocol overhead: %.1f us/request over the pool path "
      "(serialize + socket + watch loop)\ncache replay speedup over the "
      "cache-off server: %.1fx (this grid is protocol-bound: ~8 us "
      "solves\nbehind a ~40 us wire, so the wire is the cache's floor)\n"
      "bit-identity: all %zu wire responses (all modes, replays included) "
      "equal per-call api::solve\n\n",
      1e6 * (serve_s - pool_s) / n, serve_s / cached_hit_s, grid.size());

  // Heavy cells, where caching pays at the server level too: the same
  // replay experiment over exact-search-sized instances (the
  // bench_solve_cache shape) — solver-bound traffic, so the replay
  // collapses to the wire cost.
  {
    CellShape heavy;
    heavy.applications = 2;
    heavy.min_stages = 4;
    heavy.max_stages = 6;
    heavy.processors = 8;
    std::vector<core::Problem> cells;
    util::Rng rng(20260729);
    for (const Column column : {Column::CommHom, Column::FullyHet}) {
      for (int i = 0; i < 8; ++i) {
        heavy.comm = (i % 2 == 0) ? core::CommModel::Overlap
                                  : core::CommModel::NoOverlap;
        cells.push_back(bench::make_instance(rng, column, heavy));
      }
    }
    std::vector<std::string> lines;
    for (const core::Problem& problem : cells) {
      lines.push_back(io::format_solve_request(problem, request));
    }
    const auto measure = [&](std::uint16_t port) {
      const util::Stopwatch watch;
      (void)drive_client(port, lines);
      return watch.elapsed_seconds();
    };
    double heavy_off = 0.0, heavy_populate = 0.0, heavy_replay = 0.0;
    {
      server::Server off;
      const std::uint16_t port = off.listen();
      std::thread accept_thread([&off] { off.serve(); });
      heavy_off = measure(port);
      off.shutdown();
      accept_thread.join();
    }
    {
      server::Server on(server::ServerOptions{.cache_entries = 4 * cells.size()});
      const std::uint16_t port = on.listen();
      std::thread accept_thread([&on] { on.serve(); });
      heavy_populate = measure(port);
      heavy_replay = measure(port);
      on.shutdown();
      accept_thread.join();
    }
    const double m = static_cast<double>(cells.size());
    std::printf(
        "heavy cells (%zu exact-search requests over TCP):\n"
        "  cache off %.0f us/req | populate %.0f us/req | replay %.0f "
        "us/req -> %.1fx over cache off\n",
        cells.size(), 1e6 * heavy_off / m, 1e6 * heavy_populate / m,
        1e6 * heavy_replay / m, heavy_off / heavy_replay);
  }
  return 0;
}
