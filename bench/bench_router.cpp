/// \file bench_router.cpp
/// Experiment ROUTE: throughput scaling of pipeopt-router over 1..N
/// shards, against a single bare server.
///
/// The same request stream (Table 1/2 instance grid, period objective)
/// is driven by concurrent lock-step clients through three deployments:
///
///  1. one bare pipeopt-server — the no-router baseline;
///  2. the router in front of 1 shard — isolates the relay overhead
///     (one extra hop: client -> router -> shard -> router -> client);
///  3. the router over 2 and 4 shards — the scaling story: key-hash
///     routing spreads the stream across independent accept loops and
///     worker pools, so protocol-bound traffic scales with shard count
///     until the cores run out.
///
/// Every wire response (all deployments) is cross-checked bit-identical
/// against per-call `api::solve` — the router contract: a shard's bytes
/// stream through unmodified. Shards here are in-process `server::Server`
/// instances (endpoint mode); `route --spawn` adds fork/exec supervision
/// but the data path measured here is byte-for-byte the same.

#include <unistd.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "bench_support.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "net/socket.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "util/fdio.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace pipeopt;
using bench::CellShape;
using bench::Column;

constexpr int kInstancesPerColumn = 30;
constexpr std::size_t kClients = 4;
constexpr std::size_t kShardJobs = 2;

std::vector<core::Problem> make_grid() {
  CellShape shape;
  shape.applications = 2;
  shape.min_stages = 1;
  shape.max_stages = 3;
  shape.processors = 5;

  std::vector<core::Problem> problems;
  util::Rng rng(20260808);
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
    std::perror("bench_router: connect");
    std::exit(1);
  }
  std::vector<std::string> responses;
  util::FdLineReader reader(fd);
  for (const std::string& line : lines) {
    std::string response;
    if (!util::write_line(fd, line) || !reader.next_line(response)) {
      std::fprintf(stderr, "bench_router: connection lost\n");
      std::exit(1);
    }
    responses.push_back(io::format_result(io::parse_result_line(response).result,
                                          "", /*include_wall=*/false));
  }
  ::close(fd);
  return responses;
}

/// An in-process shard fleet behind a router, torn down in order.
struct Fleet {
  std::vector<std::unique_ptr<server::Server>> shards;
  std::vector<std::thread> shard_threads;
  std::unique_ptr<router::Router> router;
  std::thread router_thread;
  std::uint16_t port = 0;

  explicit Fleet(std::size_t shard_count) {
    router::RouterOptions options;
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<server::Server>(
          server::ServerOptions{.jobs = kShardJobs}));
      const std::uint16_t shard_port = shards.back()->listen();
      shard_threads.emplace_back([srv = shards.back().get()] { srv->serve(); });
      options.shards.push_back(router::ShardAddress{"127.0.0.1", shard_port});
    }
    router = std::make_unique<router::Router>(std::move(options));
    port = router->listen();
    router_thread = std::thread([this] { router->serve(); });
  }

  ~Fleet() {
    router->shutdown();
    router_thread.join();
    for (std::size_t i = 0; i < shards.size(); ++i) {
      shards[i]->shutdown();
      shard_threads[i].join();
    }
  }
};

}  // namespace

int main() {
  const std::vector<core::Problem> grid = make_grid();
  const api::SolveRequest request;  // period over intervals, auto dispatch
  std::printf(
      "ROUTE: %zu requests over the Table 1/2 grid, %zu concurrent "
      "client(s), shards at %zu job(s) each\n\n",
      grid.size(), kClients, kShardJobs);

  // The bit-identity reference: per-call api::solve, wall-lessly canonical.
  std::vector<std::string> reference;
  reference.reserve(grid.size());
  for (const core::Problem& problem : grid) {
    reference.push_back(
        io::format_result(api::solve(problem, request), "", false));
  }

  std::vector<std::vector<std::string>> slices(kClients);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    slices[i % kClients].push_back(io::format_solve_request(grid[i], request));
  }
  std::size_t bad = 0;
  const auto drive_all = [&](std::uint16_t port) {
    std::vector<std::future<std::vector<std::string>>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::async(std::launch::async, drive_client, port,
                                   std::cref(slices[c])));
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::vector<std::string> responses = clients[c].get();
      for (std::size_t j = 0; j < responses.size(); ++j) {
        if (responses[j] != reference[c + j * kClients]) ++bad;
      }
    }
  };

  const double n = static_cast<double>(grid.size());
  util::Table table({"deployment", "wall", "req/s", "us/req", "vs 1 shard"});
  double one_shard_s = 0.0;

  // Baseline: one bare server, no router in the path.
  {
    server::Server server(server::ServerOptions{.jobs = kShardJobs});
    const std::uint16_t port = server.listen();
    std::thread accept_thread([&server] { server.serve(); });
    const util::Stopwatch watch;
    drive_all(port);
    const double seconds = watch.elapsed_seconds();
    server.shutdown();
    accept_thread.join();
    table.add_row({"bare server", util::format_double(seconds, 3) + "s",
                   util::format_double(n / seconds, 0),
                   util::format_double(1e6 * seconds / n, 1), "-"});
  }

  for (const std::size_t shard_count : {1u, 2u, 4u}) {
    Fleet fleet(shard_count);
    const util::Stopwatch watch;
    drive_all(fleet.port);
    const double seconds = watch.elapsed_seconds();
    if (shard_count == 1) one_shard_s = seconds;
    table.add_row({"router, " + std::to_string(shard_count) + " shard" +
                       (shard_count == 1 ? "" : "s"),
                   util::format_double(seconds, 3) + "s",
                   util::format_double(n / seconds, 0),
                   util::format_double(1e6 * seconds / n, 1),
                   util::format_double(one_shard_s / seconds, 2) + "x"});
  }
  std::fputs(table.render().c_str(), stdout);

  if (bad != 0) {
    std::printf("\nBIT-IDENTITY FAILED: %zu mismatching responses\n", bad);
    return 1;
  }
  std::printf(
      "\nbit-identity: all %zu wire responses in every deployment equal "
      "per-call api::solve\n(the router adds one relay hop; scaling past "
      "1 shard comes from independent accept\nloops and worker pools — "
      "bounded by cores, not by the router)\n\n",
      4 * grid.size());

  // Solver-bound traffic: exact-search-sized cells, where the relay hop is
  // noise against the solve itself. On a single core the router columns
  // converge to the bare server (the honest reading: zero overhead); with
  // cores to spare the per-shard pools turn the same numbers into 1->N
  // scaling.
  {
    CellShape heavy;
    heavy.applications = 2;
    heavy.min_stages = 4;
    heavy.max_stages = 6;
    heavy.processors = 8;
    std::vector<core::Problem> cells;
    util::Rng rng(20260809);
    for (const Column column : {Column::CommHom, Column::FullyHet}) {
      for (int i = 0; i < 6; ++i) {
        heavy.comm = (i % 2 == 0) ? core::CommModel::Overlap
                                  : core::CommModel::NoOverlap;
        cells.push_back(bench::make_instance(rng, column, heavy));
      }
    }
    std::vector<std::vector<std::string>> heavy_slices(kClients);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      heavy_slices[i % kClients].push_back(
          io::format_solve_request(cells[i], request));
    }
    const auto drive_heavy = [&](std::uint16_t port) {
      std::vector<std::future<std::vector<std::string>>> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(std::async(std::launch::async, drive_client, port,
                                     std::cref(heavy_slices[c])));
      }
      for (auto& client : clients) (void)client.get();
    };
    const double m = static_cast<double>(cells.size());
    std::printf("solver-bound cells (%zu exact-search requests):\n",
                cells.size());
    double bare_heavy_s = 0.0;
    {
      server::Server server(server::ServerOptions{.jobs = kShardJobs});
      const std::uint16_t port = server.listen();
      std::thread accept_thread([&server] { server.serve(); });
      const util::Stopwatch watch;
      drive_heavy(port);
      bare_heavy_s = watch.elapsed_seconds();
      server.shutdown();
      accept_thread.join();
    }
    std::printf("  bare server: %.0f us/req\n", 1e6 * bare_heavy_s / m);
    for (const std::size_t shard_count : {1u, 2u, 4u}) {
      Fleet fleet(shard_count);
      const util::Stopwatch watch;
      drive_heavy(fleet.port);
      const double seconds = watch.elapsed_seconds();
      std::printf("  router, %zu shard(s): %.0f us/req (%.2fx vs bare)\n",
                  shard_count, 1e6 * seconds / m, bare_heavy_s / seconds);
    }
  }
  return 0;
}
