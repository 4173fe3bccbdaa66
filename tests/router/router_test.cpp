/// End-to-end tests of pipeopt-router over real sockets and in-process
/// shard servers: routed responses over the Table 1/2 grid are
/// bit-identical to per-call `api::solve` (and streamed pareto sweeps to
/// `api::sweep`), sticky key-hash routing keeps per-shard solve caches
/// coherent across replays, `{"type":"stats"}` merges the fleet's counters
/// under the router-level fields, saturation sheds typed
/// `code:"overloaded"` errors, and a dead shard fails over without losing
/// admitted requests.

#include "router/router.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "gen/motivating_example.hpp"
#include "gen/random_instances.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "io/stats_io.hpp"
#include "server/server.hpp"
#include "tests/router/fleet_harness.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt::router {
namespace {

using server::Server;
using server::ServerOptions;
using testing_fleet::TestFleet;
using testing_fleet::TestRouter;
using testing_fleet::value_of;
using testing_wire::TestServer;
using testing_wire::WireClient;
using testing_wire::comparable;
using testing_wire::needle_instance;
using testing_wire::needle_request;
using testing_wire::table_grid;

TEST(Router, ResponsesBitIdenticalToPerCallSolveOverTheGrid) {
  TestFleet fleet(3);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  const std::vector<core::Problem> grid = table_grid(2);
  std::vector<api::SolveRequest> requests;
  {
    api::SolveRequest period;
    requests.push_back(period);
    api::SolveRequest latency;
    latency.objective = api::Objective::Latency;
    requests.push_back(latency);
    api::SolveRequest energy;
    energy.objective = api::Objective::Energy;
    energy.constraints.period = core::Thresholds::per_app({100.0, 100.0});
    requests.push_back(energy);
  }
  std::size_t routed = 0;
  for (const core::Problem& problem : grid) {
    for (const api::SolveRequest& request : requests) {
      client.send_line(io::format_solve_request(problem, request));
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(comparable(*response), comparable(api::solve(problem, request)))
          << "routed solve diverged from api::solve on: " << *response;
      ++routed;
    }
  }
  // The session thread bumps routed_ right after relaying the final byte;
  // give that store a moment to land before reading the counter directly.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fleet.router().routed() < routed &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(fleet.router().routed(), routed);
  EXPECT_EQ(fleet.router().shed(), 0u);
  EXPECT_EQ(fleet.router().shard_lost_errors(), 0u);
}

TEST(Router, StreamedParetoBitIdenticalToInProcessSweep) {
  TestFleet fleet(2);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  api::SweepRequest request;  // defaults: minimize energy, sweep period
  request.bounds = {1.0, 2.0, 4.0, 100.0};
  request.refine = 1;

  for (const core::Problem& problem : table_grid(1)) {
    client.send_line(io::format_pareto_request(problem, request, "g"));
    std::vector<io::WireResult> streamed;
    std::optional<io::WireParetoSummary> summary;
    for (;;) {
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      const io::JsonFields fields = io::parse_flat_json(*response);
      const std::string type = value_of(fields, "type").value_or("");
      ASSERT_NE(type, "error") << *response;
      if (type == "pareto") {
        summary = io::parse_pareto_summary(fields);
        break;
      }
      streamed.push_back(io::parse_result(fields));
    }
    const api::ParetoFront local = api::sweep(problem, request);
    ASSERT_TRUE(summary.has_value());
    EXPECT_TRUE(summary->complete);
    EXPECT_EQ(summary->id, "g");
    EXPECT_EQ(summary->points, local.front.size());
    ASSERT_EQ(streamed.size(), local.front.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      const api::SweepEvaluation& evaluation = local.evaluations[local.front[i]];
      ASSERT_TRUE(streamed[i].bound.has_value());
      EXPECT_EQ(io::format_front_point(streamed[i].result, *streamed[i].bound,
                                       "", /*include_wall=*/false),
                io::format_front_point(evaluation.result, evaluation.bound, "",
                                       /*include_wall=*/false))
          << "routed front diverged from api::sweep";
    }
  }
}

TEST(Router, PingHealthAndMalformedLinesMatchServerBytes) {
  TestFleet fleet(2);
  WireClient via_router(fleet.port());
  WireClient direct(fleet.shard(0).port());
  ASSERT_TRUE(via_router.connected());
  ASSERT_TRUE(direct.connected());

  // The router answers ping itself with the server's exact bytes.
  via_router.send_line(R"({"type":"ping","id":"p1"})");
  auto routed = via_router.recv_line();
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(*routed, R"({"type":"pong","id":"p1"})");

  // A malformed line is forwarded: the shard's structured error comes back
  // byte-identical to what a direct connection gets, and the routed
  // connection survives.
  for (const std::string& bad :
       {std::string("this is not json"),
        std::string(R"({"type":"solve","objective":"sideways","problem":"x"})"),
        std::string(R"({"type":"dance","id":"d1"})")}) {
    via_router.send_line(bad);
    direct.send_line(bad);
    const auto through = via_router.recv_line();
    const auto straight = direct.recv_line();
    ASSERT_TRUE(through.has_value());
    ASSERT_TRUE(straight.has_value());
    EXPECT_EQ(*through, *straight) << "error bytes diverged for: " << bad;
  }
  via_router.send_line(R"({"type":"ping"})");
  EXPECT_EQ(via_router.recv_line(), R"({"type":"pong"})");

  // Router-level health: the front tier's own identity plus fleet shape.
  via_router.send_line(R"({"type":"health","id":"h"})");
  routed = via_router.recv_line();
  ASSERT_TRUE(routed.has_value());
  const io::JsonFields fields = io::parse_flat_json(*routed);
  EXPECT_EQ(value_of(fields, "type"), "health");
  EXPECT_EQ(value_of(fields, "id"), "h");
  EXPECT_EQ(value_of(fields, "pid"), std::to_string(::getpid()));
  EXPECT_EQ(value_of(fields, "shards"), "2");
  EXPECT_EQ(value_of(fields, "shards_up"), "2");
}

TEST(Router, WhitespaceOnlyInstanceAnswersTypedErrorAndRouterSurvives) {
  // The router parses every solve line for its routing key, so an
  // instance of whitespace controls only must fail that parse typed and
  // relay the shard's error, not take the front tier down.
  TestFleet fleet(1);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());
  for (const std::string& line :
       {std::string(R"({"type":"solve","objective":"period","problem":"\f"})"),
        std::string(
            R"({"type":"solve","objective":"period","problem":"\u000b"})")}) {
    client.send_line(line);
    EXPECT_EQ(client.recv_line(),
              R"({"type":"error","message":"line 1: instance error: line 1: no processors declared"})")
        << line;
  }
  client.send_line(R"({"type":"ping"})");
  EXPECT_EQ(client.recv_line(), R"({"type":"pong"})");

  WireClient again(fleet.port());
  ASSERT_TRUE(again.connected());
  again.send_line(R"({"type":"ping"})");
  EXPECT_EQ(again.recv_line(), R"({"type":"pong"})");
}

TEST(Router, StatsMergeShardCountersUnderRouterFields) {
  TestFleet fleet(2);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  // A handful of distinct solves spread over the fleet by key hash.
  const std::vector<core::Problem> grid = table_grid(2);
  for (const core::Problem& problem : grid) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());
  }

  client.send_line(R"({"type":"stats","id":"s"})");
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "stats");
  EXPECT_EQ(value_of(fields, "id"), "s");
  EXPECT_EQ(value_of(fields, "shards"), "2");
  EXPECT_EQ(value_of(fields, "shards_up"), "2");
  EXPECT_EQ(value_of(fields, "routed"), std::to_string(grid.size()));
  EXPECT_EQ(value_of(fields, "shed"), "0");
  EXPECT_EQ(value_of(fields, "restarts"), "0");
  // The merged shard counters ride below the router fields: every routed
  // solve is in the fleet-wide sum exactly once.
  EXPECT_EQ(value_of(fields, "solves"), std::to_string(grid.size()));
  // Both shards were asked for their stats by this very request, plus one
  // pool each: jobs merges to the fleet total.
  EXPECT_EQ(value_of(fields, "jobs"), "4");
  // Cache-off fleet: the merged line must not invent cache counters.
  EXPECT_EQ(response->find("cache_"), std::string::npos);

  // The full line: the router fields in docs/PROTOCOL.md order, then the
  // merged shard block — the server's §stats counters in order, jobs and
  // pending, with the per-solver counts wherever a shard first reported
  // them (first-appearance merge order) — agreeing with the metrics line.
  client.send_line(R"({"type":"metrics"})");
  const auto metrics_line = client.recv_line();
  ASSERT_TRUE(metrics_line.has_value());
  const io::JsonFields metrics = io::parse_flat_json(*metrics_line);
  const std::vector<std::string> router_keys = {
      "type",     "id",          "shards",
      "shards_up", "routed",     "shed",
      "shed_expired", "retries", "restarts",
      "shard_up_transitions", "shard_down_transitions", "shard_lost_errors"};
  const std::vector<std::string> keys = testing_wire::keys_of(fields);
  ASSERT_GT(keys.size(), router_keys.size());
  EXPECT_EQ(std::vector<std::string>(keys.begin(),
                                     keys.begin() + router_keys.size()),
            router_keys);
  std::vector<std::string> shard_block;  // less the per-solver counts
  for (std::size_t i = router_keys.size(); i < keys.size(); ++i) {
    if (!testing_wire::starts_with(keys[i], "solver.")) {
      shard_block.push_back(keys[i]);
    }
  }
  std::vector<std::string> expected = testing_wire::kStatsCounterKeys;
  expected.push_back("jobs");
  expected.push_back("pending");
  EXPECT_EQ(shard_block, expected);
  testing_wire::expect_stats_agree_with_metrics(fields, metrics);
  EXPECT_EQ(value_of(fields, "shed_expired").value_or("0"),
            value_of(metrics, "shed_expired").value_or("0"));
}

TEST(Router, StickyRoutingKeepsShardCachesCoherentAcrossReplays) {
  // Cache-enabled shards behind the router: replaying the same request
  // stream must land every repeat on the shard that cached it, making the
  // replay byte-identical INCLUDING wall_s and the fleet-wide cache_hits
  // counter equal to the replay length — with no cross-shard protocol.
  TestFleet fleet(3, ServerOptions{.jobs = 2, .cache_entries = 64});
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  std::vector<std::string> lines;
  for (const core::Problem& problem : table_grid(2)) {
    lines.push_back(io::format_solve_request(problem, api::SolveRequest{}));
  }
  const auto replay = [&]() {
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      client.send_line(line);
      const auto response = client.recv_line();
      EXPECT_TRUE(response.has_value());
      responses.push_back(response.value_or(""));
    }
    return responses;
  };
  const std::vector<std::string> first = replay();
  const std::vector<std::string> second = replay();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i], first[i])
        << "replay diverged (request landed on a different shard?): "
        << lines[i];
  }

  client.send_line(R"({"type":"stats"})");
  const auto stats_line = client.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  const io::JsonFields fields = io::parse_flat_json(*stats_line);
  EXPECT_EQ(value_of(fields, "cache_hits"), std::to_string(lines.size()));
  EXPECT_EQ(value_of(fields, "cache_misses"), std::to_string(lines.size()));
}

TEST(Router, RequestIdDoesNotChangeTheShard) {
  // The routing key is the canonical solve key, not the line bytes: the
  // same request under different ids must hit the same shard's cache.
  TestFleet fleet(3, ServerOptions{.jobs = 2, .cache_entries = 64});
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  const core::Problem problem = gen::motivating_example();
  for (int i = 0; i < 4; ++i) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{},
                                              "tag-" + std::to_string(i)));
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(io::parse_result_line(*response).result.solved());
  }
  client.send_line(R"({"type":"stats"})");
  const auto stats_line = client.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  const io::JsonFields fields = io::parse_flat_json(*stats_line);
  EXPECT_EQ(value_of(fields, "cache_hits"), "3");  // 1 miss + 3 hits
  EXPECT_EQ(value_of(fields, "cache_misses"), "1");
}

TEST(Router, ShedsTypedOverloadedErrorWhenEveryShardSaturated) {
  // One shard, window 1: a long-running solve occupies the only slot, so
  // a second connection's request must shed immediately with the typed
  // overloaded error — and the connection must survive to solve later.
  RouterOptions options;
  options.window = 1;
  TestFleet fleet(1, ServerOptions{.jobs = 2}, std::move(options));

  WireClient blocker(fleet.port());
  ASSERT_TRUE(blocker.connected());
  api::SolveRequest slow = needle_request();
  slow.deadline_ms = 3000;
  blocker.send_line(io::format_solve_request(needle_instance(), slow));
  // Wait until the router has actually admitted the needle (its slot is
  // what saturates the window) — a fixed sleep races on a loaded host.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < admit_deadline) {
    for (const ShardInfo& info : fleet.router().shard_infos()) {
      admitted |= info.in_flight >= 1;
    }
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(admitted);

  WireClient shed(fleet.port());
  ASSERT_TRUE(shed.connected());
  const auto t0 = std::chrono::steady_clock::now();
  shed.send_line(io::format_solve_request(gen::motivating_example(),
                                          api::SolveRequest{}, "q1"));
  const auto response = shed.recv_line();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "error");
  EXPECT_EQ(value_of(fields, "id"), "q1");
  EXPECT_EQ(value_of(fields, "code"), "overloaded");
  // Shedding is immediate — not queued behind the 3 s needle.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_GE(fleet.router().shed(), 1u);

  // Drain the blocker, then the shed connection gets its solve through.
  // The blocker's slot is released just after its response is relayed, so
  // an immediate retry can still shed — which is exactly the documented
  // client contract: retry on "overloaded". Do what a client would.
  ASSERT_TRUE(blocker.recv_line().has_value());
  const auto retry_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool solved = false;
  while (!solved && std::chrono::steady_clock::now() < retry_deadline) {
    shed.send_line(io::format_solve_request(gen::motivating_example(),
                                            api::SolveRequest{}, "q2"));
    const auto retry = shed.recv_line();
    ASSERT_TRUE(retry.has_value());
    const io::JsonFields retry_fields = io::parse_flat_json(*retry);
    if (value_of(retry_fields, "type") == "error") {
      ASSERT_EQ(value_of(retry_fields, "code"), "overloaded") << *retry;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    solved = io::parse_result_line(*retry).result.solved();
  }
  EXPECT_TRUE(solved);
}

TEST(Router, BackpressureWaitsForTheStickyShardWhenFleetHasRoom) {
  // Two shards, window 1, one saturated: a request stuck to the saturated
  // shard WAITS (stickiness beats latency while a slot may free) instead
  // of shedding — the overloaded error requires the WHOLE fleet full.
  RouterOptions options;
  options.window = 1;
  TestFleet fleet(2, ServerOptions{.jobs = 2}, std::move(options));
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  // Saturate exactly one shard with a deadline-bounded needle...
  api::SolveRequest slow = needle_request();
  slow.deadline_ms = 1500;
  WireClient blocker(fleet.port());
  ASSERT_TRUE(blocker.connected());
  blocker.send_line(io::format_solve_request(needle_instance(), slow));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ... then push several distinct quick solves through: whichever shard
  // each sticks to, every one must come back solved (the sticky-but-full
  // ones after the needle's deadline), never as an overloaded error.
  for (const core::Problem& problem : table_grid(1)) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(io::parse_result_line(*response).result.solved()) << *response;
  }
  EXPECT_EQ(fleet.router().shed(), 0u);
  ASSERT_TRUE(blocker.recv_line().has_value());
}

TEST(Router, DeadShardFailsOverWithoutLosingRequests) {
  TestFleet fleet(2);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  // Warm the session across the fleet so cached shard connections exist.
  const std::vector<core::Problem> grid = table_grid(2);
  for (const core::Problem& problem : grid) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());
  }

  // Kill shard 0 outright (listener and sessions die; connects refuse).
  fleet.kill_shard(0);

  // Every request still answers: requests stuck to the dead shard retry on
  // a fresh connection, fail, and fail over to the live shard. Three
  // passes push the dead shard's sticky keys past the breaker threshold
  // (3 consecutive strikes) so the down transition is guaranteed.
  for (int pass = 0; pass < 3; ++pass) {
    for (const core::Problem& problem : grid) {
      client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      EXPECT_TRUE(io::parse_result_line(*response).result.solved())
          << *response;
    }
  }
  EXPECT_GE(fleet.router().retries(), 1u);
  EXPECT_GE(fleet.router().down_transitions(), 1u);
  EXPECT_EQ(fleet.router().shard_lost_errors(), 0u);

  // The health loop converges the fleet view; stats reports one shard up.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < give_up) {
    client.send_line(R"({"type":"stats"})");
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    converged = value_of(io::parse_flat_json(*response), "shards_up") == "1";
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(converged);
}

TEST(Router, NoHealthyShardAnswersTypedUnavailable) {
  // A router whose only endpoint refuses connections: the first request
  // discovers it (connect fails → marked down) and answers the typed
  // unavailable error instead of hanging — and the connection survives.
  const std::uint16_t dead_port = [] {
    TestServer probe(ServerOptions{.jobs = 1});
    return probe.port();  // released when probe drains
  }();
  RouterOptions options;
  options.shards.push_back(ShardAddress{"127.0.0.1", dead_port});
  TestRouter router(std::move(options));

  WireClient client(router.port());
  ASSERT_TRUE(client.connected());
  client.send_line(io::format_solve_request(gen::motivating_example(),
                                            api::SolveRequest{}, "u1"));
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "error");
  EXPECT_EQ(value_of(fields, "id"), "u1");
  EXPECT_EQ(value_of(fields, "code"), "unavailable");
  client.send_line(R"({"type":"ping"})");
  EXPECT_EQ(client.recv_line(), R"({"type":"pong"})");
}

TEST(Router, ConstructorRejectsAmbiguousShardConfiguration) {
  EXPECT_THROW(Router{RouterOptions{}}, std::runtime_error);
  RouterOptions both;
  both.spawn = 2;
  both.shards.push_back(ShardAddress{"127.0.0.1", 1});
  EXPECT_THROW(Router{std::move(both)}, std::runtime_error);
  RouterOptions zero_window;
  zero_window.spawn = 1;
  zero_window.window = 0;
  EXPECT_THROW(Router{std::move(zero_window)}, std::runtime_error);
}

TEST(Router, GracefulShutdownDrainsSessions) {
  auto fleet = std::make_unique<TestFleet>(2);
  const std::uint16_t port = fleet->port();
  WireClient client(port);
  ASSERT_TRUE(client.connected());
  client.send_line(io::format_solve_request(gen::motivating_example(),
                                            api::SolveRequest{}));
  ASSERT_TRUE(client.recv_line().has_value());

  fleet.reset();  // shutdown + join: drain must complete, not hang

  WireClient late(port);
  if (late.connected()) {
    late.send_line(R"({"type":"ping"})");
    EXPECT_FALSE(late.recv_line().has_value());
  }
}

TEST(Router, PathFieldIsRefusedWithoutOpeningTheFile) {
  // Neither the router (which parses solve lines for their routing key)
  // nor the shard it relays to may open a file the client names.
  const testing_wire::PathTargets targets("router-path");
  TestFleet fleet(2);
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());
  const std::vector<std::string> lines = targets.request_lines();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    client.send_line(lines[i]);
    testing_wire::expect_path_refused(client.recv_line(), i);
  }
}

}  // namespace
}  // namespace pipeopt::router
