/// Chaos harness: seeded fault campaigns over an in-process fleet
/// (net/fault.hpp at the shards, retry/failover and circuit breakers in
/// the router). The invariants under fire:
///
///  * every admitted request gets exactly one terminal response, solved
///    and byte-identical (modulo wall_s) to a fault-free run;
///  * a request torn out of a frame is never executed (no double
///    execution: fleet-wide solves == responses in an accept-close
///    campaign, where retried requests provably never reached a session);
///  * a fixed --fault-spec seed replays the exact same campaign;
///  * consecutive failures open a shard's breaker exactly once and the
///    state surfaces through stats/metrics;
///  * a flapping shard converges to Open instead of oscillating (the
///    up/down transition counters stay put);
///  * a torn shard stats/metrics answer drops that shard alone from the
///    merged fleet view;
///  * an expired relative deadline sheds typed before burning a slot.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "gen/motivating_example.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "io/stats_io.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "tests/router/fleet_harness.hpp"
#include "tests/server/wire_harness.hpp"
#include "util/fdio.hpp"

namespace pipeopt::router {
namespace {

using server::ServerOptions;
using testing_fleet::TestFleet;
using testing_fleet::value_of;
using testing_wire::TestServer;
using testing_wire::WireClient;
using testing_wire::comparable;
using testing_wire::needle_instance;
using testing_wire::needle_request;
using testing_wire::table_grid;

/// Effectively "off" for a test's lifetime: campaigns must be shaped by
/// the seeded decision streams alone, never by probe traffic racing them.
constexpr std::chrono::milliseconds kProbesOff{3'600'000};

std::uint64_t number_of(const io::JsonFields& fields, const std::string& key) {
  const auto text = value_of(fields, key);
  return text.has_value() ? std::stoull(*text) : 0u;
}

TEST(Chaos, AcceptCloseCampaignDeliversExactlyOneResponsePerRequest) {
  // Shards drop half of freshly accepted relay connections on the
  // floor. A dropped connection provably never read the request, so the
  // router's budgeted retries must deliver every solve exactly once:
  // fleet-wide executions equal responses, bytes match a clean solve.
  ServerOptions shard_options;
  shard_options.jobs = 2;
  shard_options.fault_spec = "17:0.5:close";
  RouterOptions options;
  options.retries = 12;
  options.retry_backoff = std::chrono::milliseconds(1);
  options.breaker_threshold = 100;  // breakers are test 3's subject
  options.health_interval = kProbesOff;
  TestFleet fleet(2, shard_options, std::move(options));

  // One fresh front connection per request: every relay starts from a new
  // router session, so every request draws the shards' accept streams
  // (a warm session's pooled relay connections would dodge the campaign).
  const std::vector<core::Problem> grid = table_grid(2);
  for (const core::Problem& problem : grid) {
    WireClient client(fleet.port());
    ASSERT_TRUE(client.connected());
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(comparable(*response),
              comparable(api::solve(problem, api::SolveRequest{})))
        << "response diverged under faults: " << *response;
  }

  // The campaign actually injected (the seed arms it), every retry is
  // accounted, and no request ran twice anywhere in the fleet.
  std::uint64_t injected = 0;
  std::uint64_t solves = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_NE(fleet.shard(i).server().fault_injector(), nullptr);
    injected += fleet.shard(i).server().fault_injector()->injected(
        net::FaultKind::Close);
    solves += fleet.shard(i).server().metrics().counter("solves").value();
  }
  EXPECT_GE(injected, 1u);
  EXPECT_GE(fleet.router().retries(), 1u);
  EXPECT_EQ(solves, grid.size());
  EXPECT_EQ(fleet.router().shard_lost_errors(), 0u);
}

TEST(Chaos, FixedSeedReplaysTheCampaignByteForByte) {
  // Two fleets with the same shard fault seed, plus one clean fleet. The
  // faulty runs must agree with each other AND with the fault-free run —
  // retried solves are indistinguishable from never-failed ones.
  const std::vector<core::Problem> grid = table_grid(2);
  const auto campaign = [&](const std::string& fault_spec) {
    ServerOptions shard_options;
    shard_options.jobs = 2;
    shard_options.fault_spec = fault_spec;
    RouterOptions options;
    options.retries = 12;
    options.retry_backoff = std::chrono::milliseconds(1);
    options.breaker_threshold = 100;
    options.health_interval = kProbesOff;
    TestFleet fleet(2, shard_options, std::move(options));
    std::vector<std::string> responses;
    for (const core::Problem& problem : grid) {
      WireClient client(fleet.port());  // fresh session: draw the accepts
      EXPECT_TRUE(client.connected());
      client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
      const auto response = client.recv_line();
      EXPECT_TRUE(response.has_value());
      if (response.has_value() && response->find("\"error\"") != std::string::npos) {
        ADD_FAILURE() << "error line: " << *response;
      }
      responses.push_back(comparable(response.value_or("")));
    }
    return responses;
  };

  // No `truncate` here: a torn shard response surfaces as a typed
  // shard-lost error by design (the router never re-executes work that
  // may have run) — healing that one takes the CLI client's retry
  // engine, which the ci.sh chaos stage exercises end to end.
  const std::vector<std::string> clean = campaign("");
  const std::vector<std::string> first =
      campaign("21:0.2:close,partial,delay");
  const std::vector<std::string> second =
      campaign("21:0.2:close,partial,delay");
  ASSERT_EQ(first.size(), grid.size());
  EXPECT_EQ(first, second) << "same seed, different campaign";
  EXPECT_EQ(first, clean) << "faulted responses diverged from clean run";
}

TEST(Chaos, ConsecutiveFailuresOpenTheBreakerOnceAndSurfaceIt) {
  RouterOptions options;
  options.health_interval = kProbesOff;  // breaker moves on relay evidence
  TestFleet fleet(2, ServerOptions{.jobs = 2}, std::move(options));
  WireClient client(fleet.port());
  ASSERT_TRUE(client.connected());

  fleet.kill_shard(0);

  // Every request still answers via failover; the strikes against the
  // dead shard open its breaker exactly once. Three passes guarantee the
  // dead shard's sticky keys strike it past the threshold (3) even if
  // only one grid key hashes there.
  for (int pass = 0; pass < 3; ++pass) {
    for (const core::Problem& problem : table_grid(2)) {
      client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      EXPECT_TRUE(io::parse_result_line(*response).result.solved())
          << *response;
    }
  }
  const std::vector<ShardInfo> infos = fleet.router().shard_infos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].breaker, BreakerState::Open);
  EXPECT_FALSE(infos[0].healthy);
  EXPECT_EQ(infos[0].down_transitions, 1u);
  EXPECT_EQ(infos[0].up_transitions, 0u);
  EXPECT_EQ(infos[1].breaker, BreakerState::Closed);
  EXPECT_TRUE(infos[1].healthy);

  // The state surfaces on the wire: per-shard breaker gauges in metrics
  // (Closed=0, HalfOpen=1, Open=2) with the per-code retry counters, and
  // the transition counters in stats.
  client.send_line(R"({"type":"metrics"})");
  const auto metrics_line = client.recv_line();
  ASSERT_TRUE(metrics_line.has_value());
  const io::JsonFields metrics = io::parse_flat_json(*metrics_line);
  EXPECT_EQ(value_of(metrics, "shard.0.breaker_state"), "2");
  EXPECT_EQ(value_of(metrics, "shard.1.breaker_state"), "0");
  EXPECT_GE(number_of(metrics, "retries_by_code.connect"), 1u);

  client.send_line(R"({"type":"stats"})");
  const auto stats_line = client.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  const io::JsonFields stats = io::parse_flat_json(*stats_line);
  EXPECT_EQ(value_of(stats, "shards_up"), "1");
  EXPECT_EQ(value_of(stats, "shard_down_transitions"), "1");
  EXPECT_EQ(value_of(stats, "shard_up_transitions"), "0");
  EXPECT_GE(number_of(stats, "retries"), 1u);
}

/// A hand-rolled shard endpoint: for each accepted connection it reads
/// one request line, writes back the exact bytes `answer(n, line)` returns
/// for the n-th connection (empty: none), then closes.
class FakeShard {
 public:
  using Answer =
      std::function<std::string(std::uint64_t, const std::string& line)>;

  explicit FakeShard(Answer answer) : answer_(std::move(answer)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 16);
    thread_ = std::thread([this] { loop(); });
  }

  ~FakeShard() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void loop() {
    std::uint64_t accepted = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd waiter{fd_, POLLIN, 0};
      if (::poll(&waiter, 1, 20) <= 0) continue;
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client < 0) continue;
      util::FdLineReader reader(client);
      std::string line;
      if (reader.next_line(line)) {
        // Best effort, like any shard: the router may already be gone.
        const std::string bytes = answer_(accepted, line);
        ::send(client, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
      ++accepted;
      ::close(client);
    }
  }

  Answer answer_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A whole, well-formed health answer.
constexpr const char kHealthLine[] =
    R"({"type":"health","pid":"0","uptime_s":"0.0","in_flight":"0"})" "\n";

TEST(Chaos, FlappingShardConvergesToOpenWithoutPumpingTransitions) {
  // Strict alternation never produces breaker_close_successes (2)
  // successes in a row, so strikes only accumulate: the breaker opens
  // exactly once (down == 1) and never closes again (up == 0), instead of
  // flapping the routing view on every probe.
  // Even connections answer the health probe properly, odd ones are
  // accepted then dropped without a byte: the canonical flapping endpoint.
  FakeShard flaky([](std::uint64_t n, const std::string&) {
    return n % 2 == 0 ? std::string(kHealthLine) : std::string();
  });
  RouterOptions options;
  options.shards.push_back(ShardAddress{"127.0.0.1", flaky.port()});
  options.health_interval = std::chrono::milliseconds(20);
  testing_fleet::TestRouter router(std::move(options));

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.router().down_transitions() < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(router.router().down_transitions(), 1u);
  // Let a dozen more probe rounds flap; the counters must not move.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::vector<ShardInfo> infos = router.router().shard_infos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].down_transitions, 1u);
  EXPECT_EQ(infos[0].up_transitions, 0u);
  EXPECT_NE(infos[0].breaker, BreakerState::Closed);
  EXPECT_FALSE(infos[0].healthy);
}

TEST(Chaos, TornShardAnswerKeepsTheOtherShardsCounters) {
  // One shard answers health properly but cuts its stats and metrics
  // answers mid-field and closes. The real shard beside it must still
  // show in both merged fleet views: the torn line is dropped alone.
  FakeShard torn([](std::uint64_t, const std::string& line) {
    const std::string type =
        io::stats_field(io::parse_flat_json(line), "type");
    if (type == "health") return std::string(kHealthLine);
    return R"({"type":")" + type + R"(","requests":"1","sol)";
  });
  TestServer real(ServerOptions{.jobs = 2});
  RouterOptions options;
  options.shards.push_back(ShardAddress{"127.0.0.1", torn.port()});
  options.shards.push_back(ShardAddress{"127.0.0.1", real.port()});
  options.health_interval = kProbesOff;
  testing_fleet::TestRouter router(std::move(options));
  WireClient client(router.port());
  ASSERT_TRUE(client.connected());

  client.send_line(R"({"type":"stats"})");
  const auto stats_line = client.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  const io::JsonFields stats = io::parse_flat_json(*stats_line);
  EXPECT_EQ(value_of(stats, "shards_up"), "2");
  EXPECT_EQ(value_of(stats, "jobs"), "2");      // the real shard's pool
  EXPECT_EQ(value_of(stats, "requests"), "1");  // this very fan-out

  client.send_line(R"({"type":"metrics"})");
  const auto metrics_line = client.recv_line();
  ASSERT_TRUE(metrics_line.has_value());
  const io::JsonFields metrics = io::parse_flat_json(*metrics_line);
  EXPECT_EQ(value_of(metrics, "shards_up"), "2");
  EXPECT_EQ(value_of(metrics, "in_flight"), "0");  // the real shard's gauge
}

TEST(Chaos, ExpiredDeadlineShedsTypedBeforeBurningASlot) {
  // One shard, window 1, slot held by a deadline-bounded needle: a waiter
  // whose own relative deadline elapses while queued is shed with the
  // typed "expired" error near its deadline — not after the needle's.
  RouterOptions options;
  options.window = 1;
  options.health_interval = kProbesOff;
  TestFleet fleet(1, ServerOptions{.jobs = 2}, std::move(options));

  WireClient blocker(fleet.port());
  ASSERT_TRUE(blocker.connected());
  api::SolveRequest slow = needle_request();
  slow.deadline_ms = 3000;
  blocker.send_line(io::format_solve_request(needle_instance(), slow));
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

  WireClient waiter(fleet.port());
  ASSERT_TRUE(waiter.connected());
  api::SolveRequest doomed;
  doomed.deadline_ms = 150;
  const auto t0 = std::chrono::steady_clock::now();
  waiter.send_line(
      io::format_solve_request(gen::motivating_example(), doomed, "e1"));
  const auto response = waiter.recv_line();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "error");
  EXPECT_EQ(value_of(fields, "id"), "e1");
  EXPECT_EQ(value_of(fields, "code"), "expired");
  EXPECT_EQ(value_of(fields, "message"), "deadline expired before dispatch");
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_GE(fleet.router().shed_expired(), 1u);
  EXPECT_EQ(fleet.router().shed(), 0u);  // typed apart from overload sheds

  // The shed rides stats (its own field) and metrics (a counter), and the
  // waiter's connection survived to ask.
  ASSERT_TRUE(blocker.recv_line().has_value());
  waiter.send_line(R"({"type":"stats"})");
  const auto stats_line = waiter.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  EXPECT_GE(number_of(io::parse_flat_json(*stats_line), "shed_expired"), 1u);
  waiter.send_line(R"({"type":"metrics"})");
  const auto metrics_line = waiter.recv_line();
  ASSERT_TRUE(metrics_line.has_value());
  EXPECT_GE(number_of(io::parse_flat_json(*metrics_line), "shed_expired"), 1u);
}

}  // namespace
}  // namespace pipeopt::router
