#include "ladder.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/cache.hpp"
#include "api/executor.hpp"
#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "core/eval_batch.hpp"
#include "heuristics/neighborhood.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "util/stats.hpp"
#include "wire.hpp"

namespace fleetbench {

using namespace pipeopt;
using Clock = std::chrono::steady_clock;

namespace {

/// Requests the ladder walks at least, however short its time: the median
/// residual the self times are checked against needs a few hundred.
constexpr std::size_t kMinRequests = 200;
/// Instances whose neighbourhoods time the `core` evaluator.
constexpr std::size_t kEvalInstances = 32;
/// Sends replayed through a standalone cache for `api.cache.lookup_us`.
constexpr std::size_t kCacheReplays = 4096;
/// The self times add up when what no layer owns stays within this share
/// of the round trip they are checked against.
constexpr double kAddsUpShare = 0.10;

volatile double eval_sink = 0.0;

/// In-memory span log: one record per ladder boundary.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index of the causing span, -1 for a root
    std::uint64_t request;
  };

  /// Records a finished span; returns its index.
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::uint64_t request) {
    spans_.push_back({name, ns(start), ns(end), parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Reserves a slot for a span whose end is not known yet.
  std::int64_t open(const char* name, Clock::time_point start,
                    std::uint64_t request) {
    return record(name, start, start, -1, request);
  }
  void close(std::int64_t index, Clock::time_point end) {
    spans_[static_cast<std::size_t>(index)].end_ns = ns(end);
  }

  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"span\":%zu,\"parent\":%lld,\"request\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fclose(out);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

double us(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

struct Mean {
  double sum = 0.0;
  std::uint64_t count = 0;
  void add(double value) {
    sum += value;
    ++count;
  }
  [[nodiscard]] double value() const { return count == 0 ? 0.0 : sum / count; }
};

std::uint64_t diagnostic(const api::SolveResult& result, const char* key) {
  for (const auto& [k, v] : result.diagnostics) {
    if (k == key) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return 0;
}

/// The in-process rungs: two bare servers, a router over the first one and
/// a router over both. Torn down routers first.
struct Stack {
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<std::unique_ptr<router::Router>> routers;
  std::vector<std::thread> threads;

  Stack() {
    for (int i = 0; i < 2; ++i) {
      servers.push_back(
          std::make_unique<server::Server>(server::ServerOptions{.jobs = 1}));
      servers.back()->listen();
      threads.emplace_back([s = servers.back().get()] { s->serve(); });
    }
    for (const std::size_t shards : {std::size_t{1}, kShards}) {
      router::RouterOptions options;
      for (std::size_t i = 0; i < shards; ++i) {
        options.shards.push_back(
            router::ShardAddress{"127.0.0.1", servers[i % 2]->port()});
      }
      routers.push_back(std::make_unique<router::Router>(std::move(options)));
      routers.back()->listen();
      threads.emplace_back([r = routers.back().get()] { r->serve(); });
    }
  }
  ~Stack() {
    for (auto& r : routers) r->shutdown();
    for (auto& s : servers) s->shutdown();
    for (auto& t : threads) t.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// Mean microseconds of key + lookup through a standalone cache of one
/// shard's capacity, replaying the workload's solve sends in order.
double cache_lookup_us(const Workload& workload) {
  api::SolveCache cache(kCacheEntries);
  std::unordered_map<std::uint32_t, io::WireSolveRequest> decoded;
  Mean lookup;
  const std::size_t sends = std::min(kCacheReplays, workload.order.size());
  for (std::size_t n = 0; n < sends; ++n) {
    const std::uint32_t index = workload.order[n];
    const PoolEntry& entry = workload.pool[index];
    if (entry.pareto) continue;
    auto it = decoded.find(index);
    if (it == decoded.end()) {
      it = decoded.emplace(index, io::parse_solve_request_line(entry.line)).first;
    }
    const auto start = Clock::now();
    const std::string key = api::SolveCache::key(it->second.problem, it->second.request);
    const bool hit = cache.lookup(key).has_value();
    lookup.add(us(start, Clock::now()));
    if (!hit) cache.insert(key, io::parse_result_line(entry.expected.front()).result);
  }
  return lookup.value();
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return util::Summary::sorted_quantile(values, q);
}

LadderReport run_ladder(const Workload& workload, double seconds,
                        const std::string& trace_path) {
  const api::SolverRegistry& registry = api::default_registry();
  api::Executor executor(api::ExecutorOptions{.jobs = 1});
  Stack stack;
  const auto timeout = std::chrono::seconds(60);
  Conn to_server(stack.servers[0]->port(), timeout);
  Conn to_router1(stack.routers[0]->port(), timeout);
  Conn to_routerN(stack.routers[1]->port(), timeout);
  Tracer tracer;
  LadderReport report;

  Mean parse, format, bind, api_total, hop, server_self, relay, fanout, check_rtt;
  Mean algorithms, exact, heuristics, sweep, points, exact_nodes;
  double exact_us = 0.0, nodes = 0.0, heuristic_us = 0.0, evals = 0.0;
  double burn_us = 0.0, degraded_us = 0.0;
  // Per request: the check rung's round trip, and it less the self times.
  std::vector<double> check_rtts, residuals;
  std::vector<std::pair<core::Problem, core::Mapping>> eval_inputs;

  std::mt19937_64 shuffler(0x5eed);
  const auto started = Clock::now();
  std::vector<std::string> response;
  for (std::uint64_t r = 0;; ++r) {
    if (r >= kMinRequests && us(started, Clock::now()) >= seconds * 1e6) break;
    const PoolEntry& entry = workload.pool[workload.order[r % workload.order.size()]];
    ++report.requests;
    const std::int64_t root = tracer.open("ladder.request", Clock::now(), r);
    const auto span = [&](const char* name, Clock::time_point start,
                          Clock::time_point end) {
      tracer.record(name, start, end, root, r);
      return us(start, end);
    };

    // Rungs 1-2: io and api in-process, then the executor hop.
    // The executor's overhead is its round trip minus its own solve time;
    // the hop is that overhead less the bind the executor also performs.
    double io_us = 0.0, api_us = 0.0, executor_overhead_us = 0.0, hop_us = 0.0;
    if (!entry.pareto) {
      auto t0 = Clock::now();
      const io::WireSolveRequest wire = io::parse_solve_request_line(entry.line);
      auto t1 = Clock::now();
      const api::SolvePlan plan = registry.plan(wire.problem, wire.request);
      auto t2 = Clock::now();
      const api::SolveResult result = plan.execute();
      auto t3 = Clock::now();
      const std::string text = io::format_result(result, wire.id);
      auto t4 = Clock::now();
      const double parse_us = span("io.parse", t0, t1);
      const double bind_us = span("api.plan.bind", t1, t2);
      const double execute_us = span("api.execute", t2, t3);
      const double format_us = span("io.format", t3, t4);
      parse.add(parse_us);
      format.add(format_us);
      bind.add(bind_us);
      io_us = parse_us + format_us;
      api_us = bind_us + execute_us;
      if (strip_wall(text) != entry.expected.front()) ++report.mismatched;

      // Attribute the execution to the tier that answered; a request that
      // degraded re-runs each exact engine that burned its budget, alone,
      // to split exact burn from heuristic time.
      const api::Solver* winner = registry.find(result.solver);
      const api::CostTier tier = winner ? winner->info().tier : api::CostTier::Heuristic;
      double burned = 0.0;
      std::uint64_t burned_nodes = 0;
      constexpr std::string_view kBurned = ": budget exhausted";
      for (const auto& [key, value] : result.diagnostics) {
        if (key != "skipped" || value.size() <= kBurned.size() ||
            value.compare(value.size() - kBurned.size(), kBurned.size(), kBurned) != 0) {
          continue;
        }
        const api::Solver* engine =
            registry.find(value.substr(0, value.size() - kBurned.size()));
        if (engine == nullptr || engine->info().tier != api::CostTier::Exact) continue;
        const auto b0 = Clock::now();
        const api::SolveResult burn = engine->run(plan.problem(), wire.request);
        burned += span("exact.burn", b0, Clock::now());
        burned_nodes += std::max(diagnostic(burn, "nodes"), diagnostic(burn, "node-budget"));
      }
      if (tier == api::CostTier::Polynomial) algorithms.add(execute_us);
      if (tier == api::CostTier::Exact) {
        exact.add(execute_us);
        exact_us += execute_us;
        const auto n = static_cast<double>(diagnostic(result, "nodes"));
        nodes += n;
        exact_nodes.add(n);
      } else if (burned > 0.0) {
        exact.add(burned);
        exact_us += burned;
        nodes += static_cast<double>(burned_nodes);
        exact_nodes.add(static_cast<double>(burned_nodes));
        burn_us += std::min(burned, execute_us);
        degraded_us += execute_us;
      }
      if (tier == api::CostTier::Heuristic) {
        const double own = std::max(execute_us - burned, 0.0);
        heuristics.add(own);
        heuristic_us += own;
        evals += static_cast<double>(diagnostic(result, "evals"));
      }
      if (result.mapping && eval_inputs.size() < kEvalInstances) {
        eval_inputs.emplace_back(wire.problem, *result.mapping);
      }

      const auto e0 = Clock::now();
      const api::SolveResult pooled =
          executor.solve_async(wire.problem, wire.request).get();
      executor_overhead_us =
          span("api.executor", e0, Clock::now()) - pooled.wall_seconds * 1e6;
      hop_us = executor_overhead_us - bind_us;
      if (io::format_result(pooled, wire.id, false) != entry.expected.front()) {
        ++report.mismatched;
      }
    } else {
      auto t0 = Clock::now();
      const io::WireParetoRequest wire = io::parse_pareto_request_line(entry.line);
      auto t1 = Clock::now();
      const api::ParetoFront front = api::sweep(registry, wire.problem, wire.request);
      auto t2 = Clock::now();
      std::vector<std::string> lines;
      for (const std::size_t index : front.front) {
        const api::SweepEvaluation& point = front.evaluations[index];
        lines.push_back(io::format_front_point(point.result, point.bound, wire.id));
      }
      lines.push_back(io::format_pareto_summary(front, wire.id));
      auto t3 = Clock::now();
      const double parse_us = span("io.parse", t0, t1);
      const double sweep_us = span("api.sweep", t1, t2);
      const double format_us = span("io.format", t2, t3);
      parse.add(parse_us);
      format.add(format_us);
      sweep.add(sweep_us);
      points.add(static_cast<double>(front.evaluations.size()));
      io_us = parse_us + format_us;
      api_us = sweep_us;
      if (!matches(lines, entry)) ++report.mismatched;

      const auto e0 = Clock::now();
      const api::ParetoFront pooled = executor.sweep(wire.problem, wire.request);
      executor_overhead_us =
          span("api.executor", e0, Clock::now()) - pooled.wall_seconds * 1e6;
      hop_us = executor_overhead_us;
      if (pooled.front != front.front) ++report.mismatched;
    }

    // Rungs 3-5 over the wire, one client, in a shuffled order per request
    // so no rung systematically follows another (a rung runs faster right
    // after another has warmed the same path). A rung's overhead is its
    // round trip minus the solve time its own response reports in `wall_s`,
    // which keeps run-to-run solver noise out of the wire layers' self
    // times. The top rung runs twice: the second round trip is the one the
    // self times must add up to, measured apart from those they come from.
    struct WireRung {
      Conn* conn;
      const char* name;
      double rtt_us = 0.0;
      double overhead_us = 0.0;
    };
    WireRung rungs[] = {{&to_server, "server"},
                        {&to_router1, "router.1"},
                        {&to_routerN, "router.N"},
                        {&to_routerN, "router.N.check"}};
    std::array<std::size_t, std::size(rungs)> sequence{0, 1, 2, 3};
    std::shuffle(sequence.begin(), sequence.end(), shuffler);
    for (const std::size_t k : sequence) {
      WireRung& rung = rungs[k];
      const auto start = Clock::now();
      bool ok = rung.conn->send(entry.line);
      const auto sent = Clock::now();
      response.clear();
      for (std::string line; ok;) {
        ok = rung.conn->read_line(line);
        if (!ok) break;
        const bool more = entry.pareto && line_type(line) == "result";
        response.push_back(std::move(line));
        if (!more) break;
      }
      const auto end = Clock::now();
      rung.rtt_us = us(start, end);
      const std::int64_t id = tracer.record(rung.name, start, end, root, r);
      tracer.record("client.write", start, sent, id, r);
      tracer.record("client.read", sent, end, id, r);
      if (!ok) {
        ++report.failed;
        continue;
      }
      if (!matches(response, entry)) ++report.mismatched;
      const double wall_s =
          std::strtod(field(io::parse_flat_json(response.back()), "wall_s").c_str(), nullptr);
      rung.overhead_us = rung.rtt_us - wall_s * 1e6;
    }
    tracer.close(root, Clock::now());

    const double server_us = rungs[0].overhead_us - executor_overhead_us - io_us;
    const double relay_us = rungs[1].overhead_us - rungs[0].overhead_us;
    const double fanout_us = rungs[2].overhead_us - rungs[1].overhead_us;
    api_total.add(api_us);
    hop.add(hop_us);
    server_self.add(server_us);
    relay.add(relay_us);
    fanout.add(fanout_us);
    check_rtt.add(rungs[3].rtt_us);
    check_rtts.push_back(rungs[3].rtt_us);
    residuals.push_back(rungs[3].rtt_us -
                        (io_us + api_us + hop_us + server_us + relay_us + fanout_us));
  }

  // core: full vs delta evaluation over the neighbourhoods of the mappings
  // the workload's own requests produced (bit-identity checked first).
  Mean full_ns, delta_ns;
  for (const auto& [problem, mapping] : eval_inputs) {
    std::vector<heuristics::Neighbour> moves = heuristics::neighbour_moves(problem, mapping);
    if (moves.empty()) continue;
    if (moves.size() > 256) moves.resize(256);
    core::BatchEvaluator evaluator(problem);
    evaluator.bind_base(mapping);
    for (const auto& move : moves) {
      const core::Metrics full = evaluator.evaluate(move.mapping);
      const core::Metrics& delta = evaluator.evaluate_delta(move.mapping, move.touched());
      if (full.max_weighted_period != delta.max_weighted_period ||
          full.max_weighted_latency != delta.max_weighted_latency ||
          full.energy != delta.energy) {
        ++report.mismatched;
      }
    }
    const std::size_t rounds = std::max<std::size_t>(1, 20000 / moves.size());
    double sink = 0.0;
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) {
      for (const auto& move : moves) sink += evaluator.evaluate(move.mapping).energy;
    }
    auto t1 = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) {
      for (const auto& move : moves) {
        sink += evaluator.evaluate_delta(move.mapping, move.touched()).energy;
      }
    }
    auto t2 = Clock::now();
    const double evaluations = static_cast<double>(rounds * moves.size());
    full_ns.add(us(t0, t1) * 1e3 / evaluations);
    delta_ns.add(us(t1, t2) * 1e3 / evaluations);
    eval_sink = sink;  // the timed loops' results stay observable
  }

  // Every mean below is over the same requests. The self times telescope
  // to the router/N rung's round trip less the gap between its `wall_s`
  // and the in-process execute time; the check rung's independent round
  // trip minus their sum is what no layer owns. The check takes that
  // per request and asks its median to stay small: a few stalls of tens
  // of milliseconds on one rung and not the other move the mean, not it.
  const double io_total = parse.value() + format.value();
  const double self_total = io_total + api_total.value() + hop.value() +
                            server_self.value() + relay.value() + fanout.value();
  const double total = check_rtt.value();
  const double unattributed = total - self_total;
  const double residual_p50 = quantile(residuals, 0.5);
  const double check_p50 = quantile(check_rtts, 0.5);
  report.adds_up = std::abs(residual_p50) <= kAddsUpShare * check_p50;

  report.metrics = {
      {"router.relay_us", relay.value()},
      {"router.fanout_us", fanout.value()},
      {"server.self_us", server_self.value()},
      {"io.parse_us", parse.value()},
      {"io.format_us", format.value()},
      {"api.executor.hop_us", hop.value()},
      {"api.plan.bind_us", bind.value()},
      {"api.cache.lookup_us", cache_lookup_us(workload)},
      {"api.sweep.execute_us", sweep.value()},
      {"api.sweep.points_per_req", points.value()},
      {"algorithms.execute_us", algorithms.value()},
      {"exact.execute_us", exact.value()},
      {"exact.nodes_per_req", exact_nodes.value()},
      {"exact.nodes_per_s", exact_us > 0 ? nodes / (exact_us * 1e-6) : 0.0},
      {"exact.burn_share", degraded_us > 0 ? burn_us / degraded_us : 0.0},
      {"heuristics.execute_us", heuristics.value()},
      {"heuristics.evals_per_s", heuristic_us > 0 ? evals / (heuristic_us * 1e-6) : 0.0},
      {"core.full_eval_ns", full_ns.value()},
      {"core.delta_eval_ns", delta_ns.value()},
      {"unattributed_us", unattributed},
  };

  const auto share = [&](double part) { return total > 0 ? 100.0 * part / total : 0.0; };
  char line[512];
  std::snprintf(line, sizeof line,
                "ladder: %llu requests, 1-client router/N round trip %.1f us = io %.1f "
                "(%.0f%%) + api %.1f (%.0f%%) + executor hop %.1f (%.0f%%) + server %.1f "
                "(%.0f%%) + router relay %.1f (%.0f%%) + router/1 to router/N %.1f "
                "(%.0f%%) + unattributed %.1f (%.1f%%)",
                static_cast<unsigned long long>(report.requests), total, io_total,
                share(io_total), api_total.value(), share(api_total.value()),
                hop.value(), share(hop.value()), server_self.value(),
                share(server_self.value()), relay.value(), share(relay.value()),
                fanout.value(), share(fanout.value()), unattributed, share(unattributed));
  report.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "ladder: per request, router/N check round trip less the self times: "
                "median %.1f us of a median %.1f us round trip (limit %.0f%%)",
                residual_p50, check_p50, 100.0 * kAddsUpShare);
  report.notes.push_back(line);
  const double solver_share =
      share((exact.sum + heuristics.sum + algorithms.sum + sweep.sum) /
            std::max<double>(1.0, static_cast<double>(report.requests)));
  std::snprintf(line, sizeof line,
                "ladder: solver execute time (algorithms+exact+heuristics+sweep) is "
                "%.0f%% of the round trip; wire layers (io+server+relay+fan-out+hop) %.0f%%",
                solver_share,
                share(io_total + server_self.value() + relay.value() + fanout.value() +
                      hop.value()));
  report.notes.push_back(line);

  tracer.write(trace_path);
  return report;
}

}  // namespace fleetbench
