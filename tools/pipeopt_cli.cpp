/// \file pipeopt_cli.cpp
/// Command-line front end over the `pipeopt::api` facade.
///
///   pipeopt <problem-file> <command> [args]
///
/// commands:
///   show                         parse + echo the instance
///   solve --objective period|latency|energy [options]
///                                one call for every optimizer: capability
///                                dispatch picks the cheapest applicable
///                                solver unless --solver forces one
///     --solver auto|<name>       force a registered solver (default auto)
///     --kind interval|one-to-one mapping family (default interval)
///     --period-bounds T[,T...]   per-app period thresholds
///     --latency-bounds L[,L...]  per-app latency thresholds
///     --energy-budget E          global energy budget
///     --weights unit|priority|stretch   Eq. 6 weight policy
///     --node-budget N            exact-search node budget
///     --time-budget S            heuristic wall-clock budget (seconds)
///     --seed N                   seed for stochastic solvers
///   solve-batch --objective ... [--jobs N] [--out results.jsonl]
///                                [solve options]
///                                <problem-file> is a JSONL manifest (one
///                                {"path": ...} or {"problem": ...} object
///                                per line); all instances are solved under
///                                one request, sharing one dispatch plan
///                                across a worker pool of N threads; --out
///                                writes one result_io JSONL line per
///                                instance (the server wire format)
///   pareto --sweep-bounds B,...  Pareto-front sweep (api/sweep.hpp):
///         [--sweep period|latency|energy] [--refine N] [--jobs N]
///         [--out front.jsonl] [solve options]
///                                minimize --objective (default energy) at
///                                each bound of the swept criterion
///                                (default period), filter to the Pareto
///                                front, print it with witness solver
///                                names; --out writes one result_io wire
///                                line per front point plus the terminal
///                                pareto summary line (exactly what the
///                                server streams for {"type":"pareto"})
///   list-solvers                 registered solvers, dispatch order,
///                                applicability for this instance
///   min-period [--exact]         legacy alias of solve --objective period
///   min-latency                  legacy alias of solve --objective latency
///   min-energy T1,T2,...         legacy alias of solve --objective energy
///   simulate D                   run the period-optimal mapping for D data
///                                sets and report measured period/latency
///
/// Two commands take no problem file (they come first on the command line):
///
///   pipeopt serve [--host H] [--port N] [--jobs N] [--cache-entries N]
///                 [--stdio]
///                                long-lived JSONL solve service over TCP
///                                (src/server/); --port 0 picks an
///                                ephemeral port, announced on stdout;
///                                --cache-entries N switches the solve
///                                cache on (repeat requests answer
///                                byte-identically from it); --stdio
///                                serves stdin/stdout instead
///   pipeopt route (--shards H:P,H:P,... | --spawn N) [--host H] [--port N]
///                 [--jobs N] [--cache-entries N] [--window N]
///                 [--health-interval-ms MS]
///                                sharded front tier (src/router/): speaks
///                                the server protocol, routes each request
///                                to a shard by its canonical solve key
///                                (byte-identical responses, shard-coherent
///                                caches), health-checks the shards, and in
///                                --spawn mode forks N local servers and
///                                restarts them when they die; answers
///                                ping/health itself and merges stats
///                                across the fleet; when every shard is at
///                                its --window in-flight cap, requests shed
///                                with {"type":"error","code":"overloaded"}
///   pipeopt client [--host H] --port N
///                  (--manifest M [--pareto] [solve/sweep options] | F)
///                                scripted load generator: with --manifest,
///                                one solve request per manifest instance
///                                under shared solve flags (--pareto sends
///                                pareto sweep requests instead, with the
///                                sweep flags above); otherwise raw JSONL
///                                request lines from file F ("-" = stdin).
///                                Lock-step send/receive; responses echo to
///                                stdout, and a pareto request drains its
///                                streamed front through the terminal
///                                summary line. --retries N grants N extra
///                                attempts per failure point (code-aware:
///                                see docs/PROTOCOL.md's retryability
///                                table) with --backoff-ms capped backoff;
///                                retry counts per code print to stderr on
///                                exit, and exit 3 means the budget is gone
///
/// Exit codes: 0 solved, 1 infeasible (or search budget exhausted),
/// 2 usage/parse errors (including unknown or inapplicable solver names),
/// 3 transport failures (the client cannot connect, or the connection is
/// lost before a response arrives — scripts distinguish "the server said
/// no" from "there was no server to ask"). solve-batch aggregates
/// per-instance codes: the worst one wins (2 > 1 > 0), so a batch exits 0
/// only when every instance solved; the client aggregates its responses
/// the same way (a server-side error line counts as 2).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/adapters.hpp"
#include "api/executor.hpp"
#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "core/evaluation.hpp"
#include "io/problem_io.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "net/socket.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "util/fdio.hpp"
#include "util/numeric.hpp"
#include "util/retry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace pipeopt;

int usage() {
  std::fputs(
      "usage: pipeopt <problem-file> <command> [args]\n"
      "       pipeopt serve|route|client [args]\n"
      "  show                       echo the parsed instance\n"
      "  solve --objective period|latency|energy [--solver auto|<name>]\n"
      "        [--kind interval|one-to-one] [--period-bounds T[,T...]]\n"
      "        [--latency-bounds L[,L...]] [--energy-budget E]\n"
      "        [--weights unit|priority|stretch] [--node-budget N]\n"
      "        [--time-budget S] [--seed N] [--timeout-ms MS]\n"
      "  solve-batch --objective ... [--jobs N] [--out results.jsonl]\n"
      "                             problem-file is a JSONL manifest; one\n"
      "                             request, one dispatch plan, N workers\n"
      "  pareto --sweep-bounds B1[,B2...] [--sweep period|latency|energy]\n"
      "         [--refine N] [--jobs N] [--out front.jsonl] [solve opts]\n"
      "                             Pareto-front sweep: minimize the\n"
      "                             objective (default energy) under each\n"
      "                             swept bound (default period)\n"
      "  list-solvers               registered solvers in dispatch order\n"
      "  min-period [--exact]       alias: solve --objective period\n"
      "  min-latency                alias: solve --objective latency\n"
      "  min-energy T1,T2,...       alias: solve --objective energy\n"
      "  simulate <datasets>        execute the period-optimal mapping\n"
      "  serve [--host H] [--port N] [--jobs N] [--cache-entries N]\n"
      "        [--trace-log F] [--fault-spec S] [--stdio]\n"
      "                             JSONL-over-TCP solve service (no\n"
      "                             problem file; --port 0 = ephemeral;\n"
      "                             --cache-entries N = solve cache on;\n"
      "                             --trace-log F = per-request span JSONL;\n"
      "                             --fault-spec seed:prob:kinds = seeded\n"
      "                             fault injection, chaos testing only)\n"
      "  route (--shards H:P,... | --spawn N) [--host H] [--port N]\n"
      "        [--jobs N] [--cache-entries N] [--window N]\n"
      "        [--health-interval-ms MS] [--trace-log F]\n"
      "        [--shard-trace-log P] [--retries N] [--backoff-ms MS]\n"
      "        [--breaker-threshold N] [--breaker-cooldown-ms MS]\n"
      "        [--fault-spec S]\n"
      "                             sharded front tier over N servers:\n"
      "                             sticky key-hash routing, health checks,\n"
      "                             restarts (--spawn), per-shard circuit\n"
      "                             breakers, budgeted retry/failover,\n"
      "                             deadline-aware shedding, load shedding,\n"
      "                             merged stats + metrics, fleet tracing\n"
      "  client [--host H] --port N\n"
      "         (--manifest M [--pareto] [solve/sweep opts] | F | -)\n"
      "         [--retries N] [--backoff-ms MS]\n"
      "         [--poll-stats MS --poll-out F]\n"
      "                             send request lines, echo responses;\n"
      "                             --retries = code-aware retry with capped\n"
      "                             backoff (exit 3 only after the budget);\n"
      "                             --poll-stats samples stats+metrics to\n"
      "                             a JSONL file while the load runs\n"
      "  top [--host H] --port N [--interval-ms MS] [--iterations N]\n"
      "      [--no-clear]           live fleet view: per-shard liveness and\n"
      "                             per-solver latency quantiles, refreshed\n"
      "                             from stats+metrics every interval\n",
      stderr);
  return 2;
}

using util::parse_number;

/// Parses "T" or "T1,T2,..." into per-application thresholds. Empty tokens
/// (",5", "5,,") are malformed — usage error per the exit-code contract.
std::optional<core::Thresholds> parse_bounds(const core::Problem& problem,
                                             const std::string& text) {
  std::vector<double> bounds;
  std::string token;
  for (std::size_t i = 0;; ++i) {
    if (i == text.size() || text[i] == ',') {
      const auto bound = parse_number<double>(token);
      if (!bound) return std::nullopt;
      bounds.push_back(*bound);
      token.clear();
      if (i == text.size()) break;
    } else {
      token += text[i];
    }
  }
  if (bounds.empty()) return std::nullopt;
  if (bounds.size() == 1) {
    bounds.assign(problem.application_count(), bounds.front());
  }
  if (bounds.size() != problem.application_count()) return std::nullopt;
  return core::Thresholds::per_app(std::move(bounds));
}

void print_result(const core::Problem& problem, const api::SolveRequest& request,
                  const api::SolveResult& result) {
  std::printf("solver: %s\n", result.solver.c_str());
  std::printf("status: %s\n", result.status_name());
  if (!result.solved()) {
    for (const auto& [key, value] : result.diagnostics) {
      std::printf("  %s: %s\n", key.c_str(), value.c_str());
    }
    return;
  }
  std::printf("min %s = %s\n", to_string(request.objective),
              util::format_double(result.value).c_str());
  std::printf("mapping: %s\n", result.mapping->to_string(problem).c_str());
  util::Table table({"application", "period", "latency"});
  for (std::size_t a = 0; a < problem.application_count(); ++a) {
    table.add_row({problem.application(a).name(),
                   util::format_double(result.metrics.per_app[a].period, 4),
                   util::format_double(result.metrics.per_app[a].latency, 4)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("energy: %s\n", util::format_double(result.metrics.energy).c_str());
  std::printf("wall: %.3fs\n", result.wall_seconds);
  for (const auto& [key, value] : result.diagnostics) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
}

/// Maps a facade status to the exit-code contract.
int exit_code(const api::SolveResult& result) {
  switch (result.status) {
    case api::SolveStatus::Optimal:
    case api::SolveStatus::Feasible:
      return 0;
    case api::SolveStatus::Infeasible:
    case api::SolveStatus::LimitExceeded:
      return 1;
    case api::SolveStatus::NoSolver:
      return 2;
  }
  return 2;
}

int run_solve(const core::Problem& problem, const api::SolveRequest& request) {
  const api::SolveResult result = api::solve(problem, request);
  if (result.status == api::SolveStatus::NoSolver) {
    std::fprintf(stderr, "error: no solver for this request\n");
    for (const auto& [key, value] : result.diagnostics) {
      std::fprintf(stderr, "  %s: %s\n", key.c_str(), value.c_str());
    }
    return 2;
  }
  print_result(problem, request, result);
  return exit_code(result);
}

/// Parses `solve` flags into a request; nullopt on any usage error.
std::optional<api::SolveRequest> parse_solve_args(
    const core::Problem& problem, const std::vector<std::string>& args) {
  api::SolveRequest request;
  bool have_objective = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (flag == "--objective") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto objective = api::parse_objective(*value);
      if (!objective) return std::nullopt;
      request.objective = *objective;
      have_objective = true;
    } else if (flag == "--solver") {
      const auto value = next();
      if (!value) return std::nullopt;
      // Last flag wins: "auto" must clear an earlier forced name.
      if (*value == "auto") {
        request.solver.reset();
      } else {
        request.solver = *value;
      }
    } else if (flag == "--kind") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto kind = api::parse_mapping_kind(*value);
      if (!kind) return std::nullopt;
      request.kind = *kind;
    } else if (flag == "--period-bounds") {
      const auto value = next();
      if (!value) return std::nullopt;
      request.constraints.period = parse_bounds(problem, *value);
      if (!request.constraints.period) return std::nullopt;
    } else if (flag == "--latency-bounds") {
      const auto value = next();
      if (!value) return std::nullopt;
      request.constraints.latency = parse_bounds(problem, *value);
      if (!request.constraints.latency) return std::nullopt;
    } else if (flag == "--energy-budget") {
      const auto value = next();
      if (!value) return std::nullopt;
      request.constraints.energy_budget = parse_number<double>(*value);
      if (!request.constraints.energy_budget) return std::nullopt;
    } else if (flag == "--weights") {
      const auto value = next();
      if (!value) return std::nullopt;
      if (*value == "unit") {
        request.weights = core::WeightPolicy::Unit;
      } else if (*value == "priority") {
        request.weights = core::WeightPolicy::Priority;
      } else if (*value == "stretch") {
        request.weights = core::WeightPolicy::Stretch;
      } else {
        return std::nullopt;
      }
    } else if (flag == "--node-budget") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto budget = parse_number<std::uint64_t>(*value);
      if (!budget) return std::nullopt;
      request.node_budget = *budget;
    } else if (flag == "--time-budget") {
      const auto value = next();
      if (!value) return std::nullopt;
      request.time_budget_seconds = parse_number<double>(*value);
      if (!request.time_budget_seconds) return std::nullopt;
    } else if (flag == "--seed") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto seed = parse_number<std::uint64_t>(*value);
      if (!seed) return std::nullopt;
      request.seed = *seed;
    } else if (flag == "--timeout-ms") {
      const auto value = next();
      if (!value) return std::nullopt;
      request.deadline_ms = parse_number<std::uint64_t>(*value);
      if (!request.deadline_ms) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (!have_objective) return std::nullopt;
  return request;
}

/// Parses "B1,B2,..." into raw doubles (no replication); nullopt on any
/// malformed or empty token.
std::optional<std::vector<double>> parse_double_list(const std::string& text) {
  std::vector<double> values;
  std::string token;
  for (std::size_t i = 0;; ++i) {
    if (i == text.size() || text[i] == ',') {
      const auto value = parse_number<double>(token);
      if (!value) return std::nullopt;
      values.push_back(*value);
      token.clear();
      if (i == text.size()) break;
    } else {
      token += text[i];
    }
  }
  if (values.empty()) return std::nullopt;
  return values;
}

/// Parses `pareto` flags into a sweep request: the sweep-specific flags
/// here, everything else through parse_solve_args (with the sweep default
/// of --objective energy when none is given); nullopt on any usage error.
std::optional<api::SweepRequest> parse_sweep_args(
    const core::Problem& problem, const std::vector<std::string>& args) {
  api::SweepRequest sweep;
  std::vector<std::string> solve_args;
  bool have_bounds = false;
  bool have_objective = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--sweep") {
      if (i + 1 >= args.size()) return std::nullopt;
      const auto swept = api::parse_objective(args[++i]);
      if (!swept) return std::nullopt;
      sweep.swept = *swept;
    } else if (flag == "--sweep-bounds") {
      if (i + 1 >= args.size()) return std::nullopt;
      const auto bounds = parse_double_list(args[++i]);
      if (!bounds) return std::nullopt;
      sweep.bounds = *bounds;
      have_bounds = true;
    } else if (flag == "--refine") {
      if (i + 1 >= args.size()) return std::nullopt;
      const auto refine = parse_number<std::size_t>(args[++i]);
      if (!refine) return std::nullopt;
      sweep.refine = *refine;
    } else {
      if (flag == "--objective") have_objective = true;
      solve_args.push_back(flag);
    }
  }
  if (!have_bounds) return std::nullopt;
  if (!have_objective) {
    solve_args.insert(solve_args.begin(), {"--objective", "energy"});
  }
  const auto base = parse_solve_args(problem, solve_args);
  if (!base) return std::nullopt;
  sweep.base = *base;
  return sweep;
}

/// `pareto`: evaluates the sweep on a worker pool, prints the front and
/// optionally writes the wire lines the server would stream. Exit codes:
/// 0 = non-empty complete front, 1 = empty or cut-short front, 2 = usage.
int run_pareto(const core::Problem& problem,
               const std::vector<std::string>& args) {
  std::size_t jobs = 0;
  std::string out_path;
  std::vector<std::string> sweep_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs") {
      if (i + 1 >= args.size()) return usage();
      const auto parsed = parse_number<std::size_t>(args[++i]);
      if (!parsed) return usage();
      jobs = *parsed;
    } else if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else {
      sweep_args.push_back(args[i]);
    }
  }
  const auto request = parse_sweep_args(problem, sweep_args);
  if (!request) return usage();
  if (const std::string error = api::validate_sweep(*request); !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  api::Executor executor(api::ExecutorOptions{jobs});
  const api::ParetoFront front = executor.sweep(problem, *request);

  if (!out_path.empty()) {
    // Exactly the lines a server streams for the same {"type":"pareto"}
    // request (no id), so captures diff directly once wall_s is stripped.
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    for (const std::size_t index : front.front) {
      const api::SweepEvaluation& evaluation = front.evaluations[index];
      out << io::format_front_point(evaluation.result, evaluation.bound)
          << '\n';
    }
    out << io::format_pareto_summary(front) << '\n';
  }

  std::vector<std::string> columns{to_string(request->swept) +
                                   std::string(" <=")};
  columns.insert(columns.end(), {"period", "latency", "energy", "solver"});
  util::Table table(columns);
  for (const std::size_t index : front.front) {
    const api::SweepEvaluation& evaluation = front.evaluations[index];
    table.add_row({util::format_double(evaluation.bound, 6),
                   util::format_double(
                       evaluation.result.metrics.max_weighted_period, 6),
                   util::format_double(
                       evaluation.result.metrics.max_weighted_latency, 6),
                   util::format_double(evaluation.result.metrics.energy, 6),
                   evaluation.result.solver});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "front: %zu points from %zu evaluations (%zu infeasible, %zu "
      "cancelled)%s\n",
      front.front.size(), front.evaluations.size(), front.infeasible_points,
      front.cancelled_points, front.cancelled ? " [sweep cut short]" : "");
  if (!front.use_latency) {
    std::printf("energy monotone non-increasing in period: %s\n",
                front.monotone() ? "yes" : "NO");
  }
  std::printf("wall: %.3fs\n", front.wall_seconds);
  return front.front.empty() || front.cancelled ? 1 : 0;
}

/// Solves a JSONL manifest of instances under one shared request on a
/// worker pool; exits with the worst per-instance code (2 > 1 > 0).
int run_solve_batch(const std::string& manifest_path,
                    const std::vector<std::string>& args) {
  const std::vector<core::Problem> problems = io::load_batch(manifest_path);
  if (problems.empty()) {
    std::fprintf(stderr, "error: empty batch manifest\n");
    return 2;
  }

  // Split --jobs / --out from the shared solve flags.
  std::size_t jobs = 0;
  std::string out_path;
  std::vector<std::string> solve_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs") {
      if (i + 1 >= args.size()) return usage();
      const auto parsed = parse_number<std::size_t>(args[++i]);
      if (!parsed) return usage();
      jobs = *parsed;  // 0 = hardware concurrency
    } else if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else {
      solve_args.push_back(args[i]);
    }
  }
  const auto request = parse_solve_args(problems.front(), solve_args);
  if (!request) return usage();
  if (request->constraints.period || request->constraints.latency) {
    // One request serves the whole batch, so per-application thresholds
    // only make sense when every instance has the same application count.
    for (const core::Problem& problem : problems) {
      if (problem.application_count() != problems.front().application_count()) {
        std::fprintf(stderr,
                     "error: per-application bounds require a uniform "
                     "application count across the batch\n");
        return 2;
      }
    }
  }

  api::Executor executor(api::ExecutorOptions{jobs});
  const api::BatchResult batch = executor.solve_batch(problems, *request);

  if (!out_path.empty()) {
    // One result_io line per instance — the same wire format the server
    // speaks, so batch outputs and server responses diff directly.
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    for (const api::SolveResult& result : batch.results) {
      out << io::format_result(result) << '\n';
    }
  }

  util::Table table({"#", "status", "solver", "value", "wall"});
  int worst = 0;
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const api::SolveResult& result = batch.results[i];
    worst = std::max(worst, exit_code(result));
    table.add_row({std::to_string(i), result.status_name(), result.solver,
                   result.solved() ? util::format_double(result.value) : "-",
                   util::format_double(result.wall_seconds, 4) + "s"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("batch: %zu instances, jobs=%zu, dispatch plans=%zu, wall=%.3fs\n",
              batch.results.size(), executor.jobs(), batch.dispatch_plans,
              batch.wall_seconds);
  return worst;
}

/// `pipeopt serve`: the long-lived JSONL solve service (src/server/).
int run_serve(const std::vector<std::string>& args) {
  server::ServerOptions options;
  bool stdio = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") {
      std::fputs(
          "usage: pipeopt serve [--host H] [--port N] [--jobs N]\n"
          "                     [--cache-entries N]\n"
          "                     [--trace-log F] [--fault-spec S] [--stdio]\n"
          "JSONL-over-TCP solve service over the api::Executor pool.\n"
          "  --host H    listen address (default 127.0.0.1)\n"
          "  --port N    listen port; 0 picks an ephemeral port (default),\n"
          "              announced as 'pipeopt-server listening on H:P'\n"
          "  --jobs N    worker pool size (default: hardware concurrency)\n"
          "  --cache-entries N\n"
          "              solve-cache capacity; repeated identical requests\n"
          "              (and replayed sweep grid points) answer from the\n"
          "              cache byte-identically; 0 = off (default). Stats\n"
          "              gain cache_hits/cache_misses/cache_evictions.\n"
          "  --trace-log F\n"
          "              append one JSONL span line per completed solve or\n"
          "              pareto request (trace id + per-phase breakdown);\n"
          "              responses stay byte-identical either way\n"
          "  --fault-spec S\n"
          "              deterministic fault injection on session sockets,\n"
          "              S = seed:prob:kind[,kind...] with kinds close,\n"
          "              truncate, partial, delay, all (chaos testing;\n"
          "              see docs/RESILIENCE.md)\n"
          "  --stdio     serve one session on stdin/stdout instead of TCP\n"
          "Protocol: one JSON object per line; see docs/PROTOCOL.md.\n"
          "SIGINT/SIGTERM drain in-flight solves, then exit 0.\n",
          stdout);
      return 0;
    }
    if (flag == "--stdio") {
      stdio = true;
    } else if (flag == "--host") {
      if (i + 1 >= args.size()) return usage();
      options.host = args[++i];
    } else if (flag == "--port") {
      if (i + 1 >= args.size()) return usage();
      const auto port = parse_number<std::uint16_t>(args[++i]);
      if (!port) return usage();
      options.port = *port;
    } else if (flag == "--jobs") {
      if (i + 1 >= args.size()) return usage();
      const auto jobs = parse_number<std::size_t>(args[++i]);
      if (!jobs) return usage();
      options.jobs = *jobs;
    } else if (flag == "--cache-entries") {
      if (i + 1 >= args.size()) return usage();
      const auto entries = parse_number<std::size_t>(args[++i]);
      if (!entries) return usage();
      options.cache_entries = *entries;
    } else if (flag == "--trace-log") {
      if (i + 1 >= args.size()) return usage();
      options.trace_log = args[++i];
    } else if (flag == "--fault-spec") {
      if (i + 1 >= args.size()) return usage();
      options.fault_spec = args[++i];
    } else {
      return usage();
    }
  }
  try {
    server::Server server(options);
    if (stdio) {
      server.serve_stream(STDIN_FILENO, STDOUT_FILENO);
      return 0;
    }
    const std::uint16_t port = server.listen();
    std::printf("pipeopt-server listening on %s:%u\n", options.host.c_str(),
                port);
    std::fflush(stdout);  // scripts watch for this line to learn the port
    server::Server::install_signal_handlers(server);
    server.serve();
    std::fprintf(stderr, "pipeopt-server: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

/// Parses "H:P,H:P,..." into shard endpoints; nullopt on any malformed
/// entry (a bare port is malformed on purpose — routing to the wrong host
/// because a colon went missing should be loud).
std::optional<std::vector<router::ShardAddress>> parse_shard_list(
    const std::string& text) {
  std::vector<router::ShardAddress> shards;
  std::string token;
  for (std::size_t i = 0;; ++i) {
    if (i == text.size() || text[i] == ',') {
      const std::size_t colon = token.rfind(':');
      if (colon == std::string::npos || colon == 0) return std::nullopt;
      const auto port = parse_number<std::uint16_t>(token.substr(colon + 1));
      if (!port || *port == 0) return std::nullopt;
      shards.push_back(router::ShardAddress{token.substr(0, colon), *port});
      token.clear();
      if (i == text.size()) break;
    } else {
      token += text[i];
    }
  }
  if (shards.empty()) return std::nullopt;
  return shards;
}

/// `pipeopt route`: the sharded front tier (src/router/).
int run_route(const std::vector<std::string>& args) {
  router::RouterOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") {
      std::fputs(
          "usage: pipeopt route (--shards H:P,H:P,... | --spawn N)\n"
          "                     [--host H] [--port N] [--jobs N]\n"
          "                     [--cache-entries N] [--window N]\n"
          "                     [--health-interval-ms MS]\n"
          "                     [--retries N] [--backoff-ms MS]\n"
          "                     [--breaker-threshold N]\n"
          "                     [--breaker-cooldown-ms MS]\n"
          "                     [--trace-log F] [--shard-trace-log P]\n"
          "                     [--fault-spec S]\n"
          "Sharded front tier over N pipeopt servers: speaks the same\n"
          "protocol, routes each request to a shard by its canonical\n"
          "solve key (sticky: byte-equivalent requests share a shard, so\n"
          "per-shard caches stay coherent), streams responses back\n"
          "byte-identically, and answers ping/health itself; stats merge\n"
          "the whole fleet's counters plus router-level ones.\n"
          "  --shards H:P,...  route across these running servers\n"
          "  --spawn N         fork N local servers on ephemeral ports and\n"
          "                    supervise them: health probes every\n"
          "                    interval, dead shards restart, in-flight\n"
          "                    requests fail over or return typed errors\n"
          "  --jobs N          --jobs for spawned shards\n"
          "  --cache-entries N --cache-entries for spawned shards\n"
          "  --window N        per-shard in-flight cap (default 64); when\n"
          "                    every shard is full, requests shed with\n"
          "                    {\"type\":\"error\",\"code\":\"overloaded\"}\n"
          "  --health-interval-ms MS\n"
          "                    probe period (default 250)\n"
          "  --retries N       per-request failover budget: N retries after\n"
          "                    the first attempt (default 0 = one attempt\n"
          "                    per shard); retried attempts back off with\n"
          "                    deterministic jitter\n"
          "  --backoff-ms MS   base retry backoff (default 5; doubles per\n"
          "                    attempt, capped; 0 = no sleep)\n"
          "  --breaker-threshold N\n"
          "                    consecutive relay failures that open a\n"
          "                    shard's circuit breaker (default 3)\n"
          "  --breaker-cooldown-ms MS\n"
          "                    how long an open breaker rests before a\n"
          "                    half-open health probe may close it again\n"
          "                    (default 0 = probe at the next interval)\n"
          "  --trace-log F     append one JSONL span line per forwarded\n"
          "                    request (relay time + shared trace id; ids\n"
          "                    are generated and spliced into forwarded\n"
          "                    lines that carry none)\n"
          "  --shard-trace-log P\n"
          "                    spawn mode: shard i traces to P.<i>.jsonl;\n"
          "                    its lines share the router's trace ids\n"
          "  --fault-spec S    deterministic fault injection on front and\n"
          "                    relay sockets, S = seed:prob:kind[,kind...]\n"
          "                    with kinds refuse, close, truncate, partial,\n"
          "                    delay, all (chaos testing; health probes are\n"
          "                    exempt; see docs/RESILIENCE.md)\n"
          "SIGINT/SIGTERM drain in-flight requests, then the shards.\n",
          stdout);
      return 0;
    }
    if (flag == "--shards") {
      if (i + 1 >= args.size()) return usage();
      const auto shards = parse_shard_list(args[++i]);
      if (!shards) return usage();
      options.shards = *shards;
    } else if (flag == "--spawn") {
      if (i + 1 >= args.size()) return usage();
      const auto spawn = parse_number<std::size_t>(args[++i]);
      if (!spawn || *spawn == 0) return usage();
      options.spawn = *spawn;
    } else if (flag == "--host") {
      if (i + 1 >= args.size()) return usage();
      options.host = args[++i];
    } else if (flag == "--port") {
      if (i + 1 >= args.size()) return usage();
      const auto port = parse_number<std::uint16_t>(args[++i]);
      if (!port) return usage();
      options.port = *port;
    } else if (flag == "--jobs") {
      if (i + 1 >= args.size()) return usage();
      const auto jobs = parse_number<std::size_t>(args[++i]);
      if (!jobs) return usage();
      options.spawn_jobs = *jobs;
    } else if (flag == "--cache-entries") {
      if (i + 1 >= args.size()) return usage();
      const auto entries = parse_number<std::size_t>(args[++i]);
      if (!entries) return usage();
      options.spawn_cache_entries = *entries;
    } else if (flag == "--window") {
      if (i + 1 >= args.size()) return usage();
      const auto window = parse_number<std::size_t>(args[++i]);
      if (!window || *window == 0) return usage();
      options.window = *window;
    } else if (flag == "--health-interval-ms") {
      if (i + 1 >= args.size()) return usage();
      const auto interval = parse_number<std::uint64_t>(args[++i]);
      if (!interval || *interval == 0) return usage();
      options.health_interval = std::chrono::milliseconds(*interval);
    } else if (flag == "--retries") {
      if (i + 1 >= args.size()) return usage();
      const auto retries = parse_number<std::size_t>(args[++i]);
      if (!retries) return usage();
      options.retries = *retries;
    } else if (flag == "--backoff-ms") {
      if (i + 1 >= args.size()) return usage();
      const auto backoff = parse_number<std::uint64_t>(args[++i]);
      if (!backoff) return usage();
      options.retry_backoff = std::chrono::milliseconds(*backoff);
    } else if (flag == "--breaker-threshold") {
      if (i + 1 >= args.size()) return usage();
      const auto threshold = parse_number<std::size_t>(args[++i]);
      if (!threshold || *threshold == 0) return usage();
      options.breaker_threshold = *threshold;
    } else if (flag == "--breaker-cooldown-ms") {
      if (i + 1 >= args.size()) return usage();
      const auto cooldown = parse_number<std::uint64_t>(args[++i]);
      if (!cooldown) return usage();
      options.breaker_cooldown = std::chrono::milliseconds(*cooldown);
    } else if (flag == "--trace-log") {
      if (i + 1 >= args.size()) return usage();
      options.trace_log = args[++i];
    } else if (flag == "--shard-trace-log") {
      if (i + 1 >= args.size()) return usage();
      options.spawn_trace_log = args[++i];
    } else if (flag == "--fault-spec") {
      if (i + 1 >= args.size()) return usage();
      options.fault_spec = args[++i];
    } else {
      return usage();
    }
  }
  if (options.shards.empty() == (options.spawn == 0)) return usage();
  // Shard span logs ride the spawn arguments; endpoint-mode shards are
  // configured by whoever started them.
  if (!options.spawn_trace_log.empty() && options.spawn == 0) return usage();
  const std::string host = options.host;
  try {
    router::Router router(std::move(options));
    const std::uint16_t port = router.listen();
    const std::vector<router::ShardInfo> shards = router.shard_infos();
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].pid > 0) {
        std::printf("pipeopt-router: shard %zu at %s:%u pid %d\n", i,
                    shards[i].host.c_str(), shards[i].port,
                    static_cast<int>(shards[i].pid));
      } else {
        std::printf("pipeopt-router: shard %zu at %s:%u\n", i,
                    shards[i].host.c_str(), shards[i].port);
      }
    }
    std::printf("pipeopt-router listening on %s:%u over %zu shards\n",
                host.c_str(), port, shards.size());
    std::fflush(stdout);  // scripts watch for this line to learn the port
    router::Router::install_signal_handlers(router);
    router.serve();
    std::fprintf(stderr, "pipeopt-router: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

/// Maps one server response line onto the CLI exit-code contract: error
/// lines (or unparseable ones) are 2, results map like local solves,
/// pareto summaries map like the local `pareto` command (1 when empty or
/// cut short), and pong/stats lines are 0.
int response_exit_code(const std::string& line) {
  try {
    const io::JsonFields fields = io::parse_flat_json(line);
    std::string type = "result";
    for (const auto& [key, value] : fields) {
      if (key == "type") type = value;
    }
    if (type == "error") return 2;
    if (type == "pareto") {
      const io::WireParetoSummary summary = io::parse_pareto_summary(fields);
      return summary.complete && summary.points > 0 ? 0 : 1;
    }
    if (type != "result") return 0;
    return exit_code(io::parse_result(fields).result);
  } catch (const std::exception&) {
    return 2;
  }
}

/// The "type" field of one JSONL line ("solve", the wire default, when
/// absent or unparseable) — how the client knows a request streams a
/// multi-line pareto response.
std::string line_type(const std::string& line) {
  std::string type = "solve";
  try {
    for (const auto& [key, value] : io::parse_flat_json(line)) {
      if (key == "type") type = value;
    }
  } catch (const std::exception&) {
  }
  return type;
}

/// `pipeopt client`: scripted load generation against a running server.
int run_client(const std::vector<std::string>& args) {
  std::string host = "127.0.0.1";
  std::optional<std::uint16_t> port;
  std::string manifest, raw_file;
  bool pareto = false;
  std::uint64_t poll_ms = 0;
  std::string poll_out;
  std::size_t retries = 0;
  std::uint64_t backoff_ms = 50;
  std::vector<std::string> solve_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--host") {
      if (i + 1 >= args.size()) return usage();
      host = args[++i];
    } else if (flag == "--port") {
      if (i + 1 >= args.size()) return usage();
      port = parse_number<std::uint16_t>(args[++i]);
      if (!port) return usage();
    } else if (flag == "--manifest") {
      if (i + 1 >= args.size()) return usage();
      manifest = args[++i];
    } else if (flag == "--pareto") {
      pareto = true;  // manifest lines become {"type":"pareto"} sweeps
    } else if (flag == "--poll-stats") {
      if (i + 1 >= args.size()) return usage();
      const auto interval = parse_number<std::uint64_t>(args[++i]);
      if (!interval || *interval == 0) return usage();
      poll_ms = *interval;
    } else if (flag == "--poll-out") {
      if (i + 1 >= args.size()) return usage();
      poll_out = args[++i];
    } else if (flag == "--retries") {
      if (i + 1 >= args.size()) return usage();
      const auto budget = parse_number<std::size_t>(args[++i]);
      if (!budget) return usage();
      retries = *budget;
    } else if (flag == "--backoff-ms") {
      if (i + 1 >= args.size()) return usage();
      const auto backoff = parse_number<std::uint64_t>(args[++i]);
      if (!backoff) return usage();
      backoff_ms = *backoff;
    } else if (!manifest.empty()) {
      solve_args.push_back(flag);  // shared solve flags for --manifest mode
    } else if (raw_file.empty()) {
      raw_file = flag;  // positional: raw JSONL request lines ("-" = stdin)
    } else {
      return usage();
    }
  }
  if (!port || (manifest.empty() && raw_file.empty())) return usage();
  if (pareto && manifest.empty()) return usage();
  // The sampler's lines must not interleave with the echoed responses, so
  // polling requires an explicit output file.
  if ((poll_ms > 0) != !poll_out.empty()) return usage();

  // Build the request lines before connecting: a usage error should not
  // show up server-side as half a session.
  std::vector<std::string> lines;
  if (!manifest.empty()) {
    const std::vector<core::Problem> problems = io::load_batch(manifest);
    if (problems.empty()) {
      std::fprintf(stderr, "error: empty manifest\n");
      return 2;
    }
    if (pareto) {
      const auto request = parse_sweep_args(problems.front(), solve_args);
      if (!request) return usage();
      for (const core::Problem& problem : problems) {
        lines.push_back(io::format_pareto_request(problem, *request));
      }
    } else {
      const auto request = parse_solve_args(problems.front(), solve_args);
      if (!request) return usage();
      for (const core::Problem& problem : problems) {
        lines.push_back(io::format_solve_request(problem, *request));
      }
    }
  } else {
    std::ifstream file;
    if (raw_file != "-") {
      file.open(raw_file);
      if (!file) {
        std::fprintf(stderr, "error: cannot read '%s'\n", raw_file.c_str());
        return 2;
      }
    }
    std::istream& in = raw_file == "-" ? std::cin : file;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }

  // Retry machinery (util/retry.hpp): `--retries N` grants N extra
  // attempts per failure point — the initial connect, and each request
  // line — with capped exponential backoff between attempts. The
  // per-code tally feeds the exit summary.
  util::RetryPolicy policy;
  policy.retries = retries;
  policy.backoff_ms = backoff_ms;
  std::map<std::string, std::uint64_t> retry_counts;
  std::uint64_t retries_used = 0;
  const auto print_retry_summary = [&] {
    if (retries == 0) return;  // --retries off: byte-identical stderr
    std::string breakdown;
    for (const auto& [code, count] : retry_counts) {
      breakdown += ' ' + code + '=' + std::to_string(count);
    }
    std::fprintf(stderr, "pipeopt-client: retries used=%llu budget=%zu%s\n",
                 static_cast<unsigned long long>(retries_used), retries,
                 breakdown.c_str());
  };

  int fd = -1;
  for (std::size_t attempt = 0;; ++attempt) {
    fd = net::connect(host, *port);
    if (fd >= 0) break;
    if (attempt >= retries) {
      std::fprintf(
          stderr,
          "error: cannot connect to %s:%u: %s\n"
          "       is a pipeopt server (or router) listening there?\n",
          host.c_str(), *port, std::strerror(errno));
      print_retry_summary();
      return 3;
    }
    ++retries_used;
    ++retry_counts["connect"];
    const std::uint64_t delay = policy.delay_ms(attempt);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }

  // Stats/metrics sampler: its own connection, its own output file, so
  // the periodic `{"type":"stats"}` / `{"type":"metrics"}` probes neither
  // perturb the load connection's lock-step ordering nor interleave with
  // the echoed responses. Each sampled line gains a leading "t_ms" field
  // (milliseconds since the load run started) for time-series plotting.
  std::atomic<bool> poll_stop{false};
  std::thread poller;
  if (poll_ms > 0) {
    poller = std::thread([&poll_stop, poll_ms, poll_out, host,
                          port = *port] {
      std::ofstream out(poll_out, std::ios::trunc);
      const util::Stopwatch elapsed;
      while (!poll_stop.load(std::memory_order_relaxed)) {
        const int poll_fd = net::connect(host, port);
        if (poll_fd >= 0) {
          util::FdLineReader poll_reader(poll_fd);
          for (const char* probe :
               {"{\"type\":\"stats\"}", "{\"type\":\"metrics\"}"}) {
            std::string sample;
            if (!util::write_line(poll_fd, probe) ||
                !poll_reader.next_line(sample)) {
              break;
            }
            const auto t_ms = static_cast<std::uint64_t>(
                elapsed.elapsed_seconds() * 1000.0);
            sample.insert(1, "\"t_ms\":\"" + std::to_string(t_ms) + "\",");
            out << sample << '\n';
          }
          ::close(poll_fd);
          out.flush();
        }
        // Sleep in short steps so the post-run join is snappy.
        for (std::uint64_t waited = 0;
             waited < poll_ms && !poll_stop.load(std::memory_order_relaxed);
             waited += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<std::uint64_t>(20, poll_ms - waited)));
        }
      }
    });
  }
  const auto join_poller = [&poll_stop, &poller] {
    poll_stop.store(true, std::memory_order_relaxed);
    if (poller.joinable()) poller.join();
  };

  // Lock-step request/response keeps the output aligned with the input
  // order (the server answers each connection's lines in order anyway).
  // Each line's responses are buffered and echoed only once the attempt
  // is accepted, so a retried request never leaks a half-streamed or
  // torn answer to stdout.
  int worst = 0;
  auto reader = std::make_unique<util::FdLineReader>(fd);
  const auto drop_connection = [&] {
    if (fd >= 0) ::close(fd);
    fd = -1;
    reader.reset();
  };
  const auto echo = [&](const std::vector<std::string>& responses) {
    for (const std::string& response : responses) {
      std::printf("%s\n", response.c_str());
      worst = std::max(worst, response_exit_code(response));
    }
  };
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    drop_connection();
    join_poller();
    print_retry_summary();
    return 3;
  };

  for (const std::string& line : lines) {
    // A pareto request streams result lines until its terminal summary (or
    // an error); everything else answers with exactly one line.
    const bool streamed = line_type(line) == "pareto";
    // Budgeted wall-clock fields make a retried execution observable
    // (the rerun races a different remaining budget), so only requests
    // without them may be replayed after work possibly started.
    bool idempotent = true;
    try {
      for (const auto& [key, value] : io::parse_flat_json(line)) {
        if (key == "deadline_ms" || key == "time_budget_s") idempotent = false;
      }
    } catch (const std::exception&) {
    }
    std::size_t attempt = 0;
    // Spends one retry from the line's budget (tallying it under `code`)
    // and sleeps the backoff; false = budget exhausted, caller gives up.
    const auto budget_retry = [&](const std::string& code) -> bool {
      if (attempt >= retries) return false;
      ++attempt;
      ++retries_used;
      ++retry_counts[code];
      const std::uint64_t delay = policy.delay_ms(attempt - 1);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      return true;
    };

    bool delivered = false;
    while (!delivered) {
      if (fd < 0) {
        fd = net::connect(host, *port);
        if (fd < 0) {
          const int saved = errno;
          if (budget_retry("connect")) continue;
          return fail("cannot connect to " + host + ":" +
                      std::to_string(*port) + ": " + std::strerror(saved));
        }
        reader = std::make_unique<util::FdLineReader>(fd);
      }
      if (!util::write_line(fd, line)) {
        drop_connection();
        if (budget_retry("transport")) continue;
        return fail("connection lost mid-request");
      }
      std::vector<std::string> responses;
      bool complete = false;
      bool torn = false;
      for (;;) {
        std::string response;
        if (!reader->next_line(response)) break;
        if (!reader->last_terminated()) {
          torn = true;  // a truncated frame is transport loss, not an answer
          break;
        }
        responses.push_back(std::move(response));
        if (!streamed || line_type(responses.back()) != "result") {
          complete = true;
          break;
        }
      }
      if (!complete) {
        drop_connection();
        // Loss before the first response byte cannot have echoed anything
        // and retries unconditionally; loss mid-response means the server
        // may have done (and streamed) work, so only idempotent requests
        // replay.
        const bool pre_response = responses.empty() && !torn;
        if ((pre_response || idempotent) &&
            budget_retry(pre_response ? "transport" : "mid-response")) {
          continue;
        }
        echo(responses);
        return fail("connection closed before a response");
      }
      // A typed retryable error (docs/PROTOCOL.md retryability table) is
      // retried on the still-live connection — but only as the first
      // response line; once results streamed, the work happened.
      if (responses.size() == 1) {
        std::string type = "result", code;
        try {
          for (const auto& [key, value] :
               io::parse_flat_json(responses.front())) {
            if (key == "type") type = value;
            if (key == "code") code = value;
          }
        } catch (const std::exception&) {
        }
        if (type == "error") {
          const util::Retryability retryable = util::classify_error_code(code);
          if ((retryable == util::Retryability::Always ||
               (retryable == util::Retryability::IfIdempotent && idempotent)) &&
              budget_retry(code)) {
            continue;
          }
        }
      }
      echo(responses);
      delivered = true;
    }
  }
  drop_connection();
  join_poller();
  print_retry_summary();
  return worst;
}

/// First value for `key` in `fields`, or "" when absent.
std::string field_value(const io::JsonFields& fields, const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

/// Numeric field as double; 0.0 when absent or malformed (display-only).
double field_number(const io::JsonFields& fields, const std::string& key) {
  const std::string value = field_value(fields, key);
  return value.empty() ? 0.0 : std::strtod(value.c_str(), nullptr);
}

/// A µs-valued field rendered as milliseconds with 2 decimals.
std::string field_ms(const io::JsonFields& fields, const std::string& key) {
  const std::string value = field_value(fields, key);
  if (value.empty()) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f",
                std::strtod(value.c_str(), nullptr) / 1000.0);
  return buffer;
}

/// `pipeopt top`: a refreshing fleet view polled from a running server or
/// router — stats counters, per-shard liveness (router), and the
/// per-solver latency table with the fleet-merged p50/p90/p99 quantiles
/// that `{"type":"metrics"}` derives from its histogram buckets.
int run_top(const std::vector<std::string>& args) {
  std::string host = "127.0.0.1";
  std::optional<std::uint16_t> port;
  std::uint64_t interval_ms = 1000;
  std::uint64_t iterations = 0;  // 0 = until interrupted
  bool clear = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help") {
      std::fputs(
          "usage: pipeopt top [--host H] --port N [--interval-ms MS]\n"
          "                   [--iterations N] [--no-clear]\n"
          "Live fleet view against a pipeopt server or router: polls\n"
          "{\"type\":\"stats\"} and {\"type\":\"metrics\"} every interval and\n"
          "renders the fleet counters, per-shard liveness (router) and the\n"
          "per-solver latency quantile table.\n"
          "  --interval-ms MS  poll period (default 1000)\n"
          "  --iterations N    render N frames then exit (default: forever)\n"
          "  --no-clear        append frames instead of redrawing (logs)\n",
          stdout);
      return 0;
    }
    if (flag == "--host") {
      if (i + 1 >= args.size()) return usage();
      host = args[++i];
    } else if (flag == "--port") {
      if (i + 1 >= args.size()) return usage();
      port = parse_number<std::uint16_t>(args[++i]);
      if (!port) return usage();
    } else if (flag == "--interval-ms") {
      if (i + 1 >= args.size()) return usage();
      const auto interval = parse_number<std::uint64_t>(args[++i]);
      if (!interval || *interval == 0) return usage();
      interval_ms = *interval;
    } else if (flag == "--iterations") {
      if (i + 1 >= args.size()) return usage();
      const auto n = parse_number<std::uint64_t>(args[++i]);
      if (!n) return usage();
      iterations = *n;
    } else if (flag == "--no-clear") {
      clear = false;
    } else {
      return usage();
    }
  }
  if (!port) return usage();

  // Redraw only on an interactive screen; piped output gets appended
  // frames regardless of --no-clear (ANSI codes in a log help nobody).
  const bool redraw = clear && ::isatty(STDOUT_FILENO) == 1;
  // Poll round-trip times through the streaming Summary window — the
  // util::stats quantile path the metrics histograms share.
  util::Summary rtt(32);
  for (std::uint64_t tick = 0; iterations == 0 || tick < iterations; ++tick) {
    const util::Stopwatch poll_watch;
    io::JsonFields stats, metrics;
    {
      const int fd = net::connect(host, *port);
      if (fd < 0) {
        std::fprintf(stderr,
                     "error: cannot connect to %s:%u: %s\n"
                     "       is a pipeopt server (or router) listening there?\n",
                     host.c_str(), *port, std::strerror(errno));
        return 3;
      }
      util::FdLineReader reader(fd);
      bool ok = true;
      for (auto* slot : {&stats, &metrics}) {
        const char* probe = slot == &stats ? "{\"type\":\"stats\"}"
                                           : "{\"type\":\"metrics\"}";
        std::string response;
        if (!util::write_line(fd, probe) || !reader.next_line(response)) {
          ok = false;
          break;
        }
        try {
          *slot = io::parse_flat_json(response);
        } catch (const io::ParseError&) {
          ok = false;
        }
      }
      ::close(fd);
      if (!ok) {
        std::fprintf(stderr, "error: connection lost while polling\n");
        return 3;
      }
    }
    rtt.add(poll_watch.elapsed_seconds() * 1000.0);

    std::string frame;
    const auto line = [&frame](const std::string& text) {
      frame += text;
      frame += '\n';
    };
    {
      char head[160];
      std::snprintf(head, sizeof head,
                    "pipeopt top - %s:%u  tick %llu  poll p50 %.1f ms",
                    host.c_str(), *port, static_cast<unsigned long long>(tick),
                    rtt.quantile(0.5));
      line(head);
    }
    // Fleet counters: the router-level fields exist only through a router;
    // a direct server shows its own stats line instead.
    const std::string shards = field_value(stats, "shards");
    std::string fleet = "requests " + field_value(stats, "requests") +
                        "  solves " + field_value(stats, "solves") +
                        "  errors " + field_value(stats, "errors");
    if (!shards.empty()) {
      fleet += "  routed " + field_value(stats, "routed") + "  shed " +
               field_value(stats, "shed") + "  shards " +
               field_value(stats, "shards_up") + "/" + shards;
    } else {
      fleet += "  jobs " + field_value(stats, "jobs") + "  pending " +
               field_value(stats, "pending");
    }
    line(fleet);
    if (field_number(metrics, "request.n") > 0) {
      line("request latency ms: p50 " + field_ms(metrics, "request.p50_us") +
           "  p90 " + field_ms(metrics, "request.p90_us") + "  p99 " +
           field_ms(metrics, "request.p99_us"));
    }
    if (field_number(metrics, "phase.relay.n") > 0) {
      line("relay latency ms:   p50 " +
           field_ms(metrics, "phase.relay.p50_us") + "  p90 " +
           field_ms(metrics, "phase.relay.p90_us") + "  p99 " +
           field_ms(metrics, "phase.relay.p99_us"));
    }
    if (!shards.empty()) {
      util::Table table({"shard", "up", "in_flight"});
      for (std::size_t i = 0;; ++i) {
        const std::string prefix = "shard." + std::to_string(i) + ".";
        const std::string up = field_value(metrics, prefix + "up");
        if (up.empty()) break;
        table.add_row({std::to_string(i), up == "1" ? "up" : "DOWN",
                       field_value(metrics, prefix + "in_flight")});
      }
      frame += table.render();
    }
    // Per-solver rows, discovered from the merged metric names: one
    // `solver.<name>.latency.*` histogram group per solver seen fleetwide.
    util::Table table(
        {"solver", "solves", "evals", "mean ms", "p50", "p90", "p99"});
    bool any_solver = false;
    for (const auto& [key, value] : metrics) {
      constexpr const char kPrefix[] = "solver.";
      constexpr const char kSuffix[] = ".latency.n";
      if (key.rfind(kPrefix, 0) != 0 || key.size() <= sizeof kPrefix - 1) {
        continue;
      }
      if (key.size() < sizeof kSuffix ||
          key.compare(key.size() - (sizeof kSuffix - 1), sizeof kSuffix - 1,
                      kSuffix) != 0) {
        continue;
      }
      const std::string name = key.substr(
          sizeof kPrefix - 1, key.size() - sizeof kPrefix - sizeof kSuffix + 2);
      const std::string histogram = std::string(kPrefix) + name + ".latency";
      const double n = field_number(metrics, histogram + ".n");
      if (n <= 0) continue;
      any_solver = true;
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.2f",
                    field_number(metrics, histogram + ".sum_us") / n / 1000.0);
      const std::string evals = field_value(metrics, kPrefix + name + ".evals");
      table.add_row({name, value, evals.empty() ? "0" : evals, mean,
                     field_ms(metrics, histogram + ".p50_us"),
                     field_ms(metrics, histogram + ".p90_us"),
                     field_ms(metrics, histogram + ".p99_us")});
    }
    if (any_solver) {
      frame += table.render();
    } else {
      line("(no solves recorded yet)");
    }

    if (redraw) std::fputs("\x1b[2J\x1b[H", stdout);
    std::fputs(frame.c_str(), stdout);
    if (!redraw) std::fputs("\n", stdout);
    std::fflush(stdout);
    if (iterations == 0 || tick + 1 < iterations) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

int run_list_solvers(const core::Problem& problem) {
  const api::SolverRegistry& registry = api::default_registry();
  util::Table table(
      {"solver", "tier", "family", "optimal", "applicable*", "summary"});
  api::SolveRequest probe;  // default request: interval period, no bounds
  for (const api::Solver* solver : registry.solvers()) {
    const api::SolverInfo& info = solver->info();
    // Probe applicability in the solver's own family so one-to-one solvers
    // are not all reported inapplicable under the default interval kind.
    probe.kind = info.family.value_or(api::MappingKind::Interval);
    table.add_row({info.name, to_string(info.tier),
                   info.family ? to_string(*info.family) : "any",
                   info.exact ? "yes" : "no",
                   solver->applicable(problem, probe) ? "yes" : "no",
                   info.summary});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("* for this instance, per family, period objective, no bounds");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // serve/client run without a problem file and come first on the line.
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (argc >= 2 && std::strcmp(argv[1], "route") == 0) {
    return run_route(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    try {
      return run_client(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "top") == 0) {
    try {
      return run_top(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (argc < 3) return usage();
  const std::string command = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);

  // solve-batch reads a JSONL manifest, not a single instance file.
  if (command == "solve-batch") {
    try {
      return run_solve_batch(argv[1], args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error reading %s: %s\n", argv[1], e.what());
      return 2;
    }
  }

  core::Problem problem = [&] {
    try {
      return io::load_problem(argv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error reading %s: %s\n", argv[1], e.what());
      std::exit(2);
    }
  }();

  try {
    if (command == "show") {
      std::fputs(io::format_problem(problem).c_str(), stdout);
      std::printf("# platform class: %s, N=%zu stages on p=%zu processors\n",
                  to_string(problem.platform().classify()),
                  problem.total_stages(), problem.platform().processor_count());
      return 0;
    }
    if (command == "solve") {
      const auto request = parse_solve_args(problem, args);
      if (!request) return usage();
      return run_solve(problem, *request);
    }
    if (command == "pareto") {
      return run_pareto(problem, args);
    }
    if (command == "list-solvers") {
      return run_list_solvers(problem);
    }
    if (command == "min-period") {
      api::SolveRequest request;
      request.objective = api::Objective::Period;
      if (!args.empty() && args[0] == "--exact") {
        request.solver = "exact-enumeration";
      }
      return run_solve(problem, request);
    }
    if (command == "min-latency") {
      api::SolveRequest request;
      request.objective = api::Objective::Latency;
      return run_solve(problem, request);
    }
    if (command == "min-energy") {
      if (args.empty()) return usage();
      api::SolveRequest request;
      request.objective = api::Objective::Energy;
      request.constraints.period = parse_bounds(problem, args[0]);
      if (!request.constraints.period) return usage();
      return run_solve(problem, request);
    }
    if (command == "simulate") {
      if (args.empty()) return usage();
      api::SolveRequest request;  // defaults: period, interval, auto
      const api::SolveResult solution = api::solve(problem, request);
      if (!solution.solved()) {
        std::puts("infeasible");
        return exit_code(solution);
      }
      const auto datasets = parse_number<std::size_t>(args[0]);
      if (!datasets) return usage();
      sim::SimConfig config;
      config.datasets = *datasets;
      const auto result = sim::simulate(problem, *solution.mapping, config);
      // Only an exact solve proves optimality; a heuristic fallback (e.g.
      // past the node budget) yields a feasible, possibly suboptimal mapping.
      std::printf("%s mapping (%s): %s\n",
                  solution.status == api::SolveStatus::Optimal
                      ? "period-optimal"
                      : "period-feasible",
                  solution.solver.c_str(),
                  solution.mapping->to_string(problem).c_str());
      util::Table table({"application", "steady period", "first latency",
                         "max latency"});
      for (std::size_t a = 0; a < result.apps.size(); ++a) {
        table.add_row({problem.application(a).name(),
                       util::format_double(result.apps[a].steady_period, 6),
                       util::format_double(result.apps[a].first_latency, 6),
                       util::format_double(result.apps[a].max_latency, 6)});
      }
      std::fputs(table.render().c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
