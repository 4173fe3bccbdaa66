/// Batch & async execution subsystem: bit-identity of `solve_batch` with
/// per-call `api::solve` (one dispatch plan per batch), future-based
/// `solve_async`, FIFO-pool behavior under concurrency, and cooperative
/// cancellation of a branch-and-bound solve mid-search.

#include "api/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "gen/motivating_example.hpp"
#include "gen/random_instances.hpp"
#include "tests/support/grid_fixtures.hpp"
#include "util/cancel.hpp"

namespace pipeopt::api {
namespace {

using testing_support::table_grid;

void expect_same_result(const SolveResult& a, const SolveResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.value, b.value);  // bit-identical, no tolerance
  ASSERT_EQ(a.mapping.has_value(), b.mapping.has_value());
  if (a.mapping) {
    ASSERT_EQ(a.mapping->interval_count(), b.mapping->interval_count());
    for (std::size_t i = 0; i < a.mapping->interval_count(); ++i) {
      EXPECT_EQ(a.mapping->intervals()[i], b.mapping->intervals()[i]);
    }
  }
  EXPECT_EQ(a.diagnostics, b.diagnostics);
}

/// A deterministic long-running branch-and-bound search: the only
/// expensive edge is the final stage's output link, whose cost the bnb
/// lower bounds (compute-only) never see before the last placement — so
/// the one-to-one search degenerates to near-full enumeration of ~12P10
/// placements (>> 10^8 nodes; the calibration guard below proves > 10^7).
core::Problem needle_instance() {
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

SolveRequest needle_request() {
  SolveRequest request;
  request.solver = "branch-and-bound";
  request.kind = MappingKind::OneToOne;
  // Unlimited node budget: cancellation must be the only way out, so the
  // "cancelled" diagnostic can never race a budget exhaustion.
  request.node_budget = std::numeric_limits<std::uint64_t>::max();
  return request;
}

bool has_diagnostic(const SolveResult& result, const char* key) {
  for (const auto& [k, v] : result.diagnostics) {
    if (k == key) return true;
  }
  return false;
}

TEST(Executor, BatchIsBitIdenticalToPerCallSolveOverTheGrid) {
  const std::vector<core::Problem> grid = table_grid(8);
  SolveRequest request;  // weighted period over interval mappings, auto

  Executor executor(ExecutorOptions{.jobs = 4});
  const BatchResult batch = executor.solve_batch(grid, request);

  // The whole grid shares one request-level dispatch plan.
  EXPECT_EQ(batch.dispatch_plans, 1u);
  ASSERT_EQ(batch.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_same_result(batch.results[i], solve(grid[i], request));
  }
}

TEST(Executor, BatchMatchesPerCallUnderConstraintsAndUnitWeights) {
  const std::vector<core::Problem> grid = table_grid(4);
  SolveRequest request;
  request.objective = Objective::Energy;
  request.weights = core::WeightPolicy::Unit;
  request.constraints.period = core::Thresholds::per_app({5.0, 5.0});

  Executor executor(ExecutorOptions{.jobs = 2});
  const BatchResult batch = executor.solve_batch(grid, request);
  EXPECT_EQ(batch.dispatch_plans, 1u);
  ASSERT_EQ(batch.results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_same_result(batch.results[i], solve(grid[i], request));
  }
}

TEST(Executor, EmptyBatchIsEmpty) {
  Executor executor(ExecutorOptions{.jobs = 1});
  const BatchResult batch =
      executor.solve_batch(std::span<const core::Problem>{}, SolveRequest{});
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.dispatch_plans, 1u);
}

TEST(Executor, AsyncMatchesSyncSolve) {
  const core::Problem problem = gen::motivating_example();
  Executor executor(ExecutorOptions{.jobs = 2});
  SolveRequest request;
  std::future<SolveResult> future = executor.solve_async(problem, request);
  expect_same_result(future.get(), solve(problem, request));
}

TEST(Executor, AsyncJobOutlivesTheCallersProblem) {
  Executor executor(ExecutorOptions{.jobs = 1});
  std::future<SolveResult> future;
  {
    const core::Problem scoped = gen::motivating_example();
    future = executor.solve_async(scoped, SolveRequest{});
    // `scoped` dies here; the job owns its copy.
  }
  EXPECT_TRUE(future.get().solved());
}

TEST(Executor, ConcurrentAsyncStressWithDeterministicSeeds) {
  const std::vector<core::Problem> grid = table_grid(8);
  Executor executor(ExecutorOptions{.jobs = 4});

  // Reference results, computed synchronously.
  std::vector<SolveResult> expected;
  expected.reserve(grid.size());
  SolveRequest request;
  for (const core::Problem& problem : grid) {
    expected.push_back(solve(problem, request));
  }

  // Two async waves over the same instances, all in flight at once.
  std::vector<std::future<SolveResult>> futures;
  for (int wave = 0; wave < 2; ++wave) {
    for (const core::Problem& problem : grid) {
      futures.push_back(executor.solve_async(problem, request));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_same_result(futures[i].get(), expected[i % grid.size()]);
  }
  // A job leaves the in-flight count before its future is satisfied, so
  // the pool is idle the moment the last answer is in hand.
  EXPECT_EQ(executor.pending(), 0u);
}

TEST(Executor, DestructorDrainsAcceptedJobs) {
  const core::Problem problem = gen::motivating_example();
  std::vector<std::future<SolveResult>> futures;
  {
    Executor executor(ExecutorOptions{.jobs = 1});
    for (int i = 0; i < 6; ++i) {
      futures.push_back(executor.solve_async(problem, SolveRequest{}));
    }
  }  // destructor joins only after every accepted job ran
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().solved());
  }
}

TEST(Executor, CancelsABranchAndBoundSolveMidSearch) {
  const core::Problem problem = needle_instance();

  // Calibration guard: the search provably needs more than 10^7 nodes (it
  // exhausts that budget), i.e. far more work than the cancellation delay
  // below. Deterministic — same tree on every machine.
  {
    SolveRequest guard = needle_request();
    guard.node_budget = 10'000'000;
    const SolveResult budgeted = solve(problem, guard);
    ASSERT_EQ(budgeted.status, SolveStatus::LimitExceeded);
    ASSERT_TRUE(has_diagnostic(budgeted, "node-budget"));
  }

  Executor executor(ExecutorOptions{.jobs = 1});
  util::CancelSource source;
  SolveRequest request = needle_request();
  request.cancel = source.token();
  std::future<SolveResult> future = executor.solve_async(problem, request);

  // Let the worker get well into the tree, then cancel. 20ms of search is
  // under 10^7 nodes on any plausible machine, so this lands mid-search.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  source.request_cancel();

  const SolveResult result = future.get();  // typed result, no throw
  EXPECT_EQ(result.status, SolveStatus::LimitExceeded);
  EXPECT_TRUE(has_diagnostic(result, "cancelled"));
  EXPECT_FALSE(result.mapping.has_value());

  // The pool survives a cancelled job: the same worker solves on.
  std::future<SolveResult> next =
      executor.solve_async(gen::motivating_example(), SolveRequest{});
  EXPECT_TRUE(next.get().solved());
}

TEST(Executor, CancelTokenSharedAcrossABatch) {
  // A fired token cancels every not-yet-finished instance of a batch but
  // still yields one typed result per instance.
  std::vector<core::Problem> problems(3, needle_instance());
  util::CancelSource source;
  SolveRequest request = needle_request();
  request.cancel = source.token();

  Executor executor(ExecutorOptions{.jobs = 2});
  auto batch = std::async(std::launch::async, [&] {
    return executor.solve_batch(problems, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  source.request_cancel();
  const BatchResult result = batch.get();
  ASSERT_EQ(result.results.size(), problems.size());
  for (const SolveResult& r : result.results) {
    EXPECT_EQ(r.status, SolveStatus::LimitExceeded);
    EXPECT_TRUE(has_diagnostic(r, "cancelled"));
  }
}

TEST(Executor, LadderCancellationIsTypedNotThrown) {
  // The heuristic ladder consults the token between rungs and inside each
  // rung's iteration loop; a pre-fired token yields a typed result.
  const core::Problem problem = gen::motivating_example();
  util::CancelSource source;
  source.request_cancel();
  SolveRequest request;
  request.solver = "heuristic-ladder";
  request.cancel = source.token();
  const SolveResult result = solve(problem, request);
  // The constructive rung may already have produced a feasible incumbent
  // before the first budget check; cancellation never throws either way.
  if (!result.solved()) {
    EXPECT_EQ(result.status, SolveStatus::LimitExceeded);
    EXPECT_TRUE(has_diagnostic(result, "cancelled"));
  }
}

TEST(Executor, DefaultExecutorFreeFunctions) {
  const core::Problem problem = gen::motivating_example();
  std::future<SolveResult> future = solve_async(problem, SolveRequest{});
  EXPECT_TRUE(future.get().solved());

  const std::vector<core::Problem> grid = table_grid(2);
  const BatchResult batch = solve_batch(grid, SolveRequest{});
  EXPECT_EQ(batch.results.size(), grid.size());
  EXPECT_EQ(batch.dispatch_plans, 1u);
}

}  // namespace
}  // namespace pipeopt::api
