/// \file adapters_exact.cpp
/// Adapters over the exact backends (api/exact_backend.hpp). These are the
/// universal fallback of the dispatch order: applicable on every platform
/// class, both communication models, any constraint shape — but bounded by
/// the request's node budget. Blowing the budget returns
/// SolveStatus::LimitExceeded, which auto-dispatch treats as "skip and
/// degrade to the heuristic ladder".
///
/// Every backend gets the same wrapper: supports() becomes the capability
/// predicate, minimize() runs under one try/catch that converts budget
/// exhaustion and cancellation to their typed results, and successful
/// results flow through `from_exact` so diagnostics are uniform across
/// engines. Adding an exact engine means implementing ExactBackend — this
/// file never changes again.

#include "api/adapters.hpp"

#include <memory>
#include <string>

#include "api/exact_backend.hpp"
#include "exact/enumeration.hpp"
#include "exact/exact_solvers.hpp"

namespace pipeopt::api {

namespace {

SolveResult limit_exceeded(std::uint64_t node_budget) {
  SolveResult result = detail::infeasible();
  result.status = SolveStatus::LimitExceeded;
  result.diagnostics.emplace_back("node-budget",
                                  std::to_string(node_budget) + " exhausted");
  return result;
}

/// Cooperative cancellation unwinds through the same bounded-search exit as
/// a blown budget, but is labelled so callers can tell the two apart.
SolveResult cancelled() {
  return detail::cancelled("cancel token fired mid-search");
}

SolveResult from_exact(const core::Problem& problem, Objective objective,
                       const std::optional<exact::ExactResult>& exact_result) {
  if (!exact_result) return detail::infeasible();
  SolveResult result =
      detail::solved(problem, objective, exact_result->mapping, /*optimal=*/true);
  result.diagnostics.emplace_back("nodes",
                                  std::to_string(exact_result->stats.nodes));
  result.diagnostics.emplace_back(
      "mappings", std::to_string(exact_result->stats.complete));
  // Every complete mapping reached is one evaluation: per-leaf batch
  // evaluation in the enumerator, incremental finalized-max evaluation in
  // branch-and-bound, exact candidate re-evaluation in branch-and-cut.
  // Surfaced so the server's solver.<name>.evals counters can aggregate
  // fleet-wide evaluation throughput (the stats line's `evals`).
  result.diagnostics.emplace_back(
      "evals", std::to_string(exact_result->stats.complete));
  return result;
}

}  // namespace

void register_exact_solvers(SolverRegistry& registry) {
  for (const ExactBackend* backend : exact_backends()) {
    registry.add(std::make_unique<LambdaSolver>(
        SolverInfo{.name = backend->info().name,
                   .summary = backend->info().summary,
                   .tier = CostTier::Exact,
                   .rank = backend->info().rank,
                   .family = std::nullopt,
                   .exact = true},
        [backend](const core::Problem& p, const SolveRequest& r) {
          return backend->supports(p, r);
        },
        [backend](const core::Problem& p, const SolveRequest& r) {
          try {
            return from_exact(p, r.objective, backend->minimize(p, r));
          } catch (const exact::SearchCancelled&) {
            return cancelled();
          } catch (const exact::SearchLimitExceeded&) {
            return limit_exceeded(r.node_budget);
          }
        }));
  }
}

}  // namespace pipeopt::api
