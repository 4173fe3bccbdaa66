#pragma once

/// \file exact_backend.hpp
/// The exact-backend seam: one interface every engine that claims *proven
/// optimality* implements, so the facade can treat "which exact algorithm"
/// as a pluggable choice and the test tree can cross-check any two backends
/// against each other (tests/exact/backend_crosscheck_test.cpp).
///
/// A backend is smaller than a `Solver`: it only maps (problem, request) to
/// an `exact::ExactResult` — no SolveResult conversion, no diagnostics, no
/// status codes. `register_exact_solvers` (api/adapters_exact.cpp) wraps
/// every registered backend in the uniform adapter that handles budget
/// exhaustion, cancellation and result conversion once, identically for all
/// of them. That keeps the engines' contracts pure — value + mapping or
/// nullopt, throw on budget/cancel — which is exactly the shape a
/// differential harness can compare.
///
/// Built-in backends (always present, dispatch-rank order):
///   branch-and-bound   rank 0   pruned period search (warm-start aware)
///   exact-enumeration  rank 10  exhaustive oracle, any objective/constraints
///   mip-branch-cut     rank 20  independent MIP formulation over an LP
///                               relaxation (exact/mip/) — the structurally
///                               independent oracle
/// Ranks above 10 are never auto-dispatched — exact-enumeration accepts
/// every request first — so adding a backend never changes which solver
/// an unforced request runs; they are reached via `SolveRequest::solver`
/// forcing (CLI: `solve --solver <name>`).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/request.hpp"
#include "core/problem.hpp"
#include "exact/exact_solvers.hpp"

namespace pipeopt::api {

/// Identity and dispatch placement of one exact backend.
struct ExactBackendInfo {
  std::string name;     ///< registry solver name ("mip-branch-cut", ...)
  std::string summary;  ///< one-line description for list-solvers
  int rank = 0;         ///< dispatch rank within CostTier::Exact
  /// True when the backend returns the bit-exact optimum of
  /// `core::evaluate` arithmetic. Backends that solve a scaled or rounded
  /// model (e.g. CP-SAT's integer arithmetic) set this false, and the
  /// cross-check harness compares them within tolerance instead of by bits.
  bool bit_exact = true;
};

/// One exact engine behind the seam. Implementations must be stateless
/// across calls (a backend is shared by every registry and test).
class ExactBackend {
 public:
  explicit ExactBackend(ExactBackendInfo info) : info_(std::move(info)) {}
  virtual ~ExactBackend() = default;

  ExactBackend(const ExactBackend&) = delete;
  ExactBackend& operator=(const ExactBackend&) = delete;

  [[nodiscard]] const ExactBackendInfo& info() const noexcept { return info_; }

  /// Shape-only capability predicate (same contract as Solver::applicable):
  /// may inspect objective/constraints/kind, never solve anything.
  [[nodiscard]] virtual bool supports(const core::Problem& problem,
                                      const SolveRequest& request) const = 0;

  /// Solves to proven optimality. Returns std::nullopt when no feasible
  /// mapping exists. The returned mapping must re-evaluate (via
  /// `core::evaluate`) to `value` for bit-exact backends.
  /// \throws exact::SearchLimitExceeded past request.node_budget,
  ///         exact::SearchCancelled on a fired cancel token.
  [[nodiscard]] virtual std::optional<exact::ExactResult> minimize(
      const core::Problem& problem, const SolveRequest& request) const = 0;

 private:
  ExactBackendInfo info_;
};

/// All registered exact backends in rank order. The list is built once at
/// first use and is immutable afterwards; pointers stay valid for the
/// process lifetime.
[[nodiscard]] const std::vector<const ExactBackend*>& exact_backends();

/// Backend by registry name, or nullptr.
[[nodiscard]] const ExactBackend* find_exact_backend(std::string_view name);

}  // namespace pipeopt::api
