/// The differential cross-check harness — the headline consumer of the
/// exact-backend seam (api/exact_backend.hpp).
///
/// Every registered exact backend is driven over the full Table 1/2 grid
/// (tests/support/grid_fixtures.hpp) and over >= 200 seeded random
/// instances, and every backend pair must agree: identical feasibility
/// verdicts, bit-identical optimal objective values, and mappings that
/// re-evaluate — through scalar `core::evaluate` AND `core::BatchEvaluator`
/// — to exactly the reported value while satisfying the request's
/// constraints under the exact predicate. Because
/// branch-and-bound/enumeration (recursive search) and mip-branch-cut (LP
/// branch-and-cut) share no search code, agreement here is evidence about
/// the *model*, not about one implementation agreeing with itself.
///
/// Suite naming is load-bearing: `BackendCrosscheck*` tests carry the
/// ctest label `crosscheck`, and the `BackendCrosscheckRandom` sweeps
/// additionally carry `slow` (see CMakeLists.txt), keeping them out of the
/// tier-1 verify line. Any divergence reproduces from the CLI in one line:
///   pipeopt solve --problem <file> --solver <backend> [--objective ...]

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/exact_backend.hpp"
#include "api/registry.hpp"
#include "core/eval_batch.hpp"
#include "core/evaluation.hpp"
#include "core/objectives.hpp"
#include "exact/enumeration.hpp"
#include "gen/random_instances.hpp"
#include "tests/support/grid_fixtures.hpp"
#include "util/random.hpp"

namespace pipeopt {
namespace {

using testing_support::table_grid;

double objective_value(api::Objective objective, const core::Metrics& m) {
  switch (objective) {
    case api::Objective::Period: return m.max_weighted_period;
    case api::Objective::Latency: return m.max_weighted_latency;
    case api::Objective::Energy: return m.energy;
  }
  return 0.0;
}

struct Outcome {
  const api::ExactBackend* backend = nullptr;
  std::optional<exact::ExactResult> result;
};

/// Runs every supporting backend on one (problem, request) cell and checks
/// all pairwise agreement + re-evaluation invariants.
void crosscheck_cell(const core::Problem& problem,
                     const api::SolveRequest& request,
                     const std::string& cell) {
  std::vector<Outcome> outcomes;
  for (const api::ExactBackend* backend : api::exact_backends()) {
    if (!backend->supports(problem, request)) continue;
    SCOPED_TRACE(cell + " backend=" + backend->info().name);
    std::optional<exact::ExactResult> result;
    ASSERT_NO_THROW(result = backend->minimize(problem, request));
    outcomes.push_back({backend, std::move(result)});
  }
  // exact-enumeration and mip-branch-cut support everything, so every cell
  // cross-checks at least one structurally independent pair.
  ASSERT_GE(outcomes.size(), 2u) << cell;

  core::BatchEvaluator evaluator(problem);
  for (const Outcome& o : outcomes) {
    SCOPED_TRACE(cell + " backend=" + o.backend->info().name);
    if (!o.result) continue;
    const exact::ExactResult& r = *o.result;
    // The mapping must be valid and re-evaluate to the reported value
    // through both evaluation paths.
    ASSERT_EQ(r.mapping.validate(problem), std::nullopt);
    const core::Metrics scalar = core::evaluate(problem, r.mapping);
    const core::Metrics& batch = evaluator.evaluate(r.mapping);
    EXPECT_EQ(objective_value(request.objective, scalar),
              objective_value(request.objective, batch));
    EXPECT_EQ(r.value, objective_value(request.objective, scalar));
    EXPECT_TRUE(request.constraints.satisfied_by(scalar));
  }

  // Every backend pair agrees on feasibility and on the optimal value.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    for (std::size_t j = i + 1; j < outcomes.size(); ++j) {
      const Outcome& a = outcomes[i];
      const Outcome& b = outcomes[j];
      SCOPED_TRACE(cell + " pair=" + a.backend->info().name + " vs " +
                   b.backend->info().name);
      ASSERT_EQ(a.result.has_value(), b.result.has_value());
      if (!a.result) continue;
      EXPECT_EQ(a.result->value, b.result->value);  // bit-identical
    }
  }
}

api::SolveRequest cell_request(api::Objective objective, api::MappingKind kind,
                               core::ConstraintSet constraints = {}) {
  api::SolveRequest request;
  request.objective = objective;
  request.kind = kind;
  request.constraints = std::move(constraints);
  return request;
}

std::string cell_name(const core::Problem& problem, std::size_t index,
                      const api::SolveRequest& request) {
  return "grid[" + std::to_string(index) + "] " +
         std::string(to_string(problem.platform().classify())) + "/" +
         to_string(problem.comm_model()) + " " +
         to_string(request.objective) + "/" + to_string(request.kind);
}

// ---------------------------------------------------------------- grid --

class BackendCrosscheckGrid
    : public ::testing::TestWithParam<api::Objective> {};

TEST_P(BackendCrosscheckGrid, IntervalUnconstrained) {
  const std::vector<core::Problem> grid = table_grid(3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const api::SolveRequest request =
        cell_request(GetParam(), api::MappingKind::Interval);
    crosscheck_cell(grid[i], request, cell_name(grid[i], i, request));
  }
}

TEST_P(BackendCrosscheckGrid, OneToOneUnconstrained) {
  // Grid instances have up to 6 stages on 5 processors; infeasible cells
  // must produce *agreeing* nullopts, which is part of the contract.
  const std::vector<core::Problem> grid = table_grid(3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const api::SolveRequest request =
        cell_request(GetParam(), api::MappingKind::OneToOne);
    crosscheck_cell(grid[i], request, cell_name(grid[i], i, request));
  }
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, BackendCrosscheckGrid,
                         ::testing::Values(api::Objective::Period,
                                           api::Objective::Latency,
                                           api::Objective::Energy),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(BackendCrosscheck, GridConstrainedCells) {
  // Multi-criteria cells over the grid: energy under a period threshold
  // (loose and tight), period under a latency threshold, and a
  // tri-criteria energy cell — the §5 shapes.
  const std::vector<core::Problem> grid = table_grid(2);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::Problem& problem = grid[i];
    const api::ExactBackend* reference =
        api::find_exact_backend("exact-enumeration");
    ASSERT_NE(reference, nullptr);
    const auto period_opt = reference->minimize(
        problem, cell_request(api::Objective::Period, api::MappingKind::Interval));
    ASSERT_TRUE(period_opt.has_value());
    const auto latency_opt = reference->minimize(
        problem, cell_request(api::Objective::Latency, api::MappingKind::Interval));
    ASSERT_TRUE(latency_opt.has_value());

    for (const double slack : {1.6, 1.0}) {
      core::ConstraintSet cs;
      cs.period = core::Thresholds::uniform(problem, period_opt->value * slack);
      const api::SolveRequest request = cell_request(
          api::Objective::Energy, api::MappingKind::Interval, cs);
      crosscheck_cell(problem, request,
                      cell_name(problem, i, request) + " period-bound");
    }
    {
      core::ConstraintSet cs;
      cs.latency =
          core::Thresholds::uniform(problem, latency_opt->value * 1.4);
      const api::SolveRequest request = cell_request(
          api::Objective::Period, api::MappingKind::Interval, cs);
      crosscheck_cell(problem, request,
                      cell_name(problem, i, request) + " latency-bound");
    }
    {
      core::ConstraintSet cs;
      cs.period = core::Thresholds::uniform(problem, period_opt->value * 1.5);
      cs.latency =
          core::Thresholds::uniform(problem, latency_opt->value * 1.5);
      const api::SolveRequest request = cell_request(
          api::Objective::Energy, api::MappingKind::Interval, cs);
      crosscheck_cell(problem, request,
                      cell_name(problem, i, request) + " tri-criteria");
    }
  }
}

TEST(BackendCrosscheck, RegistryForcesEveryBackendByName) {
  // The CLI reproduction path: `solve --solver <backend>` must reach each
  // backend through the registry and return its (identical) optimum.
  const core::Problem problem = table_grid(1).front();
  std::optional<double> reference;
  for (const api::ExactBackend* backend : api::exact_backends()) {
    api::SolveRequest request;
    request.objective = api::Objective::Period;
    request.solver = backend->info().name;
    if (!backend->supports(problem, request)) continue;
    const api::SolveResult result = api::solve(problem, request);
    ASSERT_EQ(result.status, api::SolveStatus::Optimal)
        << backend->info().name;
    EXPECT_EQ(result.solver, backend->info().name);
    if (reference) {
      EXPECT_EQ(result.value, *reference) << backend->info().name;
    } else {
      reference = result.value;
    }
  }
  ASSERT_TRUE(reference.has_value());
}

// -------------------------------------------------------------- random --

/// >= 200 seeded random instances: 50 seeds per family x 4 families, each
/// family drawing from a disjoint seed range. Platform class, communication
/// model, application/processor counts, objective, kind and constraint
/// shape all rotate deterministically by seed.
class BackendCrosscheckRandom : public ::testing::TestWithParam<int> {};

core::Problem random_instance(int seed) {
  util::Rng rng(90001u + static_cast<unsigned>(seed) * 7919u);
  const core::PlatformClass classes[] = {
      core::PlatformClass::FullyHomogeneous,
      core::PlatformClass::CommHomogeneous,
      core::PlatformClass::FullyHeterogeneous};
  gen::ProblemShape shape;
  shape.applications = 1 + seed % 2;
  shape.processors = 3 + seed % 3;
  shape.platform_class = classes[seed % 3];
  shape.comm = (seed / 3) % 2 ? core::CommModel::NoOverlap
                              : core::CommModel::Overlap;
  shape.app.min_stages = 1;
  shape.app.max_stages = 3;
  shape.app.weighted = seed % 5 == 0;
  shape.platform.modes = 1 + seed % 2;
  return gen::random_problem(rng, shape);
}

TEST_P(BackendCrosscheckRandom, PeriodAndLatency) {
  const int seed = GetParam();
  const core::Problem problem = random_instance(seed);
  const api::MappingKind kind =
      seed % 4 == 0 ? api::MappingKind::OneToOne : api::MappingKind::Interval;
  for (const api::Objective objective :
       {api::Objective::Period, api::Objective::Latency}) {
    const api::SolveRequest request = cell_request(objective, kind);
    crosscheck_cell(problem, request,
                    "seed=" + std::to_string(seed) + " " +
                        to_string(objective) + "/" + to_string(kind));
  }
}

TEST_P(BackendCrosscheckRandom, Energy) {
  const int seed = GetParam();
  const core::Problem problem = random_instance(seed + 500);
  const api::SolveRequest request =
      cell_request(api::Objective::Energy, api::MappingKind::Interval);
  crosscheck_cell(problem, request, "seed=" + std::to_string(seed) + " energy");
}

TEST_P(BackendCrosscheckRandom, EnergyUnderPeriodBound) {
  const int seed = GetParam();
  const core::Problem problem = random_instance(seed + 250);
  const api::ExactBackend* reference =
      api::find_exact_backend("exact-enumeration");
  ASSERT_NE(reference, nullptr);
  const auto period_opt = reference->minimize(
      problem, cell_request(api::Objective::Period, api::MappingKind::Interval));
  ASSERT_TRUE(period_opt.has_value());
  // Tight bounds (slack < 1 may be infeasible) exercise the loosened
  // threshold rows and the exact acceptance band hardest.
  const double slack = 0.8 + 0.2 * (seed % 4);
  core::ConstraintSet cs;
  cs.period = core::Thresholds::uniform(problem, period_opt->value * slack);
  const api::SolveRequest request =
      cell_request(api::Objective::Energy, api::MappingKind::Interval, cs);
  crosscheck_cell(problem, request,
                  "seed=" + std::to_string(seed) +
                      " energy-under-period slack=" + std::to_string(slack));
}

TEST_P(BackendCrosscheckRandom, MixedConstraints) {
  const int seed = GetParam();
  const core::Problem problem = random_instance(seed + 1000);
  const api::ExactBackend* reference =
      api::find_exact_backend("exact-enumeration");
  ASSERT_NE(reference, nullptr);
  const auto latency_opt = reference->minimize(
      problem, cell_request(api::Objective::Latency, api::MappingKind::Interval));
  ASSERT_TRUE(latency_opt.has_value());
  core::ConstraintSet cs;
  cs.latency =
      core::Thresholds::uniform(problem, latency_opt->value * (1.0 + 0.3 * (seed % 3)));
  const api::SolveRequest request =
      cell_request(api::Objective::Period, api::MappingKind::Interval, cs);
  crosscheck_cell(problem, request,
                  "seed=" + std::to_string(seed) + " period-under-latency");
}

INSTANTIATE_TEST_SUITE_P(Sweep, BackendCrosscheckRandom,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace pipeopt
