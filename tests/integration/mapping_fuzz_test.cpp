/// \file mapping_fuzz_test.cpp
/// Two seeded fuzz layers over random instances:
///  - MappingFuzz: failure injection — start from a valid mapping, apply a
///    random structural corruption, and require Mapping::validate to reject
///    it. Guards the invariant layer every solver relies on.
///  - PropertyFuzz: solver-level properties — every exact backend agrees on
///    the optimum, no heuristic ever reports below it, and every reported
///    (mapping, value) re-evaluates to itself through both the scalar and
///    the batch evaluator. Runs under the `fuzz` ctest label.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "api/exact_backend.hpp"
#include "api/registry.hpp"
#include "core/eval_batch.hpp"
#include "core/evaluation.hpp"
#include "core/mapping.hpp"
#include "gen/random_instances.hpp"
#include "heuristics/interval_greedy.hpp"

namespace pipeopt {
namespace {

using core::IntervalAssignment;
using core::Mapping;

enum class Corruption {
  DuplicateProcessor,
  ShiftFirst,
  ShiftLast,
  DropInterval,
  BadApp,
  BadProc,
  BadMode,
  SwapIntervalOrder  // overlap two intervals of one application
};

/// Applies the corruption; returns nullopt when inapplicable to this mapping
/// (e.g. nothing to drop).
std::optional<Mapping> corrupt(const core::Problem& problem,
                               const Mapping& mapping, Corruption kind,
                               util::Rng& rng) {
  std::vector<IntervalAssignment> ivs(mapping.intervals().begin(),
                                      mapping.intervals().end());
  if (ivs.empty()) return std::nullopt;
  const std::size_t i = rng.index(ivs.size());
  switch (kind) {
    case Corruption::DuplicateProcessor: {
      if (ivs.size() < 2) return std::nullopt;
      const std::size_t j = (i + 1) % ivs.size();
      ivs[i].proc = ivs[j].proc;
      break;
    }
    case Corruption::ShiftFirst:
      if (ivs[i].first == ivs[i].last) return std::nullopt;
      ++ivs[i].first;  // leaves a gap before this interval
      break;
    case Corruption::ShiftLast:
      if (ivs[i].first == ivs[i].last) return std::nullopt;
      --ivs[i].last;  // leaves a gap after this interval
      break;
    case Corruption::DropInterval:
      ivs.erase(ivs.begin() + static_cast<std::ptrdiff_t>(i));
      if (ivs.empty()) return std::nullopt;
      break;
    case Corruption::BadApp:
      ivs[i].app = problem.application_count() + 3;
      break;
    case Corruption::BadProc:
      ivs[i].proc = problem.platform().processor_count() + 5;
      break;
    case Corruption::BadMode:
      ivs[i].mode = problem.platform().processor(ivs[i].proc).mode_count() + 2;
      break;
    case Corruption::SwapIntervalOrder: {
      // Make interval i overlap its successor within the same application.
      std::optional<std::size_t> next;
      for (std::size_t j = 0; j < ivs.size(); ++j) {
        if (j != i && ivs[j].app == ivs[i].app &&
            ivs[j].first == ivs[i].last + 1) {
          next = j;
          break;
        }
      }
      if (!next) return std::nullopt;
      ++ivs[i].last;  // now overlaps *next's first stage
      break;
    }
  }
  return Mapping(std::move(ivs));
}

class MappingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MappingFuzz, EveryCorruptionIsRejected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 13);
  gen::ProblemShape shape;
  shape.applications = 1 + rng.index(3);
  shape.app.min_stages = 2;
  shape.app.max_stages = 5;
  shape.processors = shape.applications * 3;
  shape.platform.modes = 2;
  const std::array<core::PlatformClass, 3> classes{
      core::PlatformClass::FullyHomogeneous,
      core::PlatformClass::CommHomogeneous,
      core::PlatformClass::FullyHeterogeneous};
  shape.platform_class = classes[rng.index(3)];
  const auto problem = gen::random_problem(rng, shape);
  const auto mapping = heuristics::greedy_interval_mapping(problem);
  ASSERT_TRUE(mapping.has_value());
  ASSERT_FALSE(mapping->validate(problem).has_value());

  for (Corruption kind :
       {Corruption::DuplicateProcessor, Corruption::ShiftFirst,
        Corruption::ShiftLast, Corruption::DropInterval, Corruption::BadApp,
        Corruption::BadProc, Corruption::BadMode,
        Corruption::SwapIntervalOrder}) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto broken = corrupt(problem, *mapping, kind, rng);
      if (!broken) continue;
      EXPECT_TRUE(broken->validate(problem).has_value())
          << "corruption " << static_cast<int>(kind) << " went undetected";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappingFuzz, ::testing::Range(0, 30));

/// Small random instance for solver-level properties: exhaustive backends
/// must stay cheap, so stages and processors are kept tight.
core::Problem property_instance(std::uint64_t seed) {
  util::Rng rng(seed * 6571 + 101);
  gen::ProblemShape shape;
  shape.applications = 1 + rng.index(2);
  shape.processors = 3 + rng.index(2);
  shape.app.min_stages = 1;
  shape.app.max_stages = 3;
  shape.app.weighted = seed % 3 == 0;
  shape.platform.modes = 1 + rng.index(2);
  const std::array<core::PlatformClass, 3> classes{
      core::PlatformClass::FullyHomogeneous,
      core::PlatformClass::CommHomogeneous,
      core::PlatformClass::FullyHeterogeneous};
  shape.platform_class = classes[seed % 3];
  shape.comm = seed % 2 == 0 ? core::CommModel::Overlap
                             : core::CommModel::NoOverlap;
  return gen::random_problem(rng, shape);
}

/// The reported (mapping, value) pair must be self-consistent: the mapping
/// validates, and both evaluators reproduce the value bit-for-bit.
void expect_reevaluates(const core::Problem& problem,
                        const api::SolveRequest& request,
                        const api::SolveResult& result) {
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_EQ(result.mapping->validate(problem), std::nullopt);
  const core::Metrics scalar = core::evaluate(problem, *result.mapping);
  core::BatchEvaluator batch(problem);
  const core::Metrics& batched = batch.evaluate(*result.mapping);
  EXPECT_EQ(scalar.max_weighted_period, batched.max_weighted_period);
  EXPECT_EQ(scalar.max_weighted_latency, batched.max_weighted_latency);
  EXPECT_EQ(scalar.energy, batched.energy);
  double reported = 0.0;
  switch (request.objective) {
    case api::Objective::Period: reported = scalar.max_weighted_period; break;
    case api::Objective::Latency: reported = scalar.max_weighted_latency; break;
    case api::Objective::Energy: reported = scalar.energy; break;
  }
  EXPECT_EQ(result.value, reported);
}

class PropertyFuzz : public ::testing::TestWithParam<int> {};

/// Property 1: every exact backend that supports the request reports the
/// same feasibility verdict and, for bit-exact backends, the same optimum.
TEST_P(PropertyFuzz, ExactBackendsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::Problem problem = property_instance(seed);
  api::SolveRequest request;
  request.objective =
      std::array{api::Objective::Period, api::Objective::Latency,
                 api::Objective::Energy}[seed % 3];

  std::optional<double> reference;
  for (const api::ExactBackend* backend : api::exact_backends()) {
    if (!backend->supports(problem, request)) continue;
    std::optional<exact::ExactResult> outcome;
    ASSERT_NO_THROW(outcome = backend->minimize(problem, request))
        << backend->info().name;
    if (!reference) {
      ASSERT_TRUE(outcome.has_value()) << backend->info().name;
      reference = outcome->value;
      continue;
    }
    ASSERT_TRUE(outcome.has_value()) << backend->info().name;
    EXPECT_EQ(outcome->value, *reference) << backend->info().name;
  }
  ASSERT_TRUE(reference.has_value());  // enumeration supports everything
}

/// Property 2: no heuristic reports a value below the exact optimum, and
/// Property 3: whatever it reports re-evaluates to itself.
TEST_P(PropertyFuzz, HeuristicsNeverBeatTheExactOptimum) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::Problem problem = property_instance(seed + 7000);
  api::SolveRequest request;
  request.objective = seed % 2 == 0 ? api::Objective::Period
                                    : api::Objective::Energy;

  const api::ExactBackend* oracle =
      api::find_exact_backend("exact-enumeration");
  ASSERT_NE(oracle, nullptr);
  const auto optimum = oracle->minimize(problem, request);
  ASSERT_TRUE(optimum.has_value());

  for (const api::Solver* solver : api::default_registry().solvers()) {
    if (solver->info().tier != api::CostTier::Heuristic) continue;
    api::SolveRequest forced = request;
    forced.solver = solver->info().name;
    const api::SolveResult result = api::solve(problem, forced);
    if (result.status == api::SolveStatus::NoSolver) continue;  // inapplicable
    ASSERT_TRUE(result.solved()) << solver->info().name;
    EXPECT_GE(result.value, optimum->value) << solver->info().name;
    expect_reevaluates(problem, forced, result);
  }
}

/// Property 3 for the auto-dispatch path across objectives and kinds: the
/// facade's reported value is always the value of its own mapping.
TEST_P(PropertyFuzz, ReportedValuesReevaluate) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::Problem problem = property_instance(seed + 14000);
  for (const api::Objective objective :
       {api::Objective::Period, api::Objective::Latency,
        api::Objective::Energy}) {
    api::SolveRequest request;
    request.objective = objective;
    if (seed % 4 == 0 && problem.one_to_one_applicable())
      request.kind = api::MappingKind::OneToOne;
    const api::SolveResult result = api::solve(problem, request);
    ASSERT_TRUE(result.solved()) << to_string(objective);
    expect_reevaluates(problem, request, result);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertyFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace pipeopt
