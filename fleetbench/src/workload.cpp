#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "core/evaluation.hpp"
#include "gen/random_instances.hpp"
#include "heuristics/interval_greedy.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "util/random.hpp"

namespace fleetbench {

using namespace pipeopt;

namespace {

/// Distinct requests in the wire-small pool. The pool is walked cyclically;
/// with many more keys than a shard's LRU holds, a repeat always misses.
constexpr std::size_t kWireSmallPool = 32768;
/// Distinct requests in the solve-heavy pool (same cyclic all-miss argument).
constexpr std::size_t kSolveHeavyPool = 2048;
/// replay-zipf keys: three times the fleet's total cache capacity.
constexpr std::size_t kZipfKeys = 3 * kShards * kCacheEntries;
/// replay-zipf draws in the send order.
constexpr std::size_t kZipfDraws = std::size_t{1} << 17;
/// The Zipf exponent of key popularity: 0.99, YCSB's default "zipfian"
/// request distribution (Cooper et al., "Benchmarking Cloud Serving Systems
/// with YCSB", SoCC 2010).
constexpr double kZipfExponent = 0.99;
/// replay-zipf send shares: ~10% Pareto sweeps; the solves split like
/// solve-heavy, one in eight an energy request.
constexpr double kZipfSweepShare = 0.10;
constexpr double kZipfEnergyShare = (1.0 - kZipfSweepShare) / 8.0;
/// replay-zipf keys per kind, in proportion to the kind's send share.
/// Pool layout: sweeps, then energy solves, then latency solves.
constexpr std::size_t kZipfSweepKeys = kZipfKeys / 10;
constexpr std::size_t kZipfEnergyKeys = (kZipfKeys - kZipfSweepKeys) / 8;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent stream per (seed, workload, entry), so entries can be drawn
/// on any thread in any order and still come out the same.
util::Rng entry_rng(std::uint64_t seed, Mix mix, std::uint64_t index) {
  return util::Rng(splitmix(splitmix(seed) ^ splitmix(
                                (static_cast<std::uint64_t>(mix) << 40) ^ index)));
}

/// The paper's four platform columns (Tables 1 and 2).
enum class Column { FullyHom, SpecialApp, CommHom, FullyHet };

core::Problem draw_problem(util::Rng& rng, Column column, std::size_t apps,
                           std::size_t min_stages, std::size_t max_stages,
                           std::size_t procs, std::size_t modes) {
  gen::ProblemShape shape;
  shape.applications = apps;
  shape.processors = procs;
  shape.app.min_stages = min_stages;
  shape.app.max_stages = max_stages;
  shape.platform.modes = modes;
  shape.comm = rng.chance(0.5) ? core::CommModel::Overlap
                               : core::CommModel::NoOverlap;
  switch (column) {
    case Column::FullyHom:
      shape.platform_class = core::PlatformClass::FullyHomogeneous;
      break;
    case Column::SpecialApp:
      shape.platform_class = core::PlatformClass::CommHomogeneous;
      shape.special_app = true;
      break;
    case Column::CommHom:
      shape.platform_class = core::PlatformClass::CommHomogeneous;
      break;
    case Column::FullyHet:
      shape.platform_class = core::PlatformClass::FullyHeterogeneous;
      break;
  }
  return gen::random_problem(rng, shape);
}

struct Cell {
  api::Objective objective;
  api::MappingKind kind;
};

/// The cells each column answers in polynomial time at the wire-small
/// size. The fully heterogeneous column has none (the paper proves them
/// NP-hard); its period cells close in a few microseconds of
/// branch-and-bound on 5 processors and stand in for it.
std::vector<Cell> wire_small_cells(Column column) {
  using api::MappingKind;
  using api::Objective;
  switch (column) {
    case Column::FullyHom:
      return {{Objective::Period, MappingKind::Interval},
              {Objective::Period, MappingKind::OneToOne},
              {Objective::Latency, MappingKind::Interval},
              {Objective::Latency, MappingKind::OneToOne},
              {Objective::Energy, MappingKind::Interval},
              {Objective::Energy, MappingKind::OneToOne}};
    case Column::SpecialApp:
    case Column::CommHom:
      return {{Objective::Period, MappingKind::OneToOne},
              {Objective::Latency, MappingKind::Interval},
              {Objective::Energy, MappingKind::OneToOne}};
    case Column::FullyHet:
      return {{Objective::Period, MappingKind::Interval},
              {Objective::Period, MappingKind::OneToOne}};
  }
  return {};
}

struct Drawn {
  core::Problem problem;
  api::SolveRequest request;
};

/// Table 1/2 cells: 2 applications x 1-3 stages x 5 processors, every
/// column, both communication models. Energy cells get a period bound
/// 1.5x the period optimum of the same mapping kind.
Drawn draw_wire_small(util::Rng& rng) {
  for (;;) {
    const auto column = static_cast<Column>(rng.index(4));
    const std::vector<Cell> cells = wire_small_cells(column);
    const Cell cell = cells[rng.index(cells.size())];
    core::Problem problem = draw_problem(rng, column, 2, 1, 3, 5, 2);
    if (cell.kind == api::MappingKind::OneToOne &&
        !problem.one_to_one_applicable()) {
      continue;
    }
    api::SolveRequest request;
    request.objective = cell.objective;
    request.kind = cell.kind;
    if (cell.objective == api::Objective::Energy) {
      api::SolveRequest period;
      period.kind = cell.kind;
      const api::SolveResult best = api::solve(problem, period);
      if (!best.solved()) continue;
      request.constraints.period =
          core::Thresholds::uniform(problem, best.value * 1.5);
    }
    return {std::move(problem), std::move(request)};
  }
}

/// NP-hard cells. Latency (seven in eight solve-heavy requests) on fully
/// heterogeneous platforms, 2 applications x 4 stages x 6 processors,
/// which exact enumeration closes in a nearly fixed number of nodes
/// (~4.5 ms). Energy (one in eight) on 3 x 3-5 x 8 under a period bound
/// 1.5x a greedy mapping's, with a node budget exact search always
/// exhausts, so dispatch burns it and degrades to the heuristic ladder
/// (~15 ms).
Drawn draw_solve_heavy(util::Rng& rng, bool energy) {
  api::SolveRequest request;
  if (!energy) {
    request.objective = api::Objective::Latency;
    return {draw_problem(rng, Column::FullyHet, 2, 4, 4, 6, 2), request};
  }
  core::Problem problem = draw_problem(rng, Column::CommHom, 3, 3, 5, 8, 2);
  const std::optional<core::Mapping> greedy =
      heuristics::greedy_interval_mapping(problem);
  if (!greedy) throw std::logic_error("greedy mapping needs p >= A");
  const double period = core::evaluate(problem, *greedy).max_weighted_period;
  request.objective = api::Objective::Energy;
  request.node_budget = 5'000;
  request.constraints.period = core::Thresholds::uniform(problem, period * 1.5);
  return {std::move(problem), request};
}

/// Energy-vs-period Pareto sweep over a small multi-mode cell: 2 x 1-3
/// stages x 5 processors with 2 speed modes each, 6 period bounds from the
/// period optimum up to 3x it (exact enumeration per point, ~3 ms cold).
PoolEntry make_pareto_entry(util::Rng& rng, const std::string& id) {
  core::Problem problem = draw_problem(rng, Column::CommHom, 2, 1, 3, 5, 2);
  const api::SolveResult best = api::solve(problem, api::SolveRequest{});
  if (!best.solved()) throw std::logic_error("unconstrained period unsolved");
  api::SweepRequest sweep;
  for (const double factor : {1.0, 1.25, 1.5, 2.0, 2.5, 3.0}) {
    sweep.bounds.push_back(best.value * factor);
  }
  PoolEntry entry;
  entry.pareto = true;
  entry.line = io::format_pareto_request(problem, sweep, id);
  // The reference answers the decoded line, exactly as a server would.
  const io::WireParetoRequest wire = io::parse_pareto_request_line(entry.line);
  const api::ParetoFront front = api::sweep(wire.problem, wire.request);
  for (const std::size_t index : front.front) {
    const api::SweepEvaluation& point = front.evaluations[index];
    entry.expected.push_back(
        io::format_front_point(point.result, point.bound, id, false));
  }
  entry.expected.push_back(io::format_pareto_summary(front, id, false));
  return entry;
}

/// The wire line of one solve and its reference answer, solved from the
/// decoded line exactly as a server would.
PoolEntry make_solve_entry(const Drawn& drawn, const std::string& id) {
  PoolEntry entry;
  entry.energy = drawn.request.objective == api::Objective::Energy;
  entry.line = io::format_solve_request(drawn.problem, drawn.request, id);
  const io::WireSolveRequest wire = io::parse_solve_request_line(entry.line);
  const api::SolveResult result = api::solve(wire.problem, wire.request);
  if (!result.solved()) {
    throw std::logic_error("reference solve of " + id + " came back " +
                           result.status_name());
  }
  entry.expected.push_back(io::format_result(result, id, false));
  return entry;
}

PoolEntry make_entry(Mix mix, std::uint64_t seed, std::uint64_t index) {
  util::Rng rng = entry_rng(seed, mix, index);
  std::string id = "k";
  id += std::to_string(index);
  switch (mix) {
    case Mix::WireSmall:
      return make_solve_entry(draw_wire_small(rng), id);
    case Mix::SolveHeavy:
      return make_solve_entry(draw_solve_heavy(rng, index % 8 == 7), id);
    case Mix::ReplayZipf:
      if (index < kZipfSweepKeys) return make_pareto_entry(rng, id);
      return make_solve_entry(
          draw_solve_heavy(rng, index < kZipfSweepKeys + kZipfEnergyKeys), id);
  }
  throw std::logic_error("unknown mix");
}

/// Cumulative Zipf weights over `keys` ranks.
std::vector<double> zipf_cdf(std::size_t keys) {
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t rank = 0; rank < keys; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    cdf[rank] = total;
  }
  return cdf;
}

/// The replay-zipf send order. Each send first draws its kind by the send
/// shares above, then a key of that kind by Zipf popularity, so every seed
/// sends the same mix of kinds at the same popularity profile and only
/// the instances differ.
std::vector<std::uint32_t> zipf_order(std::uint64_t seed) {
  util::Rng rng = entry_rng(seed, Mix::ReplayZipf, ~std::uint64_t{0});
  struct Kind {
    std::size_t first;
    std::vector<double> cdf;
  };
  const Kind sweeps{0, zipf_cdf(kZipfSweepKeys)};
  const Kind energy{kZipfSweepKeys, zipf_cdf(kZipfEnergyKeys)};
  const Kind latency{kZipfSweepKeys + kZipfEnergyKeys,
                     zipf_cdf(kZipfKeys - kZipfSweepKeys - kZipfEnergyKeys)};
  std::vector<std::uint32_t> order(kZipfDraws);
  for (auto& slot : order) {
    const double kind_draw = rng.uniform(0.0, 1.0);
    const Kind& kind = kind_draw < kZipfSweepShare                      ? sweeps
                       : kind_draw < kZipfSweepShare + kZipfEnergyShare ? energy
                                                                        : latency;
    const double u = rng.uniform(0.0, kind.cdf.back());
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(kind.cdf.begin(), kind.cdf.end(), u) - kind.cdf.begin());
    slot = static_cast<std::uint32_t>(kind.first + std::min(rank, kind.cdf.size() - 1));
  }
  return order;
}

}  // namespace

std::optional<Mix> parse_mix(std::string_view name) {
  if (name == "wire-small") return Mix::WireSmall;
  if (name == "solve-heavy") return Mix::SolveHeavy;
  if (name == "replay-zipf") return Mix::ReplayZipf;
  return std::nullopt;
}

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::WireSmall: return "wire-small";
    case Mix::SolveHeavy: return "solve-heavy";
    case Mix::ReplayZipf: return "replay-zipf";
  }
  return "?";
}

Workload make_workload(Mix mix, std::uint64_t seed, std::size_t threads) {
  const std::size_t size = mix == Mix::WireSmall    ? kWireSmallPool
                           : mix == Mix::SolveHeavy ? kSolveHeavyPool
                                                    : kZipfKeys;
  Workload workload;
  workload.mix = mix;
  workload.pool.resize(size);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  std::vector<std::string> errors(std::max<std::size_t>(threads, 1));
  for (std::size_t t = 0; t < errors.size(); ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < size;) {
          workload.pool[i] = make_entry(mix, seed, i);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
        next.store(size);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  if (mix == Mix::ReplayZipf) {
    workload.order = zipf_order(seed);
  } else {
    workload.order.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      workload.order[i] = static_cast<std::uint32_t>(i);
    }
  }
  return workload;
}

bool matches(const std::vector<std::string>& response, const PoolEntry& entry) {
  if (response.size() != entry.expected.size()) return false;
  for (std::size_t i = 0; i < response.size(); ++i) {
    if (strip_wall(response[i]) != entry.expected[i]) return false;
  }
  return true;
}

std::string strip_wall(std::string_view line) {
  constexpr std::string_view kKey = ",\"wall_s\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return std::string(line);
  const std::size_t close = line.find('"', at + kKey.size());
  if (close == std::string_view::npos) return std::string(line);
  std::string out(line.substr(0, at));
  out.append(line.substr(close + 1));
  return out;
}

}  // namespace fleetbench
