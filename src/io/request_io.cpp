#include "io/request_io.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "io/problem_io.hpp"

namespace pipeopt::io {
namespace {

/// "v" or "v1,v2,...": one value replicates per application, otherwise the
/// count must match — the same semantics as the CLI's --*-bounds flags.
core::Thresholds wire_bounds(const std::string& key, const std::string& value,
                             std::size_t apps, std::size_t line_no) {
  std::vector<double> bounds = parse_wire_list(key, value, line_no);
  if (bounds.size() == 1) bounds.assign(apps, bounds.front());
  if (bounds.size() != apps) {
    throw ParseError(line_no, "\"" + key + "\" needs 1 or " +
                                  std::to_string(apps) + " values, got " +
                                  std::to_string(bounds.size()));
  }
  return core::Thresholds::per_app(std::move(bounds));
}

core::WeightPolicy wire_weights(const std::string& value, std::size_t line_no) {
  if (value == "unit") return core::WeightPolicy::Unit;
  if (value == "priority") return core::WeightPolicy::Priority;
  if (value == "stretch") return core::WeightPolicy::Stretch;
  throw ParseError(line_no, "bad \"weights\": '" + value + "'");
}

const char* to_string(core::WeightPolicy policy) noexcept {
  switch (policy) {
    case core::WeightPolicy::Unit: return "unit";
    case core::WeightPolicy::Priority: return "priority";
    case core::WeightPolicy::Stretch: return "stretch";
  }
  return "?";
}

/// Accumulates the solve fields shared by the "solve" and "pareto" request
/// lines, so the two parsers cannot drift: each `consume` call handles one
/// field, `finish` resolves the instance-dependent pieces (bounds need the
/// application count, so they resolve after the instance).
struct SolveFieldReader {
  SolveFieldReader(std::size_t line_no, const std::string& base_dir)
      : line_no(line_no), base_dir(base_dir) {}

  std::size_t line_no;
  const std::string& base_dir;

  std::optional<core::Problem> problem;
  api::SolveRequest request;
  std::string id;
  std::string period_bounds, latency_bounds;
  bool have_period_bounds = false, have_latency_bounds = false;
  bool have_objective = false;

  /// Consumes one shared field; false when `key` is not a solve field.
  bool consume(const std::string& key, const std::string& value) {
    if (key == "id") {
      id = value;
    } else if (key == "objective") {
      const auto objective = api::parse_objective(value);
      if (!objective) throw ParseError(line_no, "bad \"objective\": '" + value + "'");
      request.objective = *objective;
      have_objective = true;
    } else if (key == "kind") {
      const auto kind = api::parse_mapping_kind(value);
      if (!kind) throw ParseError(line_no, "bad \"kind\": '" + value + "'");
      request.kind = *kind;
    } else if (key == "weights") {
      request.weights = wire_weights(value, line_no);
    } else if (key == "solver") {
      if (value != "auto") request.solver = value;
    } else if (key == "period_bounds") {
      period_bounds = value;
      have_period_bounds = true;
    } else if (key == "latency_bounds") {
      latency_bounds = value;
      have_latency_bounds = true;
    } else if (key == "energy_budget") {
      request.constraints.energy_budget = parse_wire_number<double>(key, value, line_no);
    } else if (key == "node_budget") {
      request.node_budget = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "time_budget_s") {
      request.time_budget_seconds = parse_wire_number<double>(key, value, line_no);
    } else if (key == "seed") {
      request.seed = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "deadline_ms") {
      request.deadline_ms = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "warm_start") {
      request.warm_start = parse_wire_number<double>(key, value, line_no);
    } else if (key == "trace") {
      // Transport-level trace id (obs/trace.hpp), spliced in by a router so
      // shard span logs share the fleet-wide id. Like `cancel` it is not
      // request identity: the server peeks it straight off the raw fields,
      // so the reader only has to accept the key. Never echoed back.
    } else if (key == "problem") {
      if (problem) throw ParseError(line_no, "duplicate instance field");
      try {
        problem = parse_problem_string(value);
      } catch (const std::exception& e) {
        throw ParseError(line_no, std::string("instance error: ") + e.what());
      }
    } else if (key == "path") {
      // Only a local manifest names a directory. A session has none, and
      // must not open a file its client names: the file's bytes would
      // echo back in the error, and a FIFO would block the session.
      if (base_dir.empty()) {
        throw ParseError(line_no,
                         "\"path\" is not accepted on a session; send the "
                         "instance inline as \"problem\"",
                         "path-refused");
      }
      if (problem) throw ParseError(line_no, "duplicate instance field");
      std::string path = value;
      if (!path.empty() && path.front() != '/') path = base_dir + "/" + path;
      try {
        problem = load_problem(path);
      } catch (const std::exception& e) {
        throw ParseError(line_no, std::string("instance error: ") + e.what());
      }
    } else {
      return false;
    }
    return true;
  }

  /// Resolves the accumulated fields into the decoded request.
  WireSolveRequest finish() {
    if (!problem) {
      throw ParseError(line_no, "exactly one of \"problem\" or \"path\" is required");
    }
    if (have_period_bounds) {
      request.constraints.period = wire_bounds(
          "period_bounds", period_bounds, problem->application_count(), line_no);
    }
    if (have_latency_bounds) {
      request.constraints.latency = wire_bounds(
          "latency_bounds", latency_bounds, problem->application_count(), line_no);
    }
    return WireSolveRequest{std::move(*problem), std::move(request), std::move(id)};
  }
};

/// Shared formatting of the solve fields (everything but type/sweep
/// machinery and the trailing instance); fields equal to `defaults` are
/// omitted, mirroring SolveFieldReader.
void write_solve_fields(FlatJsonWriter& out, const api::SolveRequest& request,
                        const api::SolveRequest& defaults) {
  out.field("objective", api::to_string(request.objective));
  if (request.kind != defaults.kind) {
    out.field("kind", api::to_string(request.kind));
  }
  if (request.weights != defaults.weights) {
    out.field("weights", to_string(request.weights));
  }
  if (request.solver) out.field("solver", *request.solver);
  const auto bounds_list = [](const core::Thresholds& bounds) {
    std::string list;
    for (std::size_t a = 0; a < bounds.size(); ++a) {
      list += (a ? "," : "") + format_double_exact(bounds.bound(a));
    }
    return list;
  };
  if (request.constraints.period) {
    out.field("period_bounds", bounds_list(*request.constraints.period));
  }
  if (request.constraints.latency) {
    out.field("latency_bounds", bounds_list(*request.constraints.latency));
  }
  if (request.constraints.energy_budget) {
    out.field("energy_budget",
              format_double_exact(*request.constraints.energy_budget));
  }
  if (request.node_budget != defaults.node_budget) {
    out.field("node_budget", std::to_string(request.node_budget));
  }
  if (request.time_budget_seconds) {
    out.field("time_budget_s", format_double_exact(*request.time_budget_seconds));
  }
  if (request.seed != defaults.seed) {
    out.field("seed", std::to_string(request.seed));
  }
  if (request.deadline_ms) {
    out.field("deadline_ms", std::to_string(*request.deadline_ms));
  }
  if (request.warm_start) {
    out.field("warm_start", format_double_exact(*request.warm_start));
  }
}

}  // namespace

std::string format_solve_key(const core::Problem& problem,
                             const api::SolveRequest& request) {
  // Exactly the wire fields of format_solve_request minus "type" and "id":
  // two requests that differ only in presentation (field order on the wire,
  // replicated vs per-app bound lists, instance-text whitespace) collapse
  // to the same bytes, while anything that can change the result — the
  // objective pair, constraint values, budgets, seed, warm-start hint, the
  // instance itself — keeps its exact canonical form.
  FlatJsonWriter out;
  write_solve_fields(out, request, api::SolveRequest{});
  out.field("problem", format_problem(problem));
  return std::move(out).str();
}

WireSolveRequest parse_solve_request(const JsonFields& fields,
                                     std::size_t line_no,
                                     const std::string& base_dir) {
  SolveFieldReader reader{line_no, base_dir};
  for (const auto& [key, value] : fields) {
    if (key == "type") {
      if (value != "solve") {
        throw ParseError(line_no, "expected \"type\":\"solve\", got '" + value + "'");
      }
    } else if (!reader.consume(key, value)) {
      throw ParseError(line_no, "unknown request field \"" + key + "\"");
    }
  }
  return reader.finish();
}

WireSolveRequest parse_solve_request_line(const std::string& line,
                                          std::size_t line_no,
                                          const std::string& base_dir) {
  return parse_solve_request(parse_flat_json(line, line_no), line_no, base_dir);
}

std::string format_solve_request(const core::Problem& problem,
                                 const api::SolveRequest& request,
                                 const std::string& id) {
  FlatJsonWriter out;
  out.field("type", "solve");
  if (!id.empty()) out.field("id", id);
  write_solve_fields(out, request, api::SolveRequest{});
  out.field("problem", format_problem(problem));
  return std::move(out).str();
}

WireParetoRequest parse_pareto_request(const JsonFields& fields,
                                       std::size_t line_no,
                                       const std::string& base_dir) {
  SolveFieldReader reader{line_no, base_dir};
  api::SweepRequest sweep;
  bool have_bounds = false;
  for (const auto& [key, value] : fields) {
    if (key == "type") {
      if (value != "pareto") {
        throw ParseError(line_no,
                         "expected \"type\":\"pareto\", got '" + value + "'");
      }
    } else if (key == "sweep") {
      const auto swept = api::parse_objective(value);
      if (!swept) throw ParseError(line_no, "bad \"sweep\": '" + value + "'");
      sweep.swept = *swept;
    } else if (key == "sweep_bounds") {
      sweep.bounds = parse_wire_list(key, value, line_no);
      have_bounds = true;
    } else if (key == "refine") {
      sweep.refine = parse_wire_number<std::size_t>(key, value, line_no);
    } else if (!reader.consume(key, value)) {
      throw ParseError(line_no, "unknown pareto request field \"" + key + "\"");
    }
  }
  if (!have_bounds) {
    throw ParseError(line_no, "pareto request needs \"sweep_bounds\"");
  }
  // Sweeps default to energy minimization (the §2 progression); an explicit
  // "objective" overrides it through the shared reader.
  if (!reader.have_objective) {
    reader.request.objective = api::Objective::Energy;
  }
  WireSolveRequest base = reader.finish();
  sweep.base = std::move(base.request);
  return WireParetoRequest{std::move(base.problem), std::move(sweep),
                           std::move(base.id)};
}

WireParetoRequest parse_pareto_request_line(const std::string& line,
                                            std::size_t line_no,
                                            const std::string& base_dir) {
  return parse_pareto_request(parse_flat_json(line, line_no), line_no, base_dir);
}

std::string format_pareto_request(const core::Problem& problem,
                                  const api::SweepRequest& request,
                                  const std::string& id) {
  const api::SweepRequest defaults;
  FlatJsonWriter out;
  out.field("type", "pareto");
  if (!id.empty()) out.field("id", id);
  if (request.swept != defaults.swept) {
    out.field("sweep", api::to_string(request.swept));
  }
  std::string grid;
  for (std::size_t i = 0; i < request.bounds.size(); ++i) {
    grid += (i ? "," : "") + format_double_exact(request.bounds[i]);
  }
  out.field("sweep_bounds", grid);
  if (request.refine != defaults.refine) {
    out.field("refine", std::to_string(request.refine));
  }
  write_solve_fields(out, request.base, defaults.base);
  out.field("problem", format_problem(problem));
  return std::move(out).str();
}

}  // namespace pipeopt::io
