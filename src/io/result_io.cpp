#include "io/result_io.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/fdio.hpp"
#include "util/numeric.hpp"

namespace pipeopt::io {
namespace {

api::SolveStatus wire_status(const std::string& value, std::size_t line_no) {
  for (const api::SolveStatus status :
       {api::SolveStatus::Optimal, api::SolveStatus::Feasible,
        api::SolveStatus::Infeasible, api::SolveStatus::LimitExceeded,
        api::SolveStatus::NoSolver}) {
    if (value == api::to_string(status)) return status;
  }
  throw ParseError(line_no, "bad \"status\": '" + value + "'");
}

/// Parses the digits of one non-negative index out of `text` at `pos`.
std::size_t mapping_index(const std::string& text, std::size_t& pos,
                          std::size_t line_no) {
  std::size_t end = pos;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  const auto parsed =
      util::parse_number<std::size_t>(text.substr(pos, end - pos));
  if (!parsed) {
    throw ParseError(line_no, "bad mapping term near '" + text.substr(pos) + "'");
  }
  pos = end;
  return *parsed;
}

void mapping_expect(const std::string& text, std::size_t& pos, char c,
                    std::size_t line_no) {
  if (pos >= text.size() || text[pos] != c) {
    throw ParseError(line_no, std::string("expected '") + c +
                                  "' in mapping term near '" +
                                  text.substr(pos) + "'");
  }
  ++pos;
}

}  // namespace

std::string format_mapping(const core::Mapping& mapping) {
  std::string out;
  for (const core::IntervalAssignment& iv : mapping.intervals()) {
    if (!out.empty()) out += ';';
    out += std::to_string(iv.app) + ':' + std::to_string(iv.first) + '-' +
           std::to_string(iv.last) + '@' + std::to_string(iv.proc) + '/' +
           std::to_string(iv.mode);
  }
  return out;
}

core::Mapping parse_mapping(const std::string& text, std::size_t line_no) {
  std::vector<core::IntervalAssignment> intervals;
  std::size_t pos = 0;
  while (pos < text.size()) {
    core::IntervalAssignment iv;
    iv.app = mapping_index(text, pos, line_no);
    mapping_expect(text, pos, ':', line_no);
    iv.first = mapping_index(text, pos, line_no);
    mapping_expect(text, pos, '-', line_no);
    iv.last = mapping_index(text, pos, line_no);
    mapping_expect(text, pos, '@', line_no);
    iv.proc = mapping_index(text, pos, line_no);
    mapping_expect(text, pos, '/', line_no);
    iv.mode = mapping_index(text, pos, line_no);
    if (iv.first > iv.last) {
      throw ParseError(line_no, "inverted interval " + std::to_string(iv.first) +
                                    "-" + std::to_string(iv.last));
    }
    intervals.push_back(iv);
    if (pos < text.size()) mapping_expect(text, pos, ';', line_no);
  }
  try {
    return core::Mapping(std::move(intervals));
  } catch (const std::exception& e) {
    throw ParseError(line_no, std::string("bad mapping: ") + e.what());
  }
}

namespace {

std::string format_result_impl(const api::SolveResult& result,
                               const std::string& id, bool include_wall,
                               const std::optional<double>& bound) {
  FlatJsonWriter out;
  out.field("type", "result");
  if (!id.empty()) out.field("id", id);
  if (bound) out.field("bound", format_double_exact(*bound));
  out.field("status", result.status_name());
  out.field("solver", result.solver);
  out.field("value", format_double_exact(result.value));
  if (result.mapping) {
    out.field("mapping", format_mapping(*result.mapping));
    std::string periods, latencies;
    for (std::size_t a = 0; a < result.metrics.per_app.size(); ++a) {
      periods += (a ? "," : "") +
                 format_double_exact(result.metrics.per_app[a].period);
      latencies += (a ? "," : "") +
                   format_double_exact(result.metrics.per_app[a].latency);
    }
    out.field("periods", periods);
    out.field("latencies", latencies);
    out.field("weighted_period",
              format_double_exact(result.metrics.max_weighted_period));
    out.field("weighted_latency",
              format_double_exact(result.metrics.max_weighted_latency));
    out.field("energy", format_double_exact(result.metrics.energy));
  }
  if (include_wall) {
    out.field("wall_s", format_double_exact(result.wall_seconds));
  }
  for (const auto& [key, value] : result.diagnostics) {
    out.field("diag." + key, value);
  }
  return std::move(out).str();
}

}  // namespace

std::string format_result(const api::SolveResult& result, const std::string& id,
                          bool include_wall) {
  return format_result_impl(result, id, include_wall, std::nullopt);
}

std::string format_front_point(const api::SolveResult& result, double bound,
                               const std::string& id, bool include_wall) {
  return format_result_impl(result, id, include_wall, bound);
}

WireResult parse_result(const JsonFields& fields, std::size_t line_no) {
  WireResult wire;
  api::SolveResult& result = wire.result;
  bool have_status = false;
  std::optional<std::vector<double>> periods, latencies;
  for (const auto& [key, value] : fields) {
    if (key == "type") {
      if (value != "result") {
        throw ParseError(line_no,
                         "expected \"type\":\"result\", got '" + value + "'");
      }
    } else if (key == "id") {
      wire.id = value;
    } else if (key == "bound") {
      wire.bound = parse_wire_number<double>(key, value, line_no);
    } else if (key == "status") {
      result.status = wire_status(value, line_no);
      have_status = true;
    } else if (key == "solver") {
      result.solver = value;
    } else if (key == "value") {
      result.value = parse_wire_number<double>(key, value, line_no);
    } else if (key == "mapping") {
      result.mapping = parse_mapping(value, line_no);
    } else if (key == "periods") {
      periods = parse_wire_list(key, value, line_no);
    } else if (key == "latencies") {
      latencies = parse_wire_list(key, value, line_no);
    } else if (key == "weighted_period") {
      result.metrics.max_weighted_period = parse_wire_number<double>(key, value, line_no);
    } else if (key == "weighted_latency") {
      result.metrics.max_weighted_latency = parse_wire_number<double>(key, value, line_no);
    } else if (key == "energy") {
      result.metrics.energy = parse_wire_number<double>(key, value, line_no);
    } else if (key == "wall_s") {
      result.wall_seconds = parse_wire_number<double>(key, value, line_no);
    } else if (key.rfind("diag.", 0) == 0) {
      result.diagnostics.emplace_back(key.substr(5), value);
    } else {
      throw ParseError(line_no, "unknown result field \"" + key + "\"");
    }
  }
  if (!have_status) throw ParseError(line_no, "missing \"status\"");
  if (periods || latencies) {
    if (!periods || !latencies || periods->size() != latencies->size()) {
      throw ParseError(line_no, "periods/latencies must come as equal lists");
    }
    result.metrics.per_app.resize(periods->size());
    for (std::size_t a = 0; a < periods->size(); ++a) {
      result.metrics.per_app[a].period = (*periods)[a];
      result.metrics.per_app[a].latency = (*latencies)[a];
    }
  }
  return wire;
}

WireResult parse_result_line(const std::string& line, std::size_t line_no) {
  return parse_result(parse_flat_json(line, line_no), line_no);
}

std::string format_pareto_summary(const api::ParetoFront& front,
                                  const std::string& id, bool include_wall) {
  FlatJsonWriter out;
  out.field("type", "pareto");
  if (!id.empty()) out.field("id", id);
  out.field("status", front.cancelled ? "cancelled" : "complete");
  out.field("points", std::to_string(front.front.size()));
  out.field("evaluated", std::to_string(front.evaluations.size()));
  out.field("infeasible", std::to_string(front.infeasible_points));
  out.field("cancelled", std::to_string(front.cancelled_points));
  if (include_wall) {
    out.field("wall_s", format_double_exact(front.wall_seconds));
  }
  return std::move(out).str();
}

WireParetoSummary parse_pareto_summary(const JsonFields& fields,
                                       std::size_t line_no) {
  WireParetoSummary summary;
  bool have_status = false;
  for (const auto& [key, value] : fields) {
    if (key == "type") {
      if (value != "pareto") {
        throw ParseError(line_no,
                         "expected \"type\":\"pareto\", got '" + value + "'");
      }
    } else if (key == "id") {
      summary.id = value;
    } else if (key == "status") {
      if (value == "complete") {
        summary.complete = true;
      } else if (value == "cancelled") {
        summary.complete = false;
      } else {
        throw ParseError(line_no, "bad \"status\": '" + value + "'");
      }
      have_status = true;
    } else if (key == "points") {
      summary.points = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "evaluated") {
      summary.evaluated = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "infeasible") {
      summary.infeasible = parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "cancelled") {
      summary.cancelled_points =
          parse_wire_number<std::uint64_t>(key, value, line_no);
    } else if (key == "wall_s") {
      summary.wall_seconds = parse_wire_number<double>(key, value, line_no);
    } else {
      throw ParseError(line_no, "unknown summary field \"" + key + "\"");
    }
  }
  if (!have_status) throw ParseError(line_no, "missing \"status\"");
  return summary;
}

WireParetoSummary parse_pareto_summary_line(const std::string& line,
                                            std::size_t line_no) {
  return parse_pareto_summary(parse_flat_json(line, line_no), line_no);
}

std::string format_error(const std::string& message, const std::string& id,
                         const std::string& code) {
  FlatJsonWriter out;
  out.field("type", "error");
  if (!id.empty()) out.field("id", id);
  if (!code.empty()) out.field("code", code);
  out.field("message", message);
  return std::move(out).str();
}

std::string format_line_too_long() {
  return format_error("request line exceeds " +
                          std::to_string(util::kMaxLineBytes) + " bytes",
                      "", "line-too-long");
}

}  // namespace pipeopt::io
