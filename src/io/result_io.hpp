#pragma once

/// \file result_io.hpp
/// Wire form of one solve result — the response side of the pipeopt-server
/// protocol, and the format of CLI `solve-batch --out` JSONL files, so the
/// batch path and the server share one result serialization. One flat JSON
/// object per line (json.hpp dialect):
///
/// ```json
/// {"type":"result","id":"42","status":"optimal","solver":"interval-period-dp",
///  "value":"2.5","mapping":"0:0-2@1/1;1:0-0@2/0",
///  "periods":"2.5,2","latencies":"4,3","weighted_period":"2.5",
///  "weighted_latency":"4","energy":"12","wall_s":"0.0012",
///  "diag.nodes":"123"}
/// ```
///
/// The mapping travels as `app:first-last@proc/mode` interval terms joined
/// by ';'. `mapping` and the metrics fields appear only when the solve
/// produced a mapping; diagnostics keep their order under `diag.`-prefixed
/// keys. Numbers are shortest-round-trip (json.hpp), so
/// `parse_result(format_result(r))` reproduces the result bit for bit —
/// except `wall_s`, which is honest wall time and can be omitted
/// (`include_wall = false`) when lines are compared across runs.
///
/// A `{"type":"pareto"}` exchange streams one such result line per front
/// point — identical except for one extra `"bound"` field (the swept-bound
/// value that produced the point), placed right after `id` — followed by a
/// terminal `{"type":"pareto"}` summary line (`format_pareto_summary`).
/// docs/PROTOCOL.md documents the full exchange.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "api/result.hpp"
#include "api/sweep.hpp"
#include "core/mapping.hpp"
#include "io/json.hpp"

namespace pipeopt::io {

/// One decoded wire result with its correlation id ("" when absent).
struct WireResult {
  api::SolveResult result;
  std::string id;
  /// The swept-bound value, present only on pareto front-point lines.
  std::optional<double> bound;
};

/// One result as a single JSONL line (no trailing newline).
[[nodiscard]] std::string format_result(const api::SolveResult& result,
                                        const std::string& id = {},
                                        bool include_wall = true);

/// Decodes already-parsed fields. \throws ParseError naming `line_no`.
[[nodiscard]] WireResult parse_result(const JsonFields& fields,
                                      std::size_t line_no = 1);

/// `parse_flat_json` + `parse_result`.
[[nodiscard]] WireResult parse_result_line(const std::string& line,
                                           std::size_t line_no = 1);

/// Mapping wire form: interval terms `app:first-last@proc/mode` joined by
/// ';' ("0:0-2@1/1;1:0-0@2/0").
[[nodiscard]] std::string format_mapping(const core::Mapping& mapping);

/// Inverse of format_mapping. \throws ParseError on malformed text.
[[nodiscard]] core::Mapping parse_mapping(const std::string& text,
                                          std::size_t line_no = 1);

/// One pareto front point as a result line with its producing `bound`
/// value; decoded by `parse_result` (WireResult::bound set).
[[nodiscard]] std::string format_front_point(const api::SolveResult& result,
                                             double bound,
                                             const std::string& id = {},
                                             bool include_wall = true);

/// Decoded terminal line of one pareto exchange.
struct WireParetoSummary {
  std::string id;
  /// False when the sweep was cut short (deadline, cancel or disconnect)
  /// and the streamed front covers only the evaluated prefix.
  bool complete = true;
  std::uint64_t points = 0;            ///< front points streamed
  std::uint64_t evaluated = 0;         ///< grid points solved or attempted
  std::uint64_t infeasible = 0;        ///< grid points proved infeasible
  std::uint64_t cancelled_points = 0;  ///< grid points lost to cancellation
  double wall_seconds = 0.0;
};

/// The `{"type":"pareto","status":...}` summary line closing one streamed
/// front; counts taken from the sweep result. `include_wall` as above.
[[nodiscard]] std::string format_pareto_summary(const api::ParetoFront& front,
                                                const std::string& id = {},
                                                bool include_wall = true);

/// Decodes already-parsed summary fields. \throws ParseError naming `line_no`.
[[nodiscard]] WireParetoSummary parse_pareto_summary(const JsonFields& fields,
                                                     std::size_t line_no = 1);

/// `parse_flat_json` + `parse_pareto_summary`.
[[nodiscard]] WireParetoSummary parse_pareto_summary_line(
    const std::string& line, std::size_t line_no = 1);

/// One structured `{"type":"error",...}` response line — the shared error
/// serialization of the server and the router, so their bytes cannot
/// drift. Field order: type, id (omitted when empty), code (omitted when
/// empty — the server's parse/validation errors carry none; the router's
/// typed failures use "overloaded", "unavailable" and "shard-lost"),
/// message.
[[nodiscard]] std::string format_error(const std::string& message,
                                       const std::string& id = {},
                                       const std::string& code = {});

/// The typed `line-too-long` error a front session (server, router or
/// stdio) answers before closing on a line over util::kMaxLineBytes.
[[nodiscard]] std::string format_line_too_long();

}  // namespace pipeopt::io
