#pragma once

/// \file json.hpp
/// The flat-JSON dialect every pipeopt wire format speaks: one object per
/// line, string keys, string values, order preserved. One parser and one
/// writer serve the batch manifests of `solve-batch` (problem_io), the
/// request/result serialization of request_io/result_io, and the
/// pipeopt-server protocol — deliberately not a general JSON library.
///
/// Numbers travel as strings formatted by `format_double_exact` (shortest
/// round-trip form via std::to_chars), so a value that crosses the wire and
/// comes back parses to the identical bits — the property the server's
/// bit-identity guarantee rests on.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/numeric.hpp"

namespace pipeopt::io {

/// Thrown on malformed input; the message names the line number. `code` is
/// the typed wire error code a session answers with ("" for a plain
/// parse error, which carries none).
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& what, const char* code = "")
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        code_(code) {}
  [[nodiscard]] const char* code() const noexcept { return code_; }

 private:
  const char* code_;
};

/// Ordered fields of one flat JSON object.
using JsonFields = std::vector<std::pair<std::string, std::string>>;

/// Parses one flat JSON object of string values: {"key": "value", ...}.
/// \throws ParseError (naming `line_no`) on anything else — nested values,
/// non-string scalars, trailing characters.
[[nodiscard]] JsonFields parse_flat_json(const std::string& line,
                                         std::size_t line_no = 1);

/// JSON string literal for `text`, quotes included; escapes the mandatory
/// characters (", \, control bytes).
[[nodiscard]] std::string json_quote(const std::string& text);

/// Shortest decimal form of `value` that parses back to the identical
/// double (std::to_chars round-trip guarantee); "inf"/"-inf"/"nan" for the
/// non-finite values, matching util::parse_number<double>.
[[nodiscard]] std::string format_double_exact(double value);

/// Strict typed scalar off the wire: the whole value must parse (the same
/// contract as the CLI flags). \throws ParseError naming the field.
template <typename T>
[[nodiscard]] T parse_wire_number(const std::string& key,
                                  const std::string& value,
                                  std::size_t line_no) {
  const auto parsed = util::parse_number<T>(value);
  if (!parsed) {
    throw ParseError(line_no, "bad number for \"" + key + "\": '" + value + "'");
  }
  return *parsed;
}

/// Comma-separated doubles off the wire ("1,2.5,inf"); empty items are
/// malformed. \throws ParseError naming the field.
[[nodiscard]] std::vector<double> parse_wire_list(const std::string& key,
                                                  const std::string& value,
                                                  std::size_t line_no);

/// Builds one flat JSON object line field by field, preserving order.
class FlatJsonWriter {
 public:
  /// Appends "key": "value" (both get quoted/escaped).
  void field(const std::string& key, const std::string& value);

  /// The finished object, "{...}". The writer is spent afterwards.
  [[nodiscard]] std::string str() &&;

 private:
  std::string body_;
};

}  // namespace pipeopt::io
