#include "io/problem_io.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

namespace pipeopt::io {
namespace {

/// Separates tokens within a line; a line of nothing else is blank.
constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Splits one line into views of its whitespace-separated tokens.
void split_tokens(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  for (std::size_t i = 0, start = 0; i <= line.size(); ++i) {
    if (i < line.size() && !is_blank(line[i])) continue;
    if (i > start) tokens.push_back(line.substr(start, i - start));
    start = i + 1;
  }
}

/// Value of the first "key=value" token; throws when no token has `key`.
std::string_view keyed_value(const std::vector<std::string_view>& tokens,
                             std::string_view key, std::size_t line_no) {
  for (const std::string_view t : tokens) {
    if (t.size() > key.size() && t[key.size()] == '=' && t.starts_with(key)) {
      return t.substr(key.size() + 1);
    }
  }
  throw ParseError(line_no, "missing " + std::string(key) + "=...");
}

/// A number is a token strtod consumes whole without ERANGE. strtod reads
/// it in place: the byte after a token is always a separator (whitespace,
/// ',', ':', '#', '\n') or the text's closing NUL, and none can continue a
/// number, so strtod never reads a number past the token's end.
double parse_number(std::string_view token, std::size_t line_no) {
  if (!token.empty()) {
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.data(), &end);
    if (end == token.data() + token.size() && errno != ERANGE) return value;
  }
  throw ParseError(line_no, "bad number '" + std::string(token) + "'");
}

/// Pops the next ','-separated item off `list` into `item`; false once the
/// list is used up. A trailing comma ends the list: it opens no empty item.
bool next_item(std::string_view& list, std::string_view& item) {
  if (list.empty()) return false;
  const std::size_t comma = list.find(',');
  item = list.substr(0, comma);
  list.remove_prefix(comma == std::string_view::npos ? list.size() : comma + 1);
  return true;
}

/// Parses "a,b,c" into doubles.
std::vector<double> parse_list(std::string_view text, std::size_t line_no) {
  std::vector<double> values;
  for (std::string_view item; next_item(text, item);) {
    values.push_back(parse_number(item, line_no));
  }
  if (values.empty()) throw ParseError(line_no, "empty list");
  return values;
}

/// format_problem's pieces of instance text: text as is, or a number in
/// shortest round-trip form (format_double_exact's bytes).
void piece(std::string& out, std::string_view text) { out += text; }
void piece(std::string& out, double value) {
  if (!std::isfinite(value)) return piece(out, format_double_exact(value));
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

template <typename... Pieces>
void put(std::string& out, const Pieces&... pieces) {
  (piece(out, pieces), ...);
}

/// One indexed bandwidth row ("link 2 1,2,3"): row index + p values.
struct BandwidthRow {
  std::size_t index = 0;
  std::vector<double> values;
  std::size_t line_no = 0;
};

/// Parses "link|input|output INDEX v0,v1,..." into a BandwidthRow.
BandwidthRow parse_bandwidth_row(const std::vector<std::string_view>& tokens,
                                 std::size_t line_no) {
  if (tokens.size() != 3) {
    throw ParseError(line_no,
                     std::string(tokens.front()) + " takes an index and a list");
  }
  const double index = parse_number(tokens[1], line_no);
  if (!(index >= 0 && index < 0x1p64) || index != std::floor(index)) {
    throw ParseError(line_no, "bad index '" + std::string(tokens[1]) + "'");
  }
  return {static_cast<std::size_t>(index), parse_list(tokens[2], line_no),
          line_no};
}

/// Assembles indexed rows into a dense `count`-row matrix, demanding every
/// row exactly once and a uniform width.
std::vector<std::vector<double>> dense_rows(std::vector<BandwidthRow>& rows,
                                            std::size_t count, std::size_t width,
                                            const std::string& what,
                                            std::size_t line_no) {
  std::vector<std::vector<double>> dense(count);
  for (BandwidthRow& row : rows) {
    const std::string index = std::to_string(row.index);
    if (row.index >= count) {
      throw ParseError(row.line_no, what + " index " + index +
                                        " out of range (have " +
                                        std::to_string(count) + ")");
    }
    if (!dense[row.index].empty()) {
      throw ParseError(row.line_no, "duplicate " + what + " row " + index);
    }
    if (row.values.size() != width) {
      throw ParseError(row.line_no, what + " row " + index + " needs " +
                                        std::to_string(width) + " values, got " +
                                        std::to_string(row.values.size()));
    }
    dense[row.index] = std::move(row.values);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (dense[i].empty()) {
      throw ParseError(line_no, "missing " + what + " row " + std::to_string(i));
    }
  }
  return dense;
}

/// Parses the instance text, which a NUL must follow (see parse_number).
/// `line_no` counts lines as read; a final '\n' opens no new line, so past
/// the end it names the last line, as end-of-input errors do.
core::Problem parse_text(std::string_view text, std::size_t& line_no) {
  core::CommModel comm = core::CommModel::Overlap;
  double alpha = 2.0;
  double bandwidth = 0.0;
  std::vector<core::Processor> processors;
  std::vector<core::Application> applications;
  std::vector<BandwidthRow> link_rows, input_rows, output_rows;
  std::vector<std::string_view> tokens;
  for (std::size_t pos = 0; pos < text.size();) {
    ++line_no;
    const std::size_t end = text.find('\n', pos);
    const std::string_view line = text.substr(pos, end - pos);
    pos = end == std::string_view::npos ? text.size() : end + 1;
    split_tokens(line.substr(0, line.find('#')), tokens);
    if (tokens.empty()) continue;
    const std::string_view kind = tokens.front();
    if ((kind == "comm" || kind == "alpha" || kind == "bandwidth") &&
        tokens.size() != 2) {
      throw ParseError(line_no, std::string(kind) + " takes one value");
    }

    if (kind == "comm") {
      if (tokens[1] != "overlap" && tokens[1] != "no-overlap") {
        throw ParseError(line_no, "comm must be overlap or no-overlap");
      }
      comm = tokens[1] == "overlap" ? core::CommModel::Overlap
                                    : core::CommModel::NoOverlap;
    } else if (kind == "alpha") {
      alpha = parse_number(tokens[1], line_no);
    } else if (kind == "bandwidth") {
      bandwidth = parse_number(tokens[1], line_no);
    } else if (kind == "processor") {
      if (tokens.size() < 2) throw ParseError(line_no, "processor needs a name");
      const double static_energy =
          parse_number(keyed_value(tokens, "static", line_no), line_no);
      processors.emplace_back(
          parse_list(keyed_value(tokens, "speeds", line_no), line_no),
          static_energy, std::string(tokens[1]));
    } else if (kind == "app") {
      if (tokens.size() < 2) throw ParseError(line_no, "app needs a name");
      const double weight =
          parse_number(keyed_value(tokens, "weight", line_no), line_no);
      const double input =
          parse_number(keyed_value(tokens, "input", line_no), line_no);
      std::vector<core::StageSpec> stages;
      std::string_view list = keyed_value(tokens, "stages", line_no);
      for (std::string_view pair; next_item(list, pair);) {
        const auto colon = pair.find(':');
        if (colon == std::string_view::npos) {
          throw ParseError(line_no, "stage must be w:delta, got '" +
                                        std::string(pair) + "'");
        }
        const double w = parse_number(pair.substr(0, colon), line_no);
        stages.push_back({w, parse_number(pair.substr(colon + 1), line_no)});
      }
      applications.emplace_back(input, std::move(stages), weight,
                                std::string(tokens[1]));
    } else if (kind == "link" || kind == "input" || kind == "output") {
      (kind == "link" ? link_rows : kind == "input" ? input_rows : output_rows)
          .push_back(parse_bandwidth_row(tokens, line_no));
    } else {
      throw ParseError(line_no, "unknown directive '" + std::string(kind) + "'");
    }
  }

  if (processors.empty()) throw ParseError(line_no, "no processors declared");
  if (applications.empty()) throw ParseError(line_no, "no applications declared");
  const bool heterogeneous =
      !link_rows.empty() || !input_rows.empty() || !output_rows.empty();
  if (heterogeneous && bandwidth > 0.0) {
    throw ParseError(line_no,
                     "bandwidth and link/input/output rows are exclusive");
  }
  if (!heterogeneous) {
    if (!(bandwidth > 0.0)) throw ParseError(line_no, "bandwidth not declared");
    return core::Problem(std::move(applications),
                         core::Platform(std::move(processors), bandwidth, alpha),
                         comm);
  }
  // With several tables at fault, output rows report first, then input.
  const std::size_t p = processors.size();
  const std::size_t apps = applications.size();
  auto output = dense_rows(output_rows, apps, p, "output", line_no);
  auto input = dense_rows(input_rows, apps, p, "input", line_no);
  auto link = dense_rows(link_rows, p, p, "link", line_no);
  return core::Problem(
      std::move(applications),
      core::Platform(std::move(processors), std::move(link), std::move(input),
                     std::move(output), alpha),
      comm);
}

}  // namespace

core::Problem parse_problem_string(const std::string& text) {
  // A model constructor's complaint (a speed <= 0, alpha <= 1) names a line.
  std::size_t line_no = 0;
  try {
    return parse_text(text, line_no);
  } catch (const ParseError&) {
    throw;
  } catch (const std::exception& e) {
    throw ParseError(line_no, e.what());
  }
}

core::Problem load_problem(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  return parse_problem_string(
      std::string(std::istreambuf_iterator<char>(in), {}));
}

std::vector<core::Problem> parse_batch_jsonl(std::istream& in,
                                             const std::string& base_dir) {
  std::vector<core::Problem> problems;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;  // blank
    const auto fields = parse_flat_json(line, line_no);
    std::string path, inline_text;
    for (const auto& [key, value] : fields) {
      if (key == "path") {
        path = value;
      } else if (key == "problem") {
        inline_text = value;
      } else {
        throw ParseError(line_no, "unknown key '" + key +
                                      "' (expected \"path\" or \"problem\")");
      }
    }
    if (path.empty() == inline_text.empty()) {
      throw ParseError(line_no,
                       "exactly one of \"path\" or \"problem\" is required");
    }
    try {
      if (!path.empty()) {
        if (!base_dir.empty() && path.front() != '/') {
          path = base_dir + "/" + path;
        }
        problems.push_back(load_problem(path));
      } else {
        problems.push_back(parse_problem_string(inline_text));
      }
    } catch (const std::exception& e) {
      throw ParseError(line_no, std::string("instance error: ") + e.what());
    }
  }
  return problems;
}

std::vector<core::Problem> load_batch(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  const auto slash = path.find_last_of('/');
  return parse_batch_jsonl(in,
                           slash == std::string::npos ? std::string()
                                                      : path.substr(0, slash));
}

std::string format_problem(const core::Problem& problem) {
  // Shortest round-trip number formatting throughout: the emitted text
  // parses back to the bit-identical instance, which is what lets the
  // server wire format guarantee bit-identical solve results.
  const auto& platform = problem.platform();
  const std::size_t p = platform.processor_count();
  const std::size_t apps = problem.application_count();
  const bool uniform = platform.has_uniform_bandwidth();
  std::string out;
  // About 24 bytes per number, separator included.
  out.reserve(64 + 24 * (4 * p + 3 * apps + 2 * problem.total_stages() +
                         (uniform ? 0 : p * p + 2 * apps * p)));
  const auto list = [&out](std::size_t n, auto&& at) {
    for (std::size_t i = 0; i < n; ++i) put(out, i ? "," : "", at(i));
    out += '\n';
  };
  put(out, "comm ", to_string(problem.comm_model()), "\nalpha ",
      platform.alpha(), "\n");
  if (uniform) put(out, "bandwidth ", platform.uniform_bandwidth(), "\n");
  for (std::size_t u = 0; u < p; ++u) {
    const auto& proc = platform.processor(u);
    put(out, "processor ",
        proc.name().empty() ? "P" + std::to_string(u) : proc.name(),
        " static=", proc.static_energy(), " speeds=");
    list(proc.mode_count(), [&](std::size_t m) { return proc.speed(m); });
  }
  for (std::size_t a = 0; a < apps; ++a) {
    const auto& app = problem.application(a);
    put(out, "app ", app.name().empty() ? "App" + std::to_string(a) : app.name(),
        " weight=", app.weight(), " input=", app.boundary_size(0), " stages=");
    for (std::size_t k = 0; k < app.stage_count(); ++k) {
      put(out, k ? "," : "", app.compute(k), ":", app.boundary_size(k + 1));
    }
    out += '\n';
  }
  if (!uniform) {
    for (std::size_t u = 0; u < p; ++u) {
      put(out, "link ", std::to_string(u), " ");
      list(p, [&](std::size_t v) { return platform.bandwidth(u, v); });
    }
    for (std::size_t a = 0; a < apps; ++a) {
      put(out, "input ", std::to_string(a), " ");
      list(p, [&](std::size_t u) { return platform.in_bandwidth(a, u); });
      put(out, "output ", std::to_string(a), " ");
      list(p, [&](std::size_t u) { return platform.out_bandwidth(a, u); });
    }
  }
  return out;
}

}  // namespace pipeopt::io
