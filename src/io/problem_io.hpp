#pragma once

/// \file problem_io.hpp
/// Plain-text problem format, so instances can be written by hand, checked
/// into repositories and fed to the CLI tool. Line-oriented:
///
/// ```text
/// # the paper's §2 example
/// comm overlap              # or no-overlap (default overlap)
/// alpha 2                   # energy exponent (default 2)
/// bandwidth 1               # uniform link bandwidth
/// processor P1 static=0 speeds=3,6
/// processor P2 static=0 speeds=6,8
/// processor P3 static=0 speeds=1,6
/// app App1 weight=1 input=1 stages=3:3,2:2,1:0    # stages = w:delta,...
/// app App2 weight=1 input=0 stages=2:2,6:1,4:1,2:1
/// ```
///
/// Fully heterogeneous platforms replace the single `bandwidth` line with
/// explicit per-link rows (0-based indices in declaration order; exactly
/// one of the two styles per instance):
///
/// ```text
/// link 0 1,2.5,4            # row u of the symmetric p×p matrix
/// input 0 1,1,0.5           # app a's source-to-P_u bandwidths (p values)
/// output 0 2,1,1            # app a's P_u-to-sink bandwidths (p values)
/// ```
///
/// All p `link` rows and all A `input`/`output` rows are then required.
/// Lines end at `\n`, and `#` comments run to the line's end. Tokens are
/// split on space, `\t`, `\r`, `\v` and `\f`; a line of only these is
/// blank. A number is a token `strtod` consumes whole, out-of-range values
/// (overflow, subnormals) rejected: `1.`, `.5`, `+1`, `0x10` and `inf`
/// parse, `1e400` and `1e-310` do not. A list drops one trailing comma
/// (`speeds=1,2,` is `[1,2]`); an empty item (`1,,2`) is a bad number.
/// Numbers are emitted by `format_problem` in shortest round-trip form, so
/// parse(format(problem)) reproduces the instance bit for bit — the
/// property the pipeopt-server wire format builds on. The parser reports
/// the offending line on error (io::ParseError, from json.hpp).

#include <iosfwd>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "io/json.hpp"

namespace pipeopt::io {

/// Parses the text format. \throws ParseError naming the offending line.
[[nodiscard]] core::Problem parse_problem_string(const std::string& text);

/// Parses from a file. \throws std::runtime_error when unreadable.
[[nodiscard]] core::Problem load_problem(const std::string& path);

/// Parses a JSONL batch: one JSON object per line, blank lines skipped.
/// Each object names one instance, either by file or inline:
///
/// ```jsonl
/// {"path": "instances/grid_a.txt"}
/// {"problem": "comm overlap\nbandwidth 1\nprocessor P1 speeds=1\n..."}
/// ```
///
/// Relative "path" entries resolve against `base_dir` (the JSONL file's own
/// directory in `load_batch`). Only flat objects with string values are
/// accepted — this is the batch manifest format of `pipeopt solve-batch`,
/// not a general JSON parser. \throws ParseError naming the offending line.
[[nodiscard]] std::vector<core::Problem> parse_batch_jsonl(
    std::istream& in, const std::string& base_dir = {});

/// `parse_batch_jsonl` over a file. \throws std::runtime_error when
/// unreadable, ParseError on malformed content.
[[nodiscard]] std::vector<core::Problem> load_batch(const std::string& path);

/// Serializes a problem back to the text format, uniform-bandwidth or
/// fully heterogeneous alike; parse_problem_string(format_problem(p))
/// rebuilds the identical instance (shortest round-trip number formatting).
[[nodiscard]] std::string format_problem(const core::Problem& problem);

}  // namespace pipeopt::io
