/// \file wire_fuzz_test.cpp
/// Seeded robustness fuzz over the wire protocol (io/request_io,
/// io/result_io, and the io/problem_io instance text a request carries):
/// shuffled field orders, duplicated fields, unknown keys, truncated lines,
/// random byte mutations and edits inside the instance text must either
/// round-trip to the canonical bytes or surface as a typed io::ParseError —
/// never crash, never throw anything else. Runs under the `fuzz` ctest
/// label and in the ASan/UBSan CI pass.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/request.hpp"
#include "gen/motivating_example.hpp"
#include "io/json.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "util/random.hpp"

namespace pipeopt::io {
namespace {

/// A request line with most optional fields present, so the fuzz reaches
/// the numeric, list and enum parsing paths; shape varies with the seed.
std::string canonical_request_line(std::uint64_t seed) {
  const core::Problem problem = gen::motivating_example();
  api::SolveRequest request;
  request.objective = std::array{api::Objective::Period,
                                 api::Objective::Latency,
                                 api::Objective::Energy}[seed % 3];
  if (seed % 2 == 0) request.kind = api::MappingKind::OneToOne;
  if (seed % 3 != 0) {
    request.constraints.period = core::Thresholds::per_app(
        std::vector<double>(problem.application_count(), 9.5));
  }
  if (seed % 4 == 0) request.constraints.energy_budget = 123.25;
  request.node_budget = 1000 + seed;
  request.seed = seed;
  return format_solve_request(problem, request, std::to_string(seed));
}

/// A result line covering mapping, metrics and diagnostics serialization.
std::string canonical_result_line(std::uint64_t seed) {
  const core::Problem problem = gen::motivating_example();
  api::SolveRequest request;
  if (seed % 2 == 0) request.objective = api::Objective::Energy;
  const api::SolveResult result = api::solve(problem, request);
  return format_result(result, std::to_string(seed), /*include_wall=*/false);
}

/// Parses with the given line parser; returns true on success, false on a
/// typed ParseError. Anything else escapes and fails the test — that is
/// the property under fuzz.
template <typename Parser>
bool parses(Parser&& parser, const std::string& line) {
  try {
    (void)parser(line);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

const auto parse_request = [](const std::string& line) {
  return parse_solve_request_line(line);
};
const auto parse_result_l = [](const std::string& line) {
  return parse_result_line(line);
};

/// Re-serializes parsed fields in the given order.
std::string rebuild_line(const JsonFields& fields) {
  FlatJsonWriter writer;
  for (const auto& [key, value] : fields) writer.field(key, value);
  return std::move(writer).str();
}

void shuffle_fields(JsonFields& fields, util::Rng& rng) {
  for (std::size_t i = fields.size(); i > 1; --i) {
    std::swap(fields[i - 1], fields[rng.index(i)]);
  }
}

/// Result-line shuffle: permutes field positions but keeps the relative
/// order of `diag.` entries. Diagnostics are an ordered list on the wire
/// (result_io.hpp — the heuristic ladder's rung sequence is meaningful), so
/// their sequence is part of the decoded result, not presentation.
void shuffle_result_fields(JsonFields& fields, util::Rng& rng) {
  std::vector<std::pair<std::string, std::string>> diag;
  for (const auto& field : fields) {
    if (field.first.rfind("diag.", 0) == 0) diag.push_back(field);
  }
  shuffle_fields(fields, rng);
  std::size_t next = 0;
  for (auto& field : fields) {
    if (field.first.rfind("diag.", 0) == 0) field = diag[next++];
  }
}

class WireFuzz : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

TEST_P(WireFuzz, TruncatedRequestLinesNeverCrash) {
  const std::string line = canonical_request_line(seed());
  // Every prefix short of the full line is malformed for this line shape
  // (the instance field comes last), so each must throw a typed ParseError.
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(parses(parse_request, line.substr(0, len))) << len;
  }
  EXPECT_TRUE(parses(parse_request, line));
}

TEST_P(WireFuzz, TruncatedResultLinesNeverCrash) {
  const std::string line = canonical_result_line(seed());
  for (std::size_t len = 0; len < line.size(); ++len) {
    (void)parses(parse_result_l, line.substr(0, len));  // must not crash
  }
  EXPECT_TRUE(parses(parse_result_l, line));
}

TEST_P(WireFuzz, ShuffledRequestFieldsRoundTripByteStable) {
  const std::string line = canonical_request_line(seed());
  const WireSolveRequest reference = parse_solve_request_line(line);

  JsonFields fields = parse_flat_json(line);
  util::Rng rng(seed() * 40493 + 5);
  for (int round = 0; round < 8; ++round) {
    shuffle_fields(fields, rng);
    const WireSolveRequest reparsed =
        parse_solve_request_line(rebuild_line(fields));
    // Field order is presentation, not identity: the canonical bytes and
    // the cache key must come out identical.
    EXPECT_EQ(format_solve_request(reparsed.problem, reparsed.request,
                                   reparsed.id),
              line);
    EXPECT_EQ(format_solve_key(reparsed.problem, reparsed.request),
              format_solve_key(reference.problem, reference.request));
  }
}

TEST_P(WireFuzz, ShuffledResultFieldsRoundTripByteStable) {
  const std::string line = canonical_result_line(seed());
  JsonFields fields = parse_flat_json(line);
  util::Rng rng(seed() * 48017 + 11);
  for (int round = 0; round < 8; ++round) {
    shuffle_result_fields(fields, rng);
    const WireResult reparsed = parse_result_line(rebuild_line(fields));
    EXPECT_EQ(format_result(reparsed.result, reparsed.id,
                            /*include_wall=*/false),
              line);
  }
}

TEST_P(WireFuzz, UnknownFieldsAreTypedErrors) {
  util::Rng rng(seed() * 52361 + 17);
  const std::string junk_keys[] = {"bogus", "x-extension", "objective2",
                                   "PROBLEM", "solver_hint"};
  const std::string& key = junk_keys[rng.index(5)];

  JsonFields request_fields = parse_flat_json(canonical_request_line(seed()));
  request_fields.insert(
      request_fields.begin() +
          static_cast<std::ptrdiff_t>(rng.index(request_fields.size() + 1)),
      {key, "1"});
  EXPECT_FALSE(parses(parse_request, rebuild_line(request_fields)));

  JsonFields result_fields = parse_flat_json(canonical_result_line(seed()));
  result_fields.insert(
      result_fields.begin() +
          static_cast<std::ptrdiff_t>(rng.index(result_fields.size() + 1)),
      {key, "1"});
  EXPECT_FALSE(parses(parse_result_l, rebuild_line(result_fields)));
}

TEST_P(WireFuzz, DuplicatedFieldsParseDeterministicallyOrThrow) {
  const std::string line = canonical_request_line(seed());
  util::Rng rng(seed() * 69491 + 23);
  const JsonFields fields = parse_flat_json(line);
  for (int round = 0; round < 4; ++round) {
    JsonFields mutated = fields;
    const std::size_t i = rng.index(mutated.size());
    // Duplicate a random field verbatim somewhere after the original.
    mutated.insert(
        mutated.begin() + static_cast<std::ptrdiff_t>(
                              i + 1 + rng.index(mutated.size() - i)),
        mutated[i]);
    const std::string rebuilt = rebuild_line(mutated);
    if (!parses(parse_request, rebuilt)) continue;  // typed rejection is fine
    // Accepted duplicates must not change the decoded request: the
    // canonical bytes still match the original line.
    const WireSolveRequest reparsed = parse_solve_request_line(rebuilt);
    EXPECT_EQ(format_solve_request(reparsed.problem, reparsed.request,
                                   reparsed.id),
              line);
  }
}

TEST_P(WireFuzz, RandomByteMutationsNeverCrash) {
  util::Rng rng(seed() * 75979 + 29);
  const std::string request_line = canonical_request_line(seed());
  const std::string result_line = canonical_result_line(seed());
  // Printable noise plus structure characters the parser cares about.
  const std::string alphabet = "{}[]\",:\\x0 \t7e.-+infa";
  for (int round = 0; round < 200; ++round) {
    std::string mutated = round % 2 == 0 ? request_line : result_line;
    const std::size_t edits = 1 + rng.index(4);
    for (std::size_t e = 0; e < edits; ++e) {
      mutated[rng.index(mutated.size())] =
          alphabet[rng.index(alphabet.size())];
    }
    if (round % 2 == 0) {
      (void)parses(parse_request, mutated);
    } else {
      (void)parses(parse_result_l, mutated);
    }
  }
}

TEST_P(WireFuzz, MutatedInstanceTextParsesOrThrowsTyped) {
  // Byte edits inside the instance text itself (the `problem` value), drawn
  // from the bytes its grammar splits on: every whitespace control, line
  // and comment breaks, list and key separators, and number characters.
  // A mutant either is a typed ParseError or decodes to an instance whose
  // canonical key round-trips through parse unchanged.
  util::Rng rng(seed() * 130363 + 37);
  JsonFields fields = parse_flat_json(canonical_request_line(seed()));
  std::size_t problem_at = fields.size();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].first == "problem") problem_at = i;
  }
  ASSERT_LT(problem_at, fields.size());
  const std::string text = fields[problem_at].second;
  const std::string alphabet = " \t\r\v\f\n#,:=.-e0123456789";

  std::vector<std::string> corpus = {"\v", "\f"};
  for (int round = 0; round < 200; ++round) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.index(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const char byte = alphabet[rng.index(alphabet.size())];
      const std::size_t op = mutated.empty() ? 0 : rng.index(3);
      if (op == 0) {
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(
                                             rng.index(mutated.size() + 1)),
                       byte);
      } else if (op == 1) {
        mutated[rng.index(mutated.size())] = byte;
      } else {
        mutated.erase(rng.index(mutated.size()), 1);
      }
    }
    corpus.push_back(std::move(mutated));
  }

  for (const std::string& instance : corpus) {
    fields[problem_at].second = instance;
    const std::string line = rebuild_line(fields);
    if (!parses(parse_request, line)) continue;  // typed rejection
    const WireSolveRequest wire = parse_solve_request_line(line);
    const std::string key = format_solve_key(wire.problem, wire.request);
    try {
      const WireSolveRequest again = parse_solve_request_line(key);
      EXPECT_EQ(format_solve_key(again.problem, again.request), key)
          << json_quote(instance);
    } catch (const ParseError& e) {
      ADD_FAILURE() << "canonical key did not parse back: " << e.what()
                    << " for " << json_quote(instance);
    }
  }
}

TEST_P(WireFuzz, GarbageLinesAreTypedErrors) {
  util::Rng rng(seed() * 104729 + 31);
  for (int round = 0; round < 50; ++round) {
    std::string garbage;
    const std::size_t length = rng.index(120);
    for (std::size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(32 + rng.index(95)));
    }
    EXPECT_FALSE(parses(parse_request, garbage)) << garbage;
    EXPECT_FALSE(parses(parse_result_l, garbage)) << garbage;
    EXPECT_FALSE(parses(
        [](const std::string& l) { return parse_pareto_request_line(l); },
        garbage))
        << garbage;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WireFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace pipeopt::io
