#include "io/problem_io.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "gen/motivating_example.hpp"
#include "gen/random_instances.hpp"

namespace pipeopt::io {
namespace {

const char* kExampleText = R"(
# the paper's §2 example
comm overlap
alpha 2
bandwidth 1
processor P1 static=0 speeds=3,6
processor P2 static=0 speeds=6,8
processor P3 static=0 speeds=1,6
app App1 weight=1 input=1 stages=3:3,2:2,1:0
app App2 weight=1 input=0 stages=2:2,6:1,4:1,2:1
)";

TEST(ProblemIo, ParsesTheExample) {
  const core::Problem p = parse_problem_string(kExampleText);
  EXPECT_EQ(p.application_count(), 2u);
  EXPECT_EQ(p.platform().processor_count(), 3u);
  EXPECT_EQ(p.comm_model(), core::CommModel::Overlap);
  EXPECT_DOUBLE_EQ(p.platform().alpha(), 2.0);
  EXPECT_DOUBLE_EQ(p.platform().uniform_bandwidth(), 1.0);
  EXPECT_EQ(p.application(0).name(), "App1");
  EXPECT_DOUBLE_EQ(p.application(0).compute(0), 3.0);
  EXPECT_DOUBLE_EQ(p.application(0).boundary_size(1), 3.0);
  EXPECT_DOUBLE_EQ(p.application(1).boundary_size(0), 0.0);
  EXPECT_EQ(p.platform().processor(1).speeds(), (std::vector<double>{6.0, 8.0}));
}

TEST(ProblemIo, ParsedInstanceMatchesBuiltIn) {
  // Evaluating the same mapping on the parsed and the built-in instance
  // must agree exactly.
  const core::Problem parsed = parse_problem_string(kExampleText);
  const core::Problem builtin = gen::motivating_example();
  const core::Mapping mapping(
      {{0, 0, 2, 2, 1}, {1, 0, 1, 1, 1}, {1, 2, 3, 0, 1}});
  const auto a = core::evaluate(parsed, mapping);
  const auto b = core::evaluate(builtin, mapping);
  EXPECT_DOUBLE_EQ(a.max_weighted_period, b.max_weighted_period);
  EXPECT_DOUBLE_EQ(a.max_weighted_latency, b.max_weighted_latency);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(ProblemIo, RoundTripThroughFormat) {
  const core::Problem original = gen::motivating_example();
  const std::string text = format_problem(original);
  const core::Problem reparsed = parse_problem_string(text);
  ASSERT_EQ(reparsed.application_count(), original.application_count());
  for (std::size_t a = 0; a < original.application_count(); ++a) {
    ASSERT_EQ(reparsed.application(a).stage_count(),
              original.application(a).stage_count());
    for (std::size_t k = 0; k < original.application(a).stage_count(); ++k) {
      EXPECT_DOUBLE_EQ(reparsed.application(a).compute(k),
                       original.application(a).compute(k));
      EXPECT_DOUBLE_EQ(reparsed.application(a).boundary_size(k + 1),
                       original.application(a).boundary_size(k + 1));
    }
  }
  for (std::size_t u = 0; u < original.platform().processor_count(); ++u) {
    EXPECT_EQ(reparsed.platform().processor(u).speeds(),
              original.platform().processor(u).speeds());
  }
}

TEST(ProblemIo, NoOverlapAndAlphaParsed) {
  const core::Problem p = parse_problem_string(R"(
comm no-overlap
alpha 3
bandwidth 2
processor P static=1 speeds=4
app A weight=2 input=0 stages=1:0
)");
  EXPECT_EQ(p.comm_model(), core::CommModel::NoOverlap);
  EXPECT_DOUBLE_EQ(p.platform().alpha(), 3.0);
  EXPECT_DOUBLE_EQ(p.platform().processor(0).static_energy(), 1.0);
  EXPECT_DOUBLE_EQ(p.application(0).weight(), 2.0);
}

TEST(ProblemIo, ErrorsNameTheLine) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      (void)parse_problem_string(text);
      FAIL() << "expected ParseError for: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("frobnicate 3\n", "unknown directive");
  expect_error("comm sideways\n", "comm must be");
  expect_error("bandwidth x\n", "bad number");
  expect_error("processor P static=0 speeds=\n", "empty list");
  expect_error("processor P speeds=1\n", "missing static=");
  expect_error("app A weight=1 input=0 stages=3;2\n", "w:delta");
  // Structural errors reported at end of input.
  expect_error("bandwidth 1\napp A weight=1 input=0 stages=1:0\n",
               "no processors");
  expect_error("bandwidth 1\nprocessor P static=0 speeds=1\n",
               "no applications");
  expect_error("processor P static=0 speeds=1\n"
               "app A weight=1 input=0 stages=1:0\n",
               "bandwidth not declared");
}

TEST(ProblemIo, NumberSpellingTable) {
  // The instance language's number spelling: a token is a number when
  // strtod consumes all of it without ERANGE (so subnormals and overflow
  // are rejected), and a list is split on ',' with one trailing comma
  // dropped. Each spelling sits in a `speeds=` list on line 3.
  struct Case {
    std::string speeds;
    std::vector<double> accepted;  // empty: rejected with `error`
    std::string error;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Case> cases = {
      {"1.", {1.0}, ""},
      {".5", {0.5}, ""},
      {"+1", {1.0}, ""},
      {"0x10", {16.0}, ""},
      {"inf", {inf}, ""},
      {"INFINITY", {inf}, ""},
      {"1e3", {1000.0}, ""},
      {"1E+3", {1000.0}, ""},
      {"1,2,", {1.0, 2.0}, ""},
      {"1e400", {}, "line 3: bad number '1e400'"},
      {"1e-310", {}, "line 3: bad number '1e-310'"},
      {"5e-324", {}, "line 3: bad number '5e-324'"},
      {"1e-400", {}, "line 3: bad number '1e-400'"},
      {"1,,2", {}, "line 3: bad number ''"},
      {"1,2,,", {}, "line 3: bad number ''"},
      {",", {}, "line 3: bad number ''"},
      {"1.5x", {}, "line 3: bad number '1.5x'"},
      {"1e", {}, "line 3: bad number '1e'"},
      {"0x", {}, "line 3: bad number '0x'"},
      {"--1", {}, "line 3: bad number '--1'"},
      {"1:2", {}, "line 3: bad number '1:2'"},
      {"x", {}, "line 3: bad number 'x'"},
      {"", {}, "line 3: empty list"},
      {"nan", {}, "line 3: Processor: speeds must be > 0"},
  };
  for (const Case& c : cases) {
    const std::string text =
        "comm overlap\nbandwidth 1\nprocessor P static=0 speeds=" + c.speeds +
        "\napp A weight=1 input=0 stages=1:0\n";
    if (c.error.empty()) {
      EXPECT_EQ(parse_problem_string(text).platform().processor(0).speeds(),
                c.accepted)
          << c.speeds;
      continue;
    }
    try {
      (void)parse_problem_string(text);
      ADD_FAILURE() << "accepted '" << c.speeds << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), c.error) << c.speeds;
    }
  }
}

TEST(ProblemIo, ParseErrorTextTable) {
  // Every ParseError branch of the instance parser, with its exact text:
  // error lines are wire bytes. End-of-input errors name the last line
  // the way std::getline counts them (a final '\n' opens no new line).
  const std::string het =
      "comm overlap\n"
      "processor P static=0 speeds=1\nprocessor Q static=0 speeds=1\n"
      "app A weight=1 input=0 stages=1:0\n";
  const std::string complete_rows =
      "link 0 1,1\nlink 1 1,1\ninput 0 1,1\noutput 0 1,1\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"frobnicate 3\n", "line 1: unknown directive 'frobnicate'"},
      {"# note\n  Comm overlap\n", "line 2: unknown directive 'Comm'"},
      {"comm\n", "line 1: comm takes one value"},
      {"comm overlap no-overlap\n", "line 1: comm takes one value"},
      {"comm sideways\n", "line 1: comm must be overlap or no-overlap"},
      {"alpha\n", "line 1: alpha takes one value"},
      {"alpha 2 3\n", "line 1: alpha takes one value"},
      {"bandwidth\n", "line 1: bandwidth takes one value"},
      {"bandwidth 1 2\n", "line 1: bandwidth takes one value"},
      {"bandwidth x\n", "line 1: bad number 'x'"},
      {"processor\n", "line 1: processor needs a name"},
      {"processor P speeds=1\n", "line 1: missing static=..."},
      {"processor P static=0\n", "line 1: missing speeds=..."},
      {"processor P static=0 speeds=\n", "line 1: empty list"},
      {"processor P static=-1 speeds=1\n",
       "line 1: Processor: static energy must be >= 0"},
      {"processor P static=0 speeds=-1\n",
       "line 1: Processor: speeds must be > 0"},
      {"app\n", "line 1: app needs a name"},
      {"app A input=0 stages=1:0\n", "line 1: missing weight=..."},
      {"app A weight=1 stages=1:0\n", "line 1: missing input=..."},
      {"app A weight=1 input=0\n", "line 1: missing stages=..."},
      {"app A weight=1 input=0 stages=3;2\n",
       "line 1: stage must be w:delta, got '3;2'"},
      {"app A weight=1 input=0 stages=1:0,,2:0\n",
       "line 1: stage must be w:delta, got ''"},
      {"app A weight=1 input=0 stages=x:1\n", "line 1: bad number 'x'"},
      {"app A weight=1 input=0 stages=1:2:3\n", "line 1: bad number '2:3'"},
      {"app A weight=1 input=0 stages=1:\n", "line 1: bad number ''"},
      {"app A weight=1 input=0 stages=\n",
       "line 1: Application: must have at least one stage"},
      {"app A weight=0 input=0 stages=1:0\n",
       "line 1: Application: weight W_a must be > 0"},
      {"link 0\n", "line 1: link takes an index and a list"},
      {"input 0 1 2\n", "line 1: input takes an index and a list"},
      {"output\n", "line 1: output takes an index and a list"},
      {"link -1 1\n", "line 1: bad index '-1'"},
      {"link 1.5 1\n", "line 1: bad index '1.5'"},
      {"link 1e300 1\n", "line 1: bad index '1e300'"},
      {"link inf 1\n", "line 1: bad index 'inf'"},
      {"link x 1\n", "line 1: bad number 'x'"},
      {"link 0 1,x\n", "line 1: bad number 'x'"},
      {het + "link 0 1,1\nlink 0 1,1\nlink 1 1,1\ninput 0 1,1\noutput 0 1,1\n",
       "line 6: duplicate link row 0"},
      {het + "link 0 1,1\ninput 0 1,1\noutput 0 1,1\n",
       "line 7: missing link row 1"},
      // Several tables at fault: output rows are checked first, then
      // input, then link.
      {het + "link 0 1,1\ninput 0 1,1\n", "line 6: missing output row 0"},
      {het + "link 0 1,1\n", "line 5: missing output row 0"},
      {het + "link 0 1,1\noutput 0 1,1\n", "line 6: missing input row 0"},
      {het + "link 0 1,1\nlink 1 1,1\ninput 0 1,1\n",
       "line 7: missing output row 0"},
      {het + "link 0 1,1\nlink 7 1,1\ninput 0 1,1\noutput 0 1,1\n",
       "line 6: link index 7 out of range (have 2)"},
      {het + "link 0 1\nlink 1 1,1\ninput 0 1,1\noutput 0 1,1\n",
       "line 5: link row 0 needs 2 values, got 1"},
      {het + "link 0 1,1\nlink 1 1,1\ninput 0 1,1\noutput 3 1,1\n",
       "line 8: output index 3 out of range (have 1)"},
      {het + "link 0 1,2\nlink 1 1,1\ninput 0 1,1\noutput 0 1,1\n",
       "line 8: Platform: links are bidirectional (symmetric)"},
      {het + "bandwidth 1\n" + complete_rows,
       "line 9: bandwidth and link/input/output rows are exclusive"},
      {"", "line 0: no processors declared"},
      {"\n\n", "line 2: no processors declared"},
      {"bandwidth 1", "line 1: no processors declared"},
      {"bandwidth 1\napp A weight=1 input=0 stages=1:0\n",
       "line 2: no processors declared"},
      {"bandwidth 1\n\n# trailing\n   \t\n", "line 4: no processors declared"},
      {"bandwidth 1\nprocessor P static=0 speeds=1\n",
       "line 2: no applications declared"},
      {"processor P static=0 speeds=1\napp A weight=1 input=0 stages=1:0\n",
       "line 2: bandwidth not declared"},
      {"alpha 1\nbandwidth 1\nprocessor P static=0 speeds=1\n"
       "app A weight=1 input=0 stages=1:0\n",
       "line 4: Platform: energy exponent alpha must be > 1"},
  };
  for (const auto& [text, error] : cases) {
    try {
      (void)parse_problem_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), error) << text;
    }
  }
}

TEST(ProblemIo, DomainValidationPropagates) {
  // Negative speed caught by the Processor constructor, reported per line.
  try {
    (void)parse_problem_string("processor P static=0 speeds=-1\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(ProblemIo, HeterogeneousLinksRoundTripThroughText) {
  // Fully heterogeneous platforms travel as link/input/output rows (the
  // wire-format extension); format -> parse preserves every bandwidth.
  std::vector<core::Processor> procs;
  procs.emplace_back(std::vector<double>{1.0});
  procs.emplace_back(std::vector<double>{2.0});
  std::vector<std::vector<double>> links{{1.0, 2.5}, {2.5, 1.0}};
  std::vector<std::vector<double>> in_table{{1.0, 4.0}};
  std::vector<std::vector<double>> out_table{{0.5, 3.0}};
  core::Platform het(std::move(procs), links, in_table, out_table);
  std::vector<core::Application> apps;
  apps.push_back(core::Application(0.0, {core::StageSpec{1.0, 0.0}}));
  const core::Problem p(std::move(apps), std::move(het));

  const core::Problem back = parse_problem_string(format_problem(p));
  EXPECT_EQ(back.platform().classify(), core::PlatformClass::FullyHeterogeneous);
  EXPECT_EQ(back.platform().bandwidth(0, 1), 2.5);
  EXPECT_EQ(back.platform().in_bandwidth(0, 1), 4.0);
  EXPECT_EQ(back.platform().out_bandwidth(0, 0), 0.5);
  EXPECT_EQ(format_problem(back), format_problem(p));
}

TEST(ProblemIo, HeterogeneousRowsMustBeComplete) {
  // A het instance with a missing or conflicting row is rejected with a
  // line-numbered error, like every other malformed directive.
  const std::string base =
      "comm overlap\n"
      "processor P static=0 speeds=1\nprocessor Q static=0 speeds=1\n"
      "app A weight=1 input=0 stages=1:0\n";
  EXPECT_THROW((void)parse_problem_string(base + "link 0 1,1\ninput 0 1,1\n"),
               ParseError);  // missing link row 1 and output row 0
  EXPECT_THROW((void)parse_problem_string(base + "bandwidth 1\nlink 0 1,1\n"),
               ParseError);  // uniform and per-link styles are exclusive
  EXPECT_THROW(
      (void)parse_problem_string(base + "link 0 1,1\nlink 0 1,1\nlink 1 1,1\n" +
                                 "input 0 1,1\noutput 0 1,1\n"),
      ParseError);  // duplicate row
  EXPECT_THROW(
      (void)parse_problem_string(base + "link 0 1\nlink 1 1,1\n" +
                                 "input 0 1,1\noutput 0 1,1\n"),
      ParseError);  // short row
  EXPECT_THROW(
      (void)parse_problem_string(base + "link 0 1,1\nlink 7 1,1\n" +
                                 "input 0 1,1\noutput 0 1,1\n"),
      ParseError);  // index out of range
}

TEST(ProblemIo, MissingFileReported) {
  EXPECT_THROW((void)load_problem("/nonexistent/path/problem.txt"),
               std::runtime_error);
}

TEST(ProblemIo, RandomProblemsRoundTripThroughText) {
  // Property: any comm-homogeneous random problem survives
  // format -> parse -> format identically (the second format string is the
  // fixed point, sidestepping double-printing precision).
  util::Rng rng(2718);
  for (int iter = 0; iter < 25; ++iter) {
    gen::ProblemShape shape;
    shape.applications = 1 + rng.index(3);
    shape.processors = 2 + rng.index(5);
    shape.platform.modes = 1 + rng.index(3);
    shape.app.weighted = rng.chance(0.5);
    shape.platform_class = rng.chance(0.5)
                               ? core::PlatformClass::FullyHomogeneous
                               : core::PlatformClass::CommHomogeneous;
    shape.comm = rng.chance(0.5) ? core::CommModel::Overlap
                                 : core::CommModel::NoOverlap;
    const auto original = gen::random_problem(rng, shape);
    const std::string once = format_problem(original);
    const auto reparsed = parse_problem_string(once);
    const std::string twice = format_problem(reparsed);
    EXPECT_EQ(once, twice) << "iteration " << iter;
    EXPECT_EQ(reparsed.comm_model(), original.comm_model());
    EXPECT_EQ(reparsed.total_stages(), original.total_stages());
  }
}

}  // namespace
}  // namespace pipeopt::io
