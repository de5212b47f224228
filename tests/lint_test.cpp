// Tests for tools/ones_lint — the determinism linter (DESIGN.md §11).
//
// Each rule is exercised against positive/negative fixture files under
// tests/lint_fixtures/ (compiled never, linted only), plus in-memory
// lint_file() cases for the text-handling corners: literals, comments,
// raw strings, alias-typed iteration, and the annotation grammar.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lint = ones::lint;

namespace {

const std::string kFixtures = ONES_LINT_FIXTURES_DIR;

std::vector<lint::Finding> lint_fixture(const std::string& rel,
                                        lint::Options options = lint::default_options()) {
  return lint::lint_tree({kFixtures + "/" + rel}, options);
}

std::size_t count_rule(const std::vector<lint::Finding>& fs, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

TEST(LintR1, FlagsWallClockAndAmbientRandomness) {
  const auto fs = lint_fixture("src/sched/r1_violation.cpp");
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_EQ(count_rule(fs, "R1"), 4u);
}

TEST(LintR1, AnnotationLineAndRegionFormsSuppress) {
  EXPECT_TRUE(lint_fixture("src/sched/r1_annotated.cpp").empty());
}

TEST(LintR1, EmptyReasonDoesNotSuppress) {
  const auto fs = lint_fixture("src/sched/r1_empty_reason.cpp");
  EXPECT_EQ(count_rule(fs, "R1"), 1u);
}

TEST(LintR1, DefaultAllowlistExemptsProgressReporter) {
  EXPECT_TRUE(lint_fixture("allow/src/exp/progress.cpp").empty());

  lint::Options bare = lint::default_options();
  bare.wall_clock_allowlist.clear();
  const auto fs = lint_fixture("allow/src/exp/progress.cpp", bare);
  EXPECT_EQ(count_rule(fs, "R1"), 2u);
}

TEST(LintR2, UnannotatedDeclarationsInDecisionPathFlagged) {
  const auto fs = lint_fixture("src/core/r2_decl_violation.hpp");
  EXPECT_EQ(count_rule(fs, "R2"), 2u);
}

TEST(LintR2, AnnotatedDeclarationsPass) {
  EXPECT_TRUE(lint_fixture("src/core/r2_decl_annotated.hpp").empty());
}

TEST(LintR2, IterationOverUnorderedFlagged) {
  const auto fs = lint_fixture("src/sched/r2_iter_violation.cpp");
  EXPECT_EQ(count_rule(fs, "R2"), 2u);  // one range-for, one .begin() loop
  for (const auto& f : fs) {
    EXPECT_NE(f.message.find("iteration"), std::string::npos) << f.message;
  }
}

TEST(LintR2, IterationAnnotationSuppresses) {
  EXPECT_TRUE(lint_fixture("src/sched/r2_iter_annotated.cpp").empty());
}

TEST(LintR2, DrlAndClusterAreDecisionPathModules) {
  const auto fs = lint_fixture("src/drl/r2_reward_violation.cpp");
  EXPECT_EQ(count_rule(fs, "R2"), 2u);  // the declaration and its range-for

  const std::string decl = "#include <unordered_set>\nstd::unordered_set<int> nodes;\n";
  EXPECT_EQ(count_rule(lint::lint_file("src/cluster/x.cpp", decl, lint::default_options()),
                       "R2"),
            1u);
}

TEST(LintR2, NonDecisionPathModulesAreOutOfScope) {
  EXPECT_TRUE(lint_fixture("src/telemetry/r2_not_decision_path.cpp").empty());
}

TEST(LintR3, AssertFlaggedButStaticAssertIsNot) {
  const auto fs = lint_fixture("src/model/r3_assert.cpp");
  ASSERT_EQ(count_rule(fs, "R3"), 1u);
  EXPECT_EQ(fs[0].rule, "R3");
}

TEST(LintR4, RelativeAndBareIncludesFlagged) {
  const auto fs = lint_fixture("src/model/r4_includes.cpp");
  EXPECT_EQ(count_rule(fs, "R4"), 2u);  // "../" form and bare form; one annotated away
}

TEST(LintScope, OutsideSrcSkipsR3R4) {
  EXPECT_TRUE(lint_fixture("bench/outside_src.cpp").empty());
}

TEST(LintAnnotations, TypoedTagAndUnclosedRegionAreFindings) {
  const auto fs = lint_fixture("src/sim/ann_errors.cpp");
  EXPECT_EQ(count_rule(fs, "ANN"), 2u);
}

TEST(LintClean, FullyCleanFileHasNoFindings) {
  EXPECT_TRUE(lint_fixture("src/cluster/clean.cpp").empty());
}

TEST(LintTree, WholeFixtureTreeFindingsAreSortedAndDeterministic) {
  const auto a = lint::lint_tree({kFixtures}, lint::default_options());
  const auto b = lint::lint_tree({kFixtures}, lint::default_options());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const lint::Finding& x, const lint::Finding& y) {
                               return x.file < y.file;
                             }));
}

TEST(LintTree, UnreadableRootThrows) {
  EXPECT_THROW(lint::lint_tree({kFixtures + "/no_such_dir"}, lint::default_options()),
               std::runtime_error);
}

// ---- in-memory corners -----------------------------------------------------

TEST(LintText, PatternsInsideStringsAndCommentsDoNotFire) {
  const std::string src =
      "// std::chrono::steady_clock::now() in a comment\n"
      "/* rand() in a block comment */\n"
      "const char* s = \"std::random_device\";\n"
      "const char* r = R\"(std::chrono inside raw string)\";\n";
  EXPECT_TRUE(lint::lint_file("src/sched/x.cpp", src, lint::default_options()).empty());
}

TEST(LintText, AliasTypedIterationIsCaughtInSameFile) {
  const std::string src =
      "#include <unordered_map>\n"
      "// ones-lint: unordered-ok(alias under test)\n"
      "using RhoMap = std::unordered_map<int, double>;\n"
      "double f() {\n"
      "  RhoMap rho;\n"
      "  double s = 0;\n"
      "  for (const auto& [k, v] : rho) s += v;\n"
      "  return s;\n"
      "}\n";
  const auto fs = lint::lint_file("src/core/x.cpp", src, lint::default_options());
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "R2");
  EXPECT_EQ(fs[0].line, 7);
}

TEST(LintText, RuleTogglesDisableChecks) {
  lint::Options only_r3 = lint::default_options();
  only_r3.r1 = only_r3.r2 = only_r3.r4 = false;
  const std::string src = "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint::lint_file("src/sim/x.cpp", src, only_r3).empty());
}

TEST(LintText, FormatIsCompilerStyle) {
  lint::Finding f{"src/a.cpp", 12, "R1", "boom"};
  EXPECT_EQ(lint::format(f), "src/a.cpp:12: [R1] boom");
}

}  // namespace
