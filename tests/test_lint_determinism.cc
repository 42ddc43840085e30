/**
 * @file
 * Determinism-linter tests: every rule fires on its golden fixture
 * with the right file:line, LINT-ALLOW suppresses exactly the line
 * it annotates, the sanitizer ignores comments/strings, and the
 * real source tree scans clean — the same invocation CI blocks on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_determinism/lint.hh"

namespace {

using dosa::lint::Finding;
using dosa::lint::lintFile;
using dosa::lint::lintTree;
using dosa::lint::stripCommentsAndStrings;

std::string
fixturesDir()
{
    return std::string(DOSA_SOURCE_DIR) +
           "/tools/lint_determinism/fixtures";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The (line, rule) pairs of `findings`, for compact comparisons. */
std::vector<std::pair<int, std::string>>
lineRules(const std::vector<Finding> &findings)
{
    std::vector<std::pair<int, std::string>> out;
    for (const Finding &f : findings)
        out.emplace_back(f.line, f.rule);
    return out;
}

TEST(LintRules, RawRngFiresOnEverySpellingWithExactLines)
{
    std::vector<Finding> findings =
        lintFile("src/search/fixture_raw_rng.cc",
                 readFile(fixturesDir() + "/fixture_raw_rng.cc"));
    std::vector<std::pair<int, std::string>> expected = {
        {7, "raw-rng"},  // srand
        {8, "raw-rng"},  // rand
        {9, "raw-rng"},  // random_device
        {10, "raw-rng"}, // drand48
        {11, "raw-rng"}, // mt19937
        {12, "raw-rng"}, // mt19937_64
        {13, "raw-rng"}, // minstd_rand0
        {14, "raw-rng"}, // minstd_rand
        {15, "raw-rng"}, // ranlux48_base
        {16, "raw-rng"}, // knuth_b
        {17, "raw-rng"}, // default_random_engine
    };
    EXPECT_EQ(lineRules(findings), expected);
    ASSERT_FALSE(findings.empty());
    EXPECT_EQ(findings[0].file, "src/search/fixture_raw_rng.cc");
}

TEST(LintRules, WallClockFiresOnEveryClockReadWithExactLines)
{
    std::vector<Finding> findings =
        lintFile("src/search/fixture_wall_clock.cc",
                 readFile(fixturesDir() + "/fixture_wall_clock.cc"));
    std::vector<std::pair<int, std::string>> expected = {
        {7, "wall-clock"},  // steady_clock::now
        {8, "wall-clock"},  // system_clock::now
        {9, "wall-clock"},  // high_resolution_clock::now
        {10, "wall-clock"}, // time(nullptr)
        {16, "wall-clock"}, // using Clock = steady_clock
        {17, "wall-clock"}, // typedef system_clock WallClock
        {18, "wall-clock"}, // using Precise = high_resolution_clock
    };
    EXPECT_EQ(lineRules(findings), expected);
}

TEST(LintRules, UnorderedContainersFlaggedInResultPaths)
{
    std::vector<Finding> findings =
        lintFile("src/search/fixture_unordered.cc",
                 readFile(fixturesDir() + "/fixture_unordered.cc"));
    std::vector<std::pair<int, std::string>> expected = {
        {2, "unordered-iter"}, // include <unordered_map>
        {3, "unordered-iter"}, // include <unordered_set>
        {7, "unordered-iter"}, // declaration
        {8, "unordered-iter"}, // declaration
    };
    EXPECT_EQ(lineRules(findings), expected);
}

TEST(LintRules, PathScopingExemptsTheRuleHomes)
{
    const std::string rng = "int f() { return std::rand(); }\n";
    EXPECT_TRUE(lintFile("src/util/rng.hh", rng).empty());
    EXPECT_FALSE(lintFile("src/core/model.cc", rng).empty());

    const std::string clock =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(lintFile("src/obs/trace.cc", clock).empty());
    EXPECT_TRUE(lintFile("src/service/search_service.cc", clock).empty());
    EXPECT_TRUE(lintFile("bench/bench_fig7.cc", clock).empty());
    EXPECT_FALSE(lintFile("src/search/random_search.cc", clock).empty());
    const std::string alias = "using Clock = std::chrono::steady_clock;\n";
    EXPECT_TRUE(lintFile("src/service/search_service.cc", alias).empty());
    EXPECT_FALSE(lintFile("src/search/search_common.cc", alias).empty());

    const std::string unordered = "#include <unordered_map>\n";
    EXPECT_TRUE(lintFile("src/util/divisors.cc", unordered).empty());
    EXPECT_FALSE(lintFile("src/core/model.hh", unordered).empty());
}

TEST(LintAllows, SameLineAndPrecedingLineSuppressExactlyOneLine)
{
    std::vector<Finding> findings =
        lintFile("src/search/fixture_allows.cc",
                 readFile(fixturesDir() + "/fixture_allows.cc"));
    // Lines 6 (same-line allow) and 12 (preceding-line allow) are
    // suppressed; the empty-why allow on 17 does not suppress, so
    // both the meta finding and the raw-rng finding surface there.
    std::vector<std::pair<int, std::string>> expected = {
        {17, "bad-allow"},    // empty justification
        {17, "raw-rng"},      // not suppressed by the bad allow
        {20, "bad-allow"},    // unknown rule name
        {21, "unused-allow"}, // suppresses nothing
    };
    EXPECT_EQ(lineRules(findings), expected);
}

TEST(LintAllows, AllowCoversOnlyItsOwnRule)
{
    const std::string src =
        "// LINT-ALLOW(wall-clock): wrong rule for the next line\n"
        "int x = std::rand();\n";
    std::vector<Finding> findings =
        lintFile("src/core/wrong_rule.cc", src);
    // The raw-rng finding survives and the wall-clock allow is stale.
    std::vector<std::pair<int, std::string>> expected = {
        {1, "unused-allow"},
        {2, "raw-rng"},
    };
    EXPECT_EQ(lineRules(findings), expected);
}

TEST(LintSanitizer, CommentsAndStringsNeverTrip)
{
    std::vector<Finding> findings =
        lintFile("src/search/fixture_clean.cc",
                 readFile(fixturesDir() + "/fixture_clean.cc"));
    EXPECT_TRUE(findings.empty())
        << dosa::lint::formatFinding(findings.front());
}

TEST(LintSanitizer, StripPreservesLineStructure)
{
    const std::string src = "int a; // rand()\n"
                            "const char *s = \"time(0)\";\n"
                            "/* multi\n"
                            "   line */ int b;\n";
    std::string stripped = stripCommentsAndStrings(src);
    EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
              std::count(stripped.begin(), stripped.end(), '\n'));
    EXPECT_EQ(src.size(), stripped.size());
    EXPECT_EQ(stripped.find("rand"), std::string::npos);
    EXPECT_EQ(stripped.find("time"), std::string::npos);
    EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintSanitizer, RawStringsAndCharLiteralsAreBlanked)
{
    const std::string src =
        "auto r = R\"(srand(7) unordered_map)\";\n"
        "char c = 'r'; int k = 1'000'000;\n";
    std::string stripped = stripCommentsAndStrings(src);
    EXPECT_EQ(stripped.find("srand"), std::string::npos);
    EXPECT_EQ(stripped.find("unordered_map"), std::string::npos);
    EXPECT_NE(stripped.find("int k = 1'000'000;"), std::string::npos);
}

TEST(LintTree, FixtureDirectoryScanFindsTheSeededViolations)
{
    std::vector<Finding> findings;
    std::string error;
    ASSERT_TRUE(lintTree(fixturesDir(), {"."}, findings, error))
        << error;
    // The fixture dir is outside src/, so only the path-unscoped
    // rules fire; the seeded raw-rng and wall-clock hits plus the
    // allow meta findings must all be there.
    EXPECT_GE(findings.size(), 10u);
    for (const Finding &f : findings)
        EXPECT_GT(f.line, 0) << dosa::lint::formatFinding(f);
}

TEST(LintTree, RealSourceTreeIsClean)
{
    // The same invocation the `lint_determinism_tree` CTest entry and
    // the CI job run: the shipped tree must stay finding-free.
    std::vector<Finding> findings;
    std::string error;
    ASSERT_TRUE(lintTree(DOSA_SOURCE_DIR,
                         {"src", "bench", "examples", "tests"},
                         findings, error))
        << error;
    std::string report;
    for (const Finding &f : findings)
        report += dosa::lint::formatFinding(f) + "\n";
    EXPECT_TRUE(findings.empty()) << report;
}

TEST(LintTree, ScanOutputIsDeterministic)
{
    std::vector<Finding> a, b;
    std::string error;
    ASSERT_TRUE(lintTree(fixturesDir(), {"."}, a, error)) << error;
    ASSERT_TRUE(lintTree(fixturesDir(), {"."}, b, error)) << error;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(dosa::lint::formatFinding(a[i]),
                  dosa::lint::formatFinding(b[i]));
}

} // namespace
