/**
 * @file
 * Unit tests for util: RNG determinism, ranges and draw-for-draw
 * equality with std::mt19937_64, divisor arithmetic and lattices,
 * table/CSV rendering and CLI parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <thread>
#include <utility>

#include "util/cli.hh"
#include "util/divisors.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace dosa {
namespace {

/** The standard engine Rng's own engine must equal draw for draw. */
// LINT-ALLOW(raw-rng): the std:: reference the house engine is checked against
using StdEngine = std::mt19937_64;

/** splitmix64, as Rng::stream mixes its (seed, stream) pair. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    // 1,000 raw draws span four refills of the 312-word state. Seeds
    // cover zero, all ones, the standard default (5489) and the
    // seeds Rng::stream derives.
    auto expectSame = [](Rng rng, uint64_t seed) {
        StdEngine reference(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(rng.engine()(), reference())
                    << "seed " << seed << ", draw " << i;
    };
    for (uint64_t seed : {uint64_t(0), uint64_t(1), uint64_t(5489),
                          uint64_t(0xD05A5EED), ~uint64_t(0)})
        expectSame(Rng(seed), seed);
    for (auto [seed, id] : {std::pair<uint64_t, uint64_t>{0, 0},
                            {5, 3}, {42, 1}, {~uint64_t(0), 7}})
        expectSame(Rng::stream(seed, id),
                splitmix64(splitmix64(seed) ^ splitmix64(~id)));
    static_assert(Mt19937_64::min() == StdEngine::min());
    static_assert(Mt19937_64::max() == StdEngine::max());
}

TEST(Rng, DistributionsMatchStdOverMt19937_64)
{
    // Every draw helper must return what the std:: distribution
    // returns over std::mt19937_64, and consume the same draws: the
    // engines stay in step through the interleaved calls.
    for (uint64_t seed : {uint64_t(3), uint64_t(77), uint64_t(0xD05A5EED)}) {
        Rng rng(seed);
        StdEngine reference(seed);
        for (int i = 0; i < 500; ++i) {
            const int64_t hi = i % 97;
            ASSERT_EQ(rng.uniformInt(-3, hi),
                    std::uniform_int_distribution<int64_t>(-3, hi)(
                            reference));
            ASSERT_EQ(rng.uniformInt(std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()),
                    std::uniform_int_distribution<int64_t>(
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max())(
                            reference));
            ASSERT_EQ(rng.uniformReal(-2.5, 7.0),
                    std::uniform_real_distribution<double>(-2.5, 7.0)(
                            reference));
            ASSERT_EQ(rng.gaussian(1.0, 3.0),
                    std::normal_distribution<double>(1.0, 3.0)(
                            reference));
            ASSERT_EQ(rng.bernoulli(0.3),
                    std::bernoulli_distribution(0.3)(reference));
        }
        EXPECT_EQ(rng.engine()(), reference()) << "seed " << seed;
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, LogUniformRangeAndSpread)
{
    Rng rng(11);
    int low_decade = 0;
    for (int i = 0; i < 2000; ++i) {
        double v = rng.logUniform(1.0, 1000.0);
        ASSERT_GE(v, 1.0);
        ASSERT_LE(v, 1000.0);
        if (v < 10.0)
            ++low_decade;
    }
    // Log-uniform: each decade gets ~1/3 of the mass.
    EXPECT_GT(low_decade, 450);
    EXPECT_LT(low_decade, 900);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(1.0, 2.0);
        sum += v;
        sum2 += v * v;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ZeroStddevGaussianReturnsTheMeanAndKeepsTheDrawCount)
{
    // std::normal_distribution requires stddev > 0; a zero stddev
    // must still consume the draws a positive one does, or every
    // later draw of the stream would move.
    for (uint64_t seed : {uint64_t(3), uint64_t(77), uint64_t(0xD05A5EED)}) {
        Rng zero(seed), unit(seed);
        for (int i = 0; i < 200; ++i) {
            ASSERT_EQ(zero.gaussian(2.5, 0.0), 2.5);
            (void)unit.gaussian(2.5, 1.0);
        }
        EXPECT_EQ(zero.engine()(), unit.engine()()) << "seed " << seed;
    }
}

TEST(RngDeathTest, NegativeOrNaNStddevIsFatal)
{
    Rng rng(1);
    EXPECT_DEATH((void)rng.gaussian(0.0, -1.0), "stddev");
    EXPECT_DEATH((void)rng.gaussian(
                         0.0, std::numeric_limits<double>::quiet_NaN()),
            "stddev");
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(5);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (parent.uniformInt(0, 1 << 30) ==
            child.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(3);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Divisors, KnownLists)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(56),
              (std::vector<int64_t>{1, 2, 4, 7, 8, 14, 28, 56}));
    EXPECT_EQ(divisorsOf(97), (std::vector<int64_t>{1, 97}));
}

TEST(Divisors, LargeInputsMatchReferenceLists)
{
    // computeDivisors loops while d <= n / d; the old d * d <= n form
    // overflows as n nears INT64_MAX. These inputs stay fast (about
    // 2^20 iterations at most) and are checked against lists built
    // from their prime factorizations.
    auto powers = [](int64_t p, int ep, int64_t q, int eq) {
        std::vector<int64_t> out;
        int64_t pa = 1;
        for (int a = 0; a <= ep; ++a, pa *= p) {
            int64_t v = pa;
            for (int b = 0; b <= eq; ++b, v *= q)
                out.push_back(v);
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(divisorsOf(int64_t(1) << 40), powers(2, 40, 3, 0));
    EXPECT_EQ(divisorsOf(int64_t(3) << 31), powers(2, 31, 3, 1));
    EXPECT_EQ(divisorsOf(1000000000000), powers(2, 12, 5, 12));
}

TEST(Divisors, ConcurrentLookupsMatchLocalReference)
{
    // Eight threads hammer divisorsOf over overlapping keys; every list
    // each thread sees must equal a trial-division reference computed
    // on that thread. Under TSan this pins that lookups, and the
    // lattice rows each thread builds on first use, share no mutable
    // state.
    constexpr int kThreads = 8;
    auto reference = [](int64_t n) {
        std::vector<int64_t> out;
        for (int64_t d = 1; d <= n; ++d)
            if (n % d == 0)
                out.push_back(d);
        return out;
    };
    // Each thread also builds the lattices of these sizes, starting
    // at a different one: every row of n must list exactly divisorsOf
    // of its divisor, and its mirror entries must be the quotients.
    const int64_t lattice_sizes[] = {1, 2, 97, 3136, 50176, 720720,
                                     int64_t(1) << 20};
    constexpr size_t kLattices = std::size(lattice_sizes);
    auto latticeMismatches = [](int64_t n) {
        int bad = 0;
        DivisorLattice &lattice = divisorLattice(n);
        const std::vector<int64_t> &divs = lattice.divisors();
        for (size_t i = 0; i < divs.size(); ++i) {
            const std::vector<uint32_t> &row = lattice.row(i);
            std::vector<int64_t> values;
            for (size_t k = 0; k < row.size(); ++k) {
                values.push_back(divs[row[k]]);
                if (divs[row[k]] * divs[row[row.size() - 1 - k]] !=
                    divs[i])
                    ++bad;
            }
            if (values != divisorsOf(divs[i]))
                ++bad;
        }
        return bad;
    };
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 200; ++round) {
                int64_t n = 1 + (round * 37 + t * 11) % 600;
                if (divisorsOf(n) != reference(n))
                    mismatches[static_cast<size_t>(t)]++;
            }
            for (size_t i = 0; i < kLattices; ++i)
                mismatches[static_cast<size_t>(t)] += latticeMismatches(
                        lattice_sizes[(i + size_t(t)) % kLattices]);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
}

class DivisorProperty : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(DivisorProperty, AllDivideAndSorted)
{
    int64_t n = GetParam();
    const auto &divs = divisorsOf(n);
    ASSERT_FALSE(divs.empty());
    EXPECT_EQ(divs.front(), 1);
    EXPECT_EQ(divs.back(), n);
    for (size_t i = 0; i < divs.size(); ++i) {
        EXPECT_EQ(n % divs[i], 0);
        if (i > 0) {
            EXPECT_LT(divs[i - 1], divs[i]);
        }
    }
}

TEST_P(DivisorProperty, NearestDivisorIsOptimal)
{
    int64_t n = GetParam();
    for (double target : {0.3, 1.0, 2.5, 7.0, 33.3,
                          static_cast<double>(n)}) {
        int64_t best = nearestDivisor(n, target);
        EXPECT_EQ(n % best, 0);
        for (int64_t d : divisorsOf(n))
            EXPECT_LE(std::abs(target - double(best)),
                      std::abs(target - double(d)) + 1e-12);
    }
}

TEST_P(DivisorProperty, NearestAtMostRespectsCap)
{
    int64_t n = GetParam();
    for (int64_t cap : {int64_t(1), int64_t(4), int64_t(10), n}) {
        int64_t d = nearestDivisorAtMost(n, 1e9, cap);
        EXPECT_LE(d, cap);
        EXPECT_EQ(n % d, 0);
        EXPECT_EQ(d, largestDivisorAtMost(n, cap));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DivisorProperty,
        ::testing::Values(1, 2, 3, 7, 12, 56, 64, 96, 100, 112, 224,
                          1000, 1024, 3072, 5124));

TEST(Divisors, QuotaChainMatchesPerCallQueries)
{
    // DivisorQuota serves a whole chain from one memoized list; its
    // takes must equal the per-call nearestDivisor* results on the
    // running remainder, and the chain must multiply back to n.
    for (int64_t n : {int64_t(1), int64_t(12), int64_t(56),
                      int64_t(224), int64_t(3072), int64_t(5124)}) {
        const double targets[] = {3.0, 2.5, 16.0, 1.0};
        DivisorQuota quota(n);
        int64_t remaining = n;
        int64_t prod = 1;
        for (double t : targets) {
            int64_t expect = nearestDivisor(remaining, t);
            int64_t got = quota.take(t);
            EXPECT_EQ(got, expect) << "n=" << n << " t=" << t;
            remaining /= expect;
            prod *= got;
        }
        EXPECT_EQ(quota.remaining(), remaining);
        EXPECT_EQ(prod * quota.remaining(), n);
    }
}

TEST(Divisors, QuotaTakeAtMostMatchesPerCallQueries)
{
    for (int64_t n : {int64_t(96), int64_t(1024), int64_t(5124)}) {
        DivisorQuota quota(n);
        int64_t remaining = n;
        for (int64_t cap : {int64_t(4), int64_t(16), int64_t(2)}) {
            int64_t expect = nearestDivisorAtMost(remaining, 1e9, cap);
            int64_t got = quota.takeAtMost(1e9, cap);
            EXPECT_EQ(got, expect) << "n=" << n << " cap=" << cap;
            remaining /= expect;
        }
        EXPECT_EQ(quota.remaining(), remaining);
    }
}

TEST(Divisors, RandomFactorSplitMultipliesBack)
{
    // Split every divisor m of n (each lattice row) into 1..6 parts;
    // the parts must be divisors of m that multiply back to m.
    Rng rng(17);
    for (int64_t n : {1, 6, 56, 64, 720, 1024}) {
        DivisorLattice &lattice = divisorLattice(n);
        const std::vector<int64_t> &divs = lattice.divisors();
        for (size_t row = 0; row < divs.size(); ++row) {
            const int64_t m = divs[row];
            for (size_t parts : {1, 2, 3, 4, 6}) {
                std::vector<int64_t> split(parts, 0);
                randomFactorSplit(lattice, row, split, rng);
                int64_t prod = 1;
                for (int64_t f : split) {
                    EXPECT_GE(f, 1);
                    EXPECT_EQ(m % f, 0) << "m=" << m;
                    prod *= f;
                }
                EXPECT_EQ(prod, m) << "n=" << n << " parts=" << parts;
            }
        }
    }
}

TEST(Table, RendersAlignedColumns)
{
    TablePrinter tp({"name", "value"});
    tp.addRow({"alpha", "1"});
    tp.addRow({"b", "22222"});
    std::string out = tp.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvRoundTrip)
{
    TablePrinter tp({"a", "b"});
    tp.addRow({"1", "2"});
    tp.addRow({"3", "4"});
    std::string path = "/tmp/dosa_test_table.csv";
    ASSERT_TRUE(tp.writeCsv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtSci(12345.0, 2), "1.23e+04");
}

TEST(Cli, ParsesFlagsAndPositional)
{
    const char *argv[] = {"prog", "--full", "--seed", "7",
                          "--workload=bert", "resnet50"};
    Cli cli(6, argv);
    EXPECT_TRUE(cli.has("full"));
    EXPECT_FALSE(cli.has("quick"));
    EXPECT_EQ(cli.getInt("seed", 0), 7);
    EXPECT_EQ(cli.get("workload"), "bert");
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "resnet50");
}

TEST(Cli, Defaults)
{
    const char *argv[] = {"prog"};
    Cli cli(1, argv);
    EXPECT_EQ(cli.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(cli.get("missing", "x"), "x");
}

TEST(Cli, BooleanFlagBeforeFlag)
{
    const char *argv[] = {"prog", "--quick", "--seed", "3"};
    Cli cli(4, argv);
    EXPECT_TRUE(cli.has("quick"));
    EXPECT_EQ(cli.getInt("seed", 0), 3);
}

} // namespace
} // namespace dosa
