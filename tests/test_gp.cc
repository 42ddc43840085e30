/**
 * @file
 * Unit tests for Gaussian-process regression: interpolation,
 * uncertainty behaviour, LCB ranking, and the exp-free lower bounds and
 * pruned argmin that must pick exactly what the exact LCBs pick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "exec/thread_pool.hh"
#include "gp/gaussian_process.hh"
#include "linalg/cholesky.hh"
#include "util/rng.hh"

namespace dosa {
namespace {

TEST(Gp, InterpolatesTrainingPointsWithLowNoise)
{
    GpParams p;
    p.noise_var = 1e-8;
    GaussianProcess gp(p);
    std::vector<std::vector<double>> x = {{0.0}, {1.0}, {2.0}, {3.0}};
    std::vector<double> y = {1.0, 2.0, 0.5, -1.0};
    gp.fit(x, y);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(gp.predictMean(x[i]), y[i], 1e-4);
}

TEST(Gp, RevertsToMeanFarFromData)
{
    GaussianProcess gp({1.0, 1.0, 1e-6});
    std::vector<std::vector<double>> x = {{0.0}, {1.0}};
    std::vector<double> y = {5.0, 7.0};
    gp.fit(x, y);
    EXPECT_NEAR(gp.predictMean({100.0}), 6.0, 1e-6); // prior = mean(y)
}

TEST(Gp, VarianceSmallAtDataLargeFar)
{
    GaussianProcess gp({1.0, 1.0, 1e-8});
    std::vector<std::vector<double>> x = {{0.0}, {1.0}};
    std::vector<double> y = {0.0, 1.0};
    gp.fit(x, y);
    EXPECT_LT(gp.predictVar({0.0}), 1e-4);
    EXPECT_GT(gp.predictVar({50.0}), 0.9); // ~prior variance
}

TEST(Gp, SmoothFunctionRecovery)
{
    GpParams p;
    p.length_scale = 1.0;
    p.noise_var = 1e-6;
    GaussianProcess gp(p);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i <= 20; ++i) {
        double t = i * 0.25;
        x.push_back({t});
        y.push_back(std::sin(t));
    }
    gp.fit(x, y);
    for (double t : {0.37, 1.9, 3.33, 4.8})
        EXPECT_NEAR(gp.predictMean({t}), std::sin(t), 0.02);
}

TEST(Gp, LcbBelowMean)
{
    GaussianProcess gp({1.0, 1.0, 1e-4});
    std::vector<std::vector<double>> x = {{0.0}, {2.0}};
    std::vector<double> y = {1.0, 3.0};
    gp.fit(x, y);
    std::vector<double> q = {4.0};
    EXPECT_LE(gp.lcb(q, 1.0), gp.predictMean(q));
    EXPECT_DOUBLE_EQ(gp.lcb(q, 0.0), gp.predictMean(q));
}

TEST(Gp, MultiDimensionalFeatures)
{
    GaussianProcess gp({2.0, 1.0, 1e-6});
    Rng rng(4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
        double a = rng.uniformReal(-2.0, 2.0);
        double b = rng.uniformReal(-2.0, 2.0);
        x.push_back({a, b});
        y.push_back(a * a + b);
    }
    gp.fit(x, y);
    // In-distribution prediction should beat the constant-mean model.
    double mean_y = 0.0;
    for (double v : y)
        mean_y += v;
    mean_y /= static_cast<double>(y.size());
    double gp_err = 0.0, const_err = 0.0;
    Rng rng2(5);
    for (int i = 0; i < 30; ++i) {
        double a = rng2.uniformReal(-1.5, 1.5);
        double b = rng2.uniformReal(-1.5, 1.5);
        double truth = a * a + b;
        gp_err += std::abs(gp.predictMean({a, b}) - truth);
        const_err += std::abs(mean_y - truth);
    }
    EXPECT_LT(gp_err, 0.5 * const_err);
}

TEST(Gp, TrainSizeReported)
{
    GaussianProcess gp;
    EXPECT_EQ(gp.trainSize(), 0u);
    gp.fit({{0.0}, {1.0}, {2.0}}, {1.0, 2.0, 3.0});
    EXPECT_EQ(gp.trainSize(), 3u);
}

/**
 * The LCB the way the unbatched GP computed it: one kernel row for the
 * mean, a second for the variance, then solveLower. `raw_var` receives
 * the variance before the clip to 0.
 */
struct NaiveGp
{
    GpParams p;
    std::vector<std::vector<double>> x;
    double y_mean = 0.0;
    std::vector<double> alpha;
    std::unique_ptr<Cholesky> chol;

    double
    kernel(const std::vector<double> &a, const std::vector<double> &b) const
    {
        double d2 = 0.0;
        for (size_t i = 0; i < a.size(); ++i) {
            double d = a[i] - b[i];
            d2 += d * d;
        }
        double ls2 = p.length_scale * p.length_scale;
        return p.signal_var * std::exp(-0.5 * d2 / ls2);
    }

    NaiveGp(GpParams params, const std::vector<std::vector<double>> &xs,
            const std::vector<double> &ys)
        : p(params), x(xs)
    {
        for (double v : ys)
            y_mean += v;
        y_mean /= static_cast<double>(ys.size());
        const size_t n = xs.size();
        Matrix k(n, n, 0.0);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j <= i; ++j)
                k(i, j) = k(j, i) = kernel(xs[i], xs[j]);
        k.addDiagonal(p.noise_var + 1e-10);
        chol = std::make_unique<Cholesky>(k);
        std::vector<double> centred(n);
        for (size_t i = 0; i < n; ++i)
            centred[i] = ys[i] - y_mean;
        alpha = chol->solve(centred);
    }

    double
    lcb(const std::vector<double> &q, double kappa, double &raw_var) const
    {
        double mean = y_mean;
        for (size_t i = 0; i < x.size(); ++i)
            mean += alpha[i] * kernel(q, x[i]);
        std::vector<double> kstar(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            kstar[i] = kernel(q, x[i]);
        std::vector<double> v = chol->solveLower(kstar);
        double var = kernel(q, q);
        for (double vi : v)
            var -= vi * vi;
        raw_var = var;
        return mean - kappa * std::sqrt(var > 0.0 ? var : 0.0);
    }
};

TEST(Gp, BatchedLcbEqualsNaiveReferenceBitwise)
{
    // BB-BO-like shapes: 5 features, 60 training points. Zero noise
    // leaves only the 1e-10 jitter against a large signal variance, so
    // at queries placed exactly on training points rounding drives the
    // raw variance negative and the clip to 0 fires.
    const GpParams p{1.5, 1e6, 0.0};
    const double kappa = 1.3;
    Rng rng(21);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    x.reserve(60);
    y.reserve(60);
    for (int i = 0; i < 60; ++i) {
        std::vector<double> f(5);
        for (double &v : f)
            v = rng.uniformReal(-2.0, 2.0);
        y.push_back(std::sin(f[0]) + f[1] * f[2]);
        x.push_back(std::move(f));
    }
    GaussianProcess gp(p);
    gp.fit(x, y);
    const NaiveGp naive(p, x, y);

    std::vector<std::vector<double>> queries(x.begin(), x.begin() + 20);
    queries.reserve(70);
    for (int i = 0; i < 50; ++i) {
        std::vector<double> f(5);
        for (double &v : f)
            v = rng.uniformReal(-3.0, 3.0);
        queries.push_back(std::move(f));
    }
    std::vector<double> expect(queries.size());
    int clipped = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
        double raw_var = 0.0;
        expect[q] = naive.lcb(queries[q], kappa, raw_var);
        clipped += raw_var <= 0.0;
        EXPECT_EQ(std::bit_cast<uint64_t>(gp.lcb(queries[q], kappa)),
                  std::bit_cast<uint64_t>(expect[q]))
                << "point query " << q;
    }
    EXPECT_GT(clipped, 0) << "no query exercised the variance clip";

    // Batches of every width 1..9, widths around the 32-query tile and
    // its 8-lane vectors, and the whole set at once; the whole set
    // also over a pool, whose threads split the tiles.
    ThreadPool pool(3);
    for (size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 70}) {
        for (size_t lo = 0; lo < queries.size(); lo += width) {
            const size_t hi = std::min(queries.size(), lo + width);
            std::vector<double> rows;
            for (size_t q = lo; q < hi; ++q)
                rows.insert(rows.end(), queries[q].begin(),
                            queries[q].end());
            std::vector<double> out(hi - lo);
            gp.lcbBatch(rows, kappa, out, width == 70 ? &pool : nullptr);
            for (size_t q = lo; q < hi; ++q)
                EXPECT_EQ(std::bit_cast<uint64_t>(out[q - lo]),
                          std::bit_cast<uint64_t>(expect[q]))
                        << "width " << width << " query " << q;
        }
    }
}

TEST(ExpBracket, BracketsStdExpAtEveryBucketEdgeAndRandomPoints)
{
    // Every bucket edge -j/64 of the grid over [-48, 0], 4 ulps either
    // side of it, then uniform points over the grid and past its end.
    auto check = [](double x) {
        const detail::ExpBracket b = detail::expBracket(x);
        if (x > 0.0) {
            EXPECT_TRUE(std::isnan(b.lo) && std::isnan(b.hi)) << x;
            return;
        }
        const double e = std::exp(x);
        EXPECT_LE(b.lo, e) << std::hexfloat << x;
        EXPECT_GE(b.hi, e) << std::hexfloat << x;
        // Within the grid a bracket spans one bucket, so it is tight
        // enough to prune with.
        if (x >= -48.0) {
            EXPECT_LE(b.hi, b.lo * 1.0158) << std::hexfloat << x;
        }
    };
    for (int j = 0; j <= 48 * 64; ++j) {
        const double edge = -double(j) / 64.0;
        double lo = edge, hi = edge;
        check(edge);
        for (int k = 0; k < 4; ++k) {
            lo = std::nextafter(lo, -1e300);
            hi = std::nextafter(hi, 1e300);
            check(lo);
            check(hi);
        }
    }
    Rng rng(64);
    for (int k = 0; k < 1000000; ++k)
        check(rng.uniformReal(-50.0, 0.0));

    const detail::ExpBracket tail =
            detail::expBracket(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(tail.lo, 0.0);
    EXPECT_GE(tail.hi, std::exp(-48.0));
    const detail::ExpBracket none =
            detail::expBracket(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(std::isnan(none.lo) && std::isnan(none.hi));
}

/** A fitted GP and a query set that stresses the LCB lower bounds. */
struct BoundCase
{
    std::string name;
    std::unique_ptr<GaussianProcess> gp;
    std::vector<double> rows; ///< 264 queries, row-major
    std::vector<bool> nan_row; ///< query has a NaN feature
};

/**
 * 264 queries (a multiple of every group size tested) for a GP fitted
 * to `n` random points of `dim` features: training points themselves
 * (where a zero-noise GP's variance clips to 0), copies of earlier
 * queries (exact ties), points far beyond the exp table's span, one
 * query with a NaN feature, and random points near the data.
 */
BoundCase
boundCase(std::string name, GpParams p, size_t n, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> x(n, std::vector<double>(dim));
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (double &v : x[i])
            v = rng.uniformReal(-2.0, 2.0);
        y[i] = std::sin(x[i][0]) + x[i][1] * x[i][dim - 1];
    }
    BoundCase c;
    c.name = std::move(name);
    c.gp = std::make_unique<GaussianProcess>(p);
    c.gp->fit(x, y);
    for (size_t q = 0; q < 264; ++q) {
        std::vector<double> f(dim);
        if (q % 5 == 0) {
            f = x[rng.uniformInt(0, int(n) - 1)];
        } else if (q % 7 == 0 && q >= 7) {
            f.assign(c.rows.begin() + (q - 7) * dim,
                    c.rows.begin() + (q - 6) * dim);
        } else if (q % 11 == 0) {
            for (double &v : f)
                v = rng.uniformReal(-400.0, 400.0);
        } else {
            for (double &v : f)
                v = rng.uniformReal(-3.0, 3.0);
        }
        const bool nan_row = q == 131;
        if (nan_row)
            f[1] = std::numeric_limits<double>::quiet_NaN();
        c.rows.insert(c.rows.end(), f.begin(), f.end());
        c.nan_row.push_back(nan_row);
    }
    return c;
}

/**
 * The zero-noise variance-clip GP of BatchedLcbEqualsNaiveReferenceBitwise,
 * BB-BO's own hyperparameters, a short length scale that puts most
 * kernel arguments past the table, and a zero signal variance, for
 * which no bound is known.
 */
std::vector<BoundCase>
boundCases()
{
    std::vector<BoundCase> cases;
    cases.push_back(boundCase("clip", {1.5, 1e6, 0.0}, 60, 5, 21));
    cases.push_back(boundCase("bbbo", {3.0, 4.0, 1e-2}, 120, 9, 22));
    cases.push_back(boundCase("short", {0.2, 2.0, 1e-4}, 50, 4, 23));
    cases.push_back(boundCase("flat", {1.0, 0.0, 1e-2}, 30, 3, 24));
    return cases;
}

TEST(GpLowerBound, NeverAboveTheExactLcb)
{
    ThreadPool pool(3);
    for (const BoundCase &c : boundCases()) {
        const GaussianProcess &gp = *c.gp;
        const size_t count = c.nan_row.size();
        const size_t dim = c.rows.size() / count;
        for (double kappa : {-1.0, 0.0, 1.0, 3.0}) {
            std::vector<double> bound(count), pooled(count);
            gp.lcbLowerBounds(c.rows, kappa, bound);
            gp.lcbLowerBounds(c.rows, kappa, pooled, &pool);
            for (size_t q = 0; q < count; ++q) {
                const std::vector<double> row(c.rows.begin() + q * dim,
                        c.rows.begin() + (q + 1) * dim);
                const double lcb = gp.lcb(row, kappa);
                const std::string at = c.name + " kappa " +
                        std::to_string(kappa) + " query " + std::to_string(q);
                EXPECT_EQ(std::bit_cast<uint64_t>(bound[q]),
                          std::bit_cast<uint64_t>(pooled[q]))
                        << at;
                if (c.name == "flat" || c.nan_row[q]) {
                    EXPECT_TRUE(std::isnan(bound[q])) << at;
                    continue;
                }
                ASSERT_FALSE(std::isnan(bound[q])) << at;
                EXPECT_LE(bound[q], lcb) << at;
            }
        }
    }
}

TEST(GpLcbArgmin, EqualsFullBatchAndStrictScanBitwise)
{
    ThreadPool pool(3);
    size_t pruned = 0;
    for (const BoundCase &c : boundCases()) {
        const GaussianProcess &gp = *c.gp;
        const size_t count = c.nan_row.size();
        for (double kappa : {-1.0, 0.0, 1.0, 3.0}) {
            std::vector<double> lcbs(count);
            gp.lcbBatch(c.rows, kappa, lcbs);
            for (size_t group : {1, 3, 8, 33}) {
                const size_t groups = count / group;
                for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr),
                                      &pool}) {
                    std::vector<double> best(groups);
                    std::vector<size_t> pick(groups);
                    const size_t exact = gp.lcbArgmin(c.rows, group, kappa,
                            best, pick, p);
                    EXPECT_GE(exact, groups);
                    EXPECT_LE(exact, count);
                    pruned += count - exact;
                    for (size_t g = 0; g < groups; ++g) {
                        double want = std::numeric_limits<double>::infinity();
                        size_t want_pick = g * group;
                        for (size_t q = g * group; q < (g + 1) * group; ++q)
                            if (lcbs[q] < want) {
                                want = lcbs[q];
                                want_pick = q;
                            }
                        const std::string at = c.name + " kappa " +
                                std::to_string(kappa) + " group " +
                                std::to_string(group) + " g " +
                                std::to_string(g);
                        EXPECT_EQ(std::bit_cast<uint64_t>(best[g]),
                                  std::bit_cast<uint64_t>(want))
                                << at;
                        EXPECT_EQ(pick[g], want_pick) << at;
                    }
                }
            }
        }
    }
    EXPECT_GT(pruned, 0u) << "no candidate was ever pruned";
}

TEST(GpDeathTest, ArgminGroupsMustBeWellFormed)
{
    GaussianProcess gp;
    gp.fit({{0.0, 1.0}, {1.0, 0.0}}, {1.0, 2.0});
    std::vector<double> rows = {0.5, 0.5, 0.25, 0.25};
    std::vector<double> best(2);
    std::vector<size_t> pick(2), short_pick(1);
    EXPECT_DEATH(gp.lcbArgmin(rows, 0, 1.0, best, pick), "bad group shape");
    EXPECT_DEATH(gp.lcbArgmin(rows, 1, 1.0, best, short_pick),
            "bad group shape");
    EXPECT_DEATH(gp.lcbArgmin(rows, 2, 1.0, best, pick),
            "feature size mismatch");
}

TEST(GpDeathTest, BatchRowsMustMatchFeatureSize)
{
    GaussianProcess gp;
    gp.fit({{0.0, 1.0}, {1.0, 0.0}}, {1.0, 2.0});
    std::vector<double> rows = {0.5, 0.5, 0.25};
    std::vector<double> out(2);
    EXPECT_DEATH(gp.lcbBatch(rows, 1.0, out), "feature size mismatch");
}

} // namespace
} // namespace dosa
