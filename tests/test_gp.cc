/**
 * @file
 * Unit tests for Gaussian-process regression: interpolation,
 * uncertainty behaviour and LCB ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

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
