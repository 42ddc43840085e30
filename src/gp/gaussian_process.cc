/**
 * @file
 * GP regression: RBF kernel, Cholesky-based fit, batched posterior
 * mean/variance and the exp-free LCB lower bounds that let lcbArgmin
 * skip candidates that cannot win.
 */
#include "gp/gaussian_process.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

#include "exec/thread_pool.hh"
#include "linalg/tile_kernels.hh"
#include "util/logging.hh"

namespace dosa {

namespace {

/**
 * Queries per posterior tile: the widest column tile of the vector
 * kernels (four 8-lane vectors), and it bounds a tile's K* scratch at
 * n x 32.
 */
constexpr size_t kQueryTile = 32;

/**
 * `count` zeroed doubles inside `buf`, starting on a 64-byte boundary:
 * a misaligned 8-lane load or store straddles two cache lines, which
 * made the vector kernels up to a third slower.
 */
std::span<double>
alignedScratch(std::vector<double> &buf, size_t count)
{
    buf.assign(count + 7, 0.0);
    void *p = buf.data();
    size_t space = buf.size() * sizeof(double);
    std::align(64, count * sizeof(double), p, space);
    return {static_cast<double *>(p), count};
}

/**
 * Calls fn(q0, w) for each tile [q0, q0 + w) of up to kQueryTile of
 * `count` queries, over `pool` when given.
 */
template <class Fn>
void
forEachQueryTile(size_t count, ThreadPool *pool, const Fn &fn)
{
    const size_t tiles = (count + kQueryTile - 1) / kQueryTile;
    auto tile = [&](size_t t) {
        const size_t q0 = t * kQueryTile;
        fn(q0, std::min(kQueryTile, count - q0));
    };
    if (pool != nullptr)
        pool->parallelFor(tiles, tile);
    else
        for (size_t t = 0; t < tiles; ++t)
            tile(t);
}

/**
 * The RBF kernel's exponent at squared distance d2: the kernel is the
 * signal variance times exp(kernelExponent(d2, ls2)). The exact kernel
 * and the lower bounds both take it from here, so they bucket and
 * exponentiate the same bits.
 */
inline double
kernelExponent(double d2, double ls2)
{
    return -0.5 * d2 / ls2;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Grid points per unit of the exp table. */
constexpr double kExpSteps = 64.0;
/** The exp table's grid covers [-kExpSpan, 0]. */
constexpr double kExpSpan = 48.0;
/** Bucket of every x below -kExpSpan, -inf included. */
constexpr size_t kExpTail = static_cast<size_t>(kExpSpan * kExpSteps) + 1;
/** Bucket of NaN and positive x: a NaN pair, no bound. */
constexpr size_t kExpNoBound = kExpTail + 1;

/**
 * std::exp bracketed bucket by bucket. Bucket b = floor(-64 x) holds x
 * in (-(b + 1) / 64, -b / 64], where exp rises, so lo[b] is exp at the
 * low edge and hi[b] exp at the high one, each moved outward by a
 * relative 2^-40: thousands of ulps, far beyond any libm's error at the
 * edge or at x.
 */
struct ExpTable
{
    std::array<double, kExpNoBound + 1> lo;
    std::array<double, kExpNoBound + 1> hi;
};

const ExpTable &
expTable()
{
    static const ExpTable table = [] {
        const double down = 1.0 - 0x1p-40, up = 1.0 + 0x1p-40;
        ExpTable t{};
        for (size_t b = 0; b < kExpTail; ++b) {
            t.lo[b] = std::exp(-static_cast<double>(b + 1) / kExpSteps) *
                    down;
            t.hi[b] = std::exp(-static_cast<double>(b) / kExpSteps) * up;
        }
        t.lo[kExpTail] = 0.0;
        t.hi[kExpTail] = std::exp(-kExpSpan) * up;
        t.lo[kExpNoBound] = kNaN;
        t.hi[kExpNoBound] = kNaN;
        return t;
    }();
    return table;
}

/**
 * The table bucket of x. The range and NaN checks come before the cast,
 * which therefore only ever sees a value in [0, 3072].
 */
inline size_t
expBucket(double x)
{
    if (x >= -kExpSpan && x <= 0.0)
        return static_cast<size_t>(-x * kExpSteps);
    return x < -kExpSpan ? kExpTail : kExpNoBound;
}

} // namespace

detail::ExpBracket
detail::expBracket(double x)
{
    const ExpTable &t = expTable();
    const size_t b = expBucket(x);
    return {t.lo[b], t.hi[b]};
}

GaussianProcess::GaussianProcess(GpParams params) : params_(params) {}

double
GaussianProcess::kernelOfDist2(double d2) const
{
    double ls2 = params_.length_scale * params_.length_scale;
    return params_.signal_var * std::exp(kernelExponent(d2, ls2));
}

double
GaussianProcess::kernel(const double *a, const double *b) const
{
    double d2 = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
        double d = a[i] - b[i];
        d2 += d * d;
    }
    return kernelOfDist2(d2);
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &x,
                     const std::vector<double> &y)
{
    if (x.size() != y.size() || x.empty())
        panic("GaussianProcess::fit: bad training set");
    size_t n = x.size();
    dim_ = x[0].size();
    x_.clear();
    x_.reserve(n * dim_);
    for (const std::vector<double> &row : x) {
        if (row.size() != dim_)
            panic("GaussianProcess: feature size mismatch");
        x_.insert(x_.end(), row.begin(), row.end());
    }
    y_mean_ = 0.0;
    for (double v : y)
        y_mean_ += v;
    y_mean_ /= static_cast<double>(y.size());

    Matrix k(n, n, 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j) {
            double v = kernel(x_.data() + i * dim_, x_.data() + j * dim_);
            k(i, j) = v;
            k(j, i) = v;
        }
    k.addDiagonal(params_.noise_var + 1e-10);
    chol_ = std::make_unique<Cholesky>(k);

    std::vector<double> centred(n);
    for (size_t i = 0; i < n; ++i)
        centred[i] = y[i] - y_mean_;
    alpha_ = chol_->solve(centred);
}

void
GaussianProcess::checkQueries(std::span<const double> rows,
                              size_t count) const
{
    if (!chol_)
        panic("GaussianProcess: predict before fit");
    if (rows.size() != count * dim_)
        panic("GaussianProcess: feature size mismatch");
}

std::span<double>
GaussianProcess::tileDistances(const double *rows, size_t w,
                               std::vector<double> &qt_buf,
                               std::vector<double> &d2_buf) const
{
    // The queries transposed feature-major, so one training row meets
    // the tile's queries in contiguous lanes; each (query, training
    // point) distance still sums its features in ascending order.
    std::span<double> qt = alignedScratch(qt_buf, dim_ * w);
    for (size_t q = 0; q < w; ++q)
        for (size_t f = 0; f < dim_; ++f)
            qt[f * w + q] = rows[q * dim_ + f];
    std::span<double> d2 = alignedScratch(d2_buf, trainSize() * w);
    detail::squaredDistances(detail::hostTileIsa(), x_.data(), trainSize(),
            dim_, qt.data(), w, d2.data());
    return d2;
}

void
GaussianProcess::posterior(std::span<const double> rows, size_t count,
                           double *mean, double *var,
                           ThreadPool *pool) const
{
    checkQueries(rows, count);
    forEachQueryTile(count, pool, [&](size_t q0, size_t w) {
        posteriorTile(rows.data() + q0 * dim_, w,
                mean != nullptr ? mean + q0 : nullptr,
                var != nullptr ? var + q0 : nullptr);
    });
}

void
GaussianProcess::posteriorTile(const double *rows, size_t w, double *mean,
                               double *var) const
{
    const size_t n = trainSize();
    // K* block, k-major: ks[i * w + q] = k(query q, x_i).
    std::vector<double> qt_buf, ks_buf;
    std::span<double> ks = tileDistances(rows, w, qt_buf, ks_buf);
    for (double &v : ks)
        v = kernelOfDist2(v);

    if (mean != nullptr) {
        for (size_t q = 0; q < w; ++q)
            mean[q] = y_mean_;
        for (size_t i = 0; i < n; ++i)
            for (size_t q = 0; q < w; ++q)
                mean[q] += alpha_[i] * ks[i * w + q];
    }
    if (var != nullptr) {
        chol_->solveLowerBlock(ks, w);
        for (size_t q = 0; q < w; ++q)
            var[q] = kernel(rows + q * dim_, rows + q * dim_);
        for (size_t i = 0; i < n; ++i)
            for (size_t q = 0; q < w; ++q)
                var[q] -= ks[i * w + q] * ks[i * w + q];
        for (size_t q = 0; q < w; ++q)
            var[q] = var[q] > 0.0 ? var[q] : 0.0;
    }
}

double
GaussianProcess::predictMean(const std::vector<double> &x) const
{
    double mean;
    posterior(x, 1, &mean, nullptr);
    return mean;
}

double
GaussianProcess::predictVar(const std::vector<double> &x) const
{
    double var;
    posterior(x, 1, nullptr, &var);
    return var;
}

double
GaussianProcess::lcb(const std::vector<double> &x, double kappa) const
{
    double out;
    lcbBatch(x, kappa, std::span<double>(&out, 1));
    return out;
}

void
GaussianProcess::lcbBatch(std::span<const double> rows, double kappa,
                          std::span<double> out, ThreadPool *pool) const
{
    std::vector<double> mean(out.size());
    posterior(rows, out.size(), mean.data(), out.data(), pool);
    for (size_t q = 0; q < out.size(); ++q)
        out[q] = mean[q] - kappa * std::sqrt(out[q]);
}

void
GaussianProcess::lcbLowerBounds(std::span<const double> rows, double kappa,
                                std::span<double> out,
                                ThreadPool *pool) const
{
    checkQueries(rows, out.size());
    // Scaling the table's entries by the signal variance keeps them on
    // their side of the kernel only for a finite positive variance.
    const double s = params_.signal_var;
    if (!(std::isfinite(s) && s > 0.0)) {
        std::fill(out.begin(), out.end(), kNaN);
        return;
    }
    forEachQueryTile(out.size(), pool, [&](size_t q0, size_t w) {
        lowerBoundTile(rows.data() + q0 * dim_, w, kappa, out.data() + q0);
    });
}

void
GaussianProcess::lowerBoundTile(const double *rows, size_t w, double kappa,
                                double *out) const
{
    std::vector<double> qt_buf, d2_buf;
    const std::span<const double> d2 =
            tileDistances(rows, w, qt_buf, d2_buf);
    const ExpTable &table = expTable();
    const double ls2 = params_.length_scale * params_.length_scale;
    const double s = params_.signal_var;
    // posteriorTile's mean recurrence, i ascending, with each kernel
    // value replaced by s * lo where alpha_i >= 0 and s * hi where
    // alpha_i < 0. Rounding is monotone, so every product and every
    // partial sum stays at or below the exact one. A NaN bucket makes
    // the query's bound NaN.
    for (size_t q = 0; q < w; ++q)
        out[q] = y_mean_;
    for (size_t i = 0; i < trainSize(); ++i) {
        const double a = alpha_[i];
        const double *edge = a < 0.0 ? table.hi.data() : table.lo.data();
        const double *d2i = d2.data() + i * w;
        for (size_t q = 0; q < w; ++q)
            out[q] += a * (s * edge[expBucket(kernelExponent(d2i[q], ls2))]);
    }
    // The clipped posterior variance never exceeds k(x, x), which is
    // where posteriorTile starts it, so for kappa >= 0 the exact
    // kappa * std is at most this; for kappa < 0 it is at most 0.
    const double kappa_pos = std::max(kappa, 0.0);
    for (size_t q = 0; q < w; ++q)
        out[q] -= kappa_pos *
                std::sqrt(kernel(rows + q * dim_, rows + q * dim_));
}

size_t
GaussianProcess::lcbArgmin(std::span<const double> rows, size_t group,
                           double kappa, std::span<double> best,
                           std::span<size_t> pick, ThreadPool *pool) const
{
    if (group == 0 || pick.size() != best.size())
        panic("GaussianProcess::lcbArgmin: bad group shape");
    const size_t groups = best.size();
    std::vector<double> bound(groups * group);
    lcbLowerBounds(rows, kappa, bound, pool);

    // Exact LCBs land here; a query never scored keeps +inf, which no
    // strict-< scan picks.
    std::vector<double> exact_lcb(bound.size(), kInf);
    size_t exact = 0;
    auto score = [&](const std::vector<size_t> &queries) {
        std::vector<double> sub(queries.size() * dim_);
        for (size_t k = 0; k < queries.size(); ++k)
            std::copy_n(rows.data() + queries[k] * dim_, dim_,
                    sub.data() + k * dim_);
        std::vector<double> out(queries.size());
        lcbBatch(sub, kappa, out, pool);
        for (size_t k = 0; k < queries.size(); ++k)
            exact_lcb[queries[k]] = out[k];
        exact += queries.size();
    };

    // Phase A: each group's lowest-bound query (its first when no
    // bound is below +inf).
    std::vector<size_t> lowest(groups);
    for (size_t g = 0; g < groups; ++g) {
        double low = kInf;
        lowest[g] = g * group;
        for (size_t q = g * group; q < (g + 1) * group; ++q)
            if (bound[q] < low) {
                low = bound[q];
                lowest[g] = q;
            }
    }
    score(lowest);

    // Phase B: every other query whose bound is not above its group's
    // phase-A LCB (a NaN on either side keeps it). A query left out has
    // lcb() >= bound > that LCB, so it can neither win nor tie.
    std::vector<size_t> rest;
    for (size_t g = 0; g < groups; ++g) {
        const double ref = exact_lcb[lowest[g]];
        for (size_t q = g * group; q < (g + 1) * group; ++q)
            if (q != lowest[g] && !(bound[q] > ref))
                rest.push_back(q);
    }
    score(rest);

    for (size_t g = 0; g < groups; ++g) {
        best[g] = kInf;
        pick[g] = g * group;
        for (size_t q = g * group; q < (g + 1) * group; ++q)
            if (exact_lcb[q] < best[g]) {
                best[g] = exact_lcb[q];
                pick[g] = q;
            }
    }
    return exact;
}

} // namespace dosa
