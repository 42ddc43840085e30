/**
 * @file
 * GP regression: RBF kernel, Cholesky-based fit and batched posterior
 * mean/variance.
 */
#include "gp/gaussian_process.hh"

#include <algorithm>
#include <cmath>
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

} // namespace

GaussianProcess::GaussianProcess(GpParams params) : params_(params) {}

double
GaussianProcess::kernelOfDist2(double d2) const
{
    double ls2 = params_.length_scale * params_.length_scale;
    return params_.signal_var * std::exp(-0.5 * d2 / ls2);
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
GaussianProcess::posterior(std::span<const double> rows, size_t count,
                           double *mean, double *var,
                           ThreadPool *pool) const
{
    if (!chol_)
        panic("GaussianProcess: predict before fit");
    if (rows.size() != count * dim_)
        panic("GaussianProcess: feature size mismatch");
    const size_t tiles = (count + kQueryTile - 1) / kQueryTile;
    auto tile = [&](size_t t) {
        const size_t q0 = t * kQueryTile;
        posteriorTile(rows.data() + q0 * dim_,
                std::min(kQueryTile, count - q0),
                mean != nullptr ? mean + q0 : nullptr,
                var != nullptr ? var + q0 : nullptr);
    };
    if (pool != nullptr)
        pool->parallelFor(tiles, tile);
    else
        for (size_t t = 0; t < tiles; ++t)
            tile(t);
}

void
GaussianProcess::posteriorTile(const double *rows, size_t w, double *mean,
                               double *var) const
{
    const size_t n = trainSize();
    const detail::TileIsa isa = detail::hostTileIsa();
    // The queries transposed feature-major, so one training row meets
    // the tile's queries in contiguous lanes; each (query, training
    // point) distance still sums its features in ascending order.
    std::vector<double> qt_buf, ks_buf;
    std::span<double> qt = alignedScratch(qt_buf, dim_ * w);
    for (size_t q = 0; q < w; ++q)
        for (size_t f = 0; f < dim_; ++f)
            qt[f * w + q] = rows[q * dim_ + f];
    // K* block, k-major: ks[i * w + q] = k(query q, x_i).
    std::span<double> ks = alignedScratch(ks_buf, n * w);
    detail::squaredDistances(isa, x_.data(), n, dim_, qt.data(), w,
            ks.data());
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

} // namespace dosa
