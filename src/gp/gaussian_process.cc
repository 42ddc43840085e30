/**
 * @file
 * GP regression: RBF kernel, Cholesky-based fit and batched posterior
 * mean/variance.
 */
#include "gp/gaussian_process.hh"

#include <cmath>

#include "util/logging.hh"

namespace dosa {

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
                           double *mean, double *var) const
{
    if (!chol_)
        panic("GaussianProcess: predict before fit");
    if (rows.size() != count * dim_)
        panic("GaussianProcess: feature size mismatch");
    const size_t n = trainSize();
    // The queries transposed feature-major, so one training row meets
    // a tile of queries in contiguous lanes; each (query, training
    // point) distance still sums its features in ascending order.
    std::vector<double> qt(dim_ * count);
    for (size_t q = 0; q < count; ++q)
        for (size_t f = 0; f < dim_; ++f)
            qt[f * count + q] = rows[q * dim_ + f];
    // K* block, k-major: ks[i * count + q] = k(query q, x_i).
    std::vector<double> ks(n * count);
    forEachColumnTile(count, [&]<size_t W>(size_t q0) {
        for (size_t i = 0; i < n; ++i) {
            const double *xi = x_.data() + i * dim_;
            double d2[W] = {};
            for (size_t f = 0; f < dim_; ++f) {
                const double *qf = qt.data() + f * count + q0;
                for (size_t c = 0; c < W; ++c) {
                    double d = qf[c] - xi[f];
                    d2[c] += d * d;
                }
            }
            for (size_t c = 0; c < W; ++c)
                ks[i * count + q0 + c] = kernelOfDist2(d2[c]);
        }
    });

    if (mean != nullptr) {
        for (size_t q = 0; q < count; ++q)
            mean[q] = y_mean_;
        for (size_t i = 0; i < n; ++i)
            for (size_t q = 0; q < count; ++q)
                mean[q] += alpha_[i] * ks[i * count + q];
    }
    if (var != nullptr) {
        chol_->solveLowerBlock(ks, count);
        for (size_t q = 0; q < count; ++q)
            var[q] = kernel(rows.data() + q * dim_,
                    rows.data() + q * dim_);
        for (size_t i = 0; i < n; ++i)
            for (size_t q = 0; q < count; ++q)
                var[q] -= ks[i * count + q] * ks[i * count + q];
        for (size_t q = 0; q < count; ++q)
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
                          std::span<double> out) const
{
    std::vector<double> mean(out.size());
    posterior(rows, out.size(), mean.data(), out.data());
    for (size_t q = 0; q < out.size(); ++q)
        out[q] = mean[q] - kappa * std::sqrt(out[q]);
}

} // namespace dosa
