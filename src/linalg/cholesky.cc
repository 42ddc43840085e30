/**
 * @file
 * Cholesky factorization and forward/back substitution.
 */
#include "linalg/cholesky.hh"

#include <cmath>

#include "linalg/tile_kernels.hh"
#include "util/logging.hh"

namespace dosa {

Cholesky::Cholesky(const Matrix &a)
{
    if (a.rows() != a.cols())
        panic("Cholesky: matrix not square");
    size_t n = a.rows();
    l_ = Matrix(n, n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (size_t k = 0; k < j; ++k)
                acc -= l_(i, k) * l_(j, k);
            if (i == j) {
                if (acc <= 0.0)
                    panic("Cholesky: matrix not positive definite");
                l_(i, i) = std::sqrt(acc);
            } else {
                l_(i, j) = acc / l_(j, j);
            }
        }
    }
}

std::vector<double>
Cholesky::solveLower(const std::vector<double> &b) const
{
    if (b.size() != l_.rows())
        panic("Cholesky::solveLower: size mismatch");
    std::vector<double> y = b;
    solveLowerBlock(y, 1);
    return y;
}

void
Cholesky::solveLowerBlock(std::span<double> block, size_t nrhs) const
{
    if (block.size() != l_.rows() * nrhs)
        panic("Cholesky::solveLowerBlock: size mismatch");
    detail::forwardSubstitute(detail::hostTileIsa(), l_, block.data(),
            nrhs);
}

std::vector<double>
Cholesky::solve(const std::vector<double> &b) const
{
    size_t n = l_.rows();
    std::vector<double> y = solveLower(b);
    std::vector<double> x(n, 0.0);
    for (size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (size_t k = ii + 1; k < n; ++k)
            acc -= l_(k, ii) * x[k];
        x[ii] = acc / l_(ii, ii);
    }
    return x;
}

double
Cholesky::logDet() const
{
    double acc = 0.0;
    for (size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return 2.0 * acc;
}

} // namespace dosa
