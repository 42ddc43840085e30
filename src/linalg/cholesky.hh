/**
 * @file
 * Cholesky factorization and triangular solves for symmetric
 * positive-definite systems (Gaussian-process posterior math).
 */

#ifndef DOSA_LINALG_CHOLESKY_HH
#define DOSA_LINALG_CHOLESKY_HH

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hh"

namespace dosa {

/**
 * Lower-triangular Cholesky factor of a symmetric positive-definite
 * matrix. Construction panics on non-SPD input (after jitter, GP kernels
 * are always SPD; failure indicates a bug upstream).
 */
class Cholesky
{
  public:
    /** Factor a; a must be square SPD. */
    explicit Cholesky(const Matrix &a);

    /** Solve A x = b via forward+backward substitution. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** Solve L y = b (forward substitution only). */
    std::vector<double> solveLower(const std::vector<double> &b) const;

    /**
     * Solve L Y = B in place for nrhs right-hand sides at once (GPML
     * Alg. 2.1 line 5 over a block). B is n x nrhs stored k-major:
     * element (row i, column c) lives at block[i * nrhs + c], so one
     * row's columns are contiguous and the inner loop runs across
     * them. Every column keeps its own k-ascending
     * `acc -= L(i,k) * y[k]` chain, so column c is bitwise what
     * solveLower gives for that column alone. Runs on the CPU's
     * column-tile kernels (linalg/tile_kernels.hh).
     */
    void solveLowerBlock(std::span<double> block, size_t nrhs) const;

    /** log(det(A)) = 2 * sum(log(diag(L))). */
    double logDet() const;

    /** The lower-triangular factor. */
    const Matrix &factor() const { return l_; }

  private:
    Matrix l_;
};

} // namespace dosa

#endif // DOSA_LINALG_CHOLESKY_HH
