/**
 * @file
 * Column-tile kernels behind Cholesky::solveLowerBlock and the GP
 * posterior's squared distances.
 *
 * Two families compute the same bits. The portable family keeps one
 * scalar accumulator per column in 8-wide tiles, which GCC and Clang
 * vectorize at whatever width the build targets. On x86-64 CPUs with
 * AVX-512F the vector family runs 32-wide tiles as four independent
 * 8-lane vectors. The family is chosen once, from the CPU; there is no
 * option. Both families perform, per column, the same IEEE operations
 * in the same order, so every column is bitwise the portable result
 * for any tile width. That holds only when the compiler does not fuse
 * a multiply and an add into one FMA, which is why the build pins
 * `-ffp-contract=off`.
 */

#ifndef DOSA_LINALG_TILE_KERNELS_HH
#define DOSA_LINALG_TILE_KERNELS_HH

#include <cstddef>

#include "linalg/matrix.hh"

namespace dosa::detail {

/** A family of column-tile kernels. */
enum class TileIsa
{
    Portable, ///< scalar loops, any CPU
    Avx512,   ///< 8-lane AVX-512F vectors, x86-64 CPUs that have it
};

/**
 * The family this CPU runs: Avx512 when it reports AVX-512F (and the OS
 * saves its registers), Portable otherwise. Detected on first call.
 */
TileIsa hostTileIsa();

/**
 * Solve L Y = B in place with `isa`'s kernels. `l` is n x n lower
 * triangular; `block` is n x nrhs, k-major (row i, column c at
 * block[i * nrhs + c]). Each column runs its own k-ascending
 * `acc -= L(i,k) * y[k]` chain and ends with one division by L(i,i).
 * `isa` must be Portable or hostTileIsa().
 */
void forwardSubstitute(TileIsa isa, const Matrix &l, double *block,
                       size_t nrhs);

/**
 * Squared Euclidean distances with `isa`'s kernels:
 * d2[i * w + c] = sum over f ascending of (qt[f * w + c] - x[i * dim +
 * f])^2, for n training rows `x` (row-major, n x dim) and a tile of w
 * queries `qt` stored feature-major (dim x w). `isa` must be Portable
 * or hostTileIsa().
 */
void squaredDistances(TileIsa isa, const double *x, size_t n, size_t dim,
                      const double *qt, size_t w, double *d2);

} // namespace dosa::detail

#endif // DOSA_LINALG_TILE_KERNELS_HH
