/**
 * @file
 * Unit tests for dense matrices and Cholesky factorization/solves.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/tile_kernels.hh"
#include "util/rng.hh"

namespace dosa {
namespace {

TEST(Matrix, IdentityAndIndexing)
{
    Matrix m = Matrix::identity(3);
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(m(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, MatmulKnown)
{
    Matrix a(2, 3);
    Matrix b(3, 2);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    double av[] = {1, 2, 3, 4, 5, 6};
    double bv[] = {7, 8, 9, 10, 11, 12};
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = av[i * 3 + j];
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 2; ++j)
            b(i, j) = bv[i * 2 + j];
    Matrix c = a.matmul(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatvecAndTranspose)
{
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    auto v = a.matvec({1.0, 1.0});
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 7.0);
    Matrix at = a.transpose();
    EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(at(1, 0), 2.0);
}

TEST(Matrix, AddDiagonal)
{
    Matrix a(3, 3, 0.0);
    a.addDiagonal(2.5);
    EXPECT_DOUBLE_EQ(a(0, 0), 2.5);
    EXPECT_DOUBLE_EQ(a(2, 2), 2.5);
    EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Dot, Basic)
{
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
}

TEST(Cholesky, FactorOfKnownSpd)
{
    // A = [[4, 2], [2, 3]]; L = [[2, 0], [1, sqrt(2)]].
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    Cholesky chol(a);
    EXPECT_NEAR(chol.factor()(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(chol.factor()(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(chol.factor()(1, 1), std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(chol.logDet(), std::log(8.0), 1e-12);
}

class CholeskyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyProperty, SolveRecoversSolution)
{
    const size_t n = static_cast<size_t>(GetParam());
    Rng rng(static_cast<uint64_t>(n) * 101 + 7);
    // Build SPD A = B B^T + n*I and a random truth x.
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            b(i, j) = rng.gaussian();
    Matrix a = b.matmul(b.transpose());
    a.addDiagonal(static_cast<double>(n));
    std::vector<double> truth(n);
    for (double &v : truth)
        v = rng.gaussian();
    std::vector<double> rhs = a.matvec(truth);

    Cholesky chol(a);
    std::vector<double> x = chol.solve(rhs);
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], truth[i], 1e-8);

    // L L^T must reconstruct A.
    Matrix l = chol.factor();
    Matrix rec = l.matmul(l.transpose());
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
        ::testing::Values(1, 2, 3, 5, 10, 25, 50));

TEST(Cholesky, SolveLowerIsForwardSubstitution)
{
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    Cholesky chol(a);
    // L y = b with L = [[2,0],[1,sqrt 2]] and b = [2, 1+sqrt 2].
    auto y = chol.solveLower({2.0, 1.0 + std::sqrt(2.0)});
    EXPECT_NEAR(y[0], 1.0, 1e-12);
    EXPECT_NEAR(y[1], 1.0, 1e-12);
}

/** Scalar forward substitution, one accumulator per row. */
std::vector<double>
referenceSolveLower(const Matrix &l, const std::vector<double> &b)
{
    std::vector<double> y(b.size(), 0.0);
    for (size_t i = 0; i < b.size(); ++i) {
        double acc = b[i];
        for (size_t k = 0; k < i; ++k)
            acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
    }
    return y;
}

/** Random SPD matrix of order n (B B^T plus n on the diagonal). */
Matrix
randomSpd(size_t n, Rng &rng)
{
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            b(i, j) = rng.gaussian();
    Matrix a = b.matmul(b.transpose());
    a.addDiagonal(static_cast<double>(n));
    return a;
}

/**
 * Column counts that reach every tile path of both kernel families:
 * each portable 8/4/2/1 tail, and the vector family's 32-, 16- and
 * 8-wide tiles, alone, full and with a tail.
 */
constexpr size_t kTileWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17,
                                  31, 32, 33, 63, 64, 65};

TEST(Cholesky, BlockSolveEqualsPerColumnSolveLowerBitwise)
{
    // Sizes cover tiny systems and a GP-sized one. Each column must
    // match both solveLower and the scalar reference.
    for (size_t n : {1, 2, 3, 7, 31, 300}) {
        Rng rng(static_cast<uint64_t>(n) * 31 + 5);
        Cholesky chol(randomSpd(n, rng));
        for (size_t nrhs : kTileWidths) {
            std::vector<std::vector<double>> cols(nrhs,
                    std::vector<double>(n));
            std::vector<double> block(n * nrhs);
            for (size_t c = 0; c < nrhs; ++c)
                for (size_t i = 0; i < n; ++i) {
                    cols[c][i] = rng.gaussian();
                    block[i * nrhs + c] = cols[c][i];
                }
            chol.solveLowerBlock(block, nrhs);
            for (size_t c = 0; c < nrhs; ++c) {
                std::vector<double> y = chol.solveLower(cols[c]);
                std::vector<double> ref =
                        referenceSolveLower(chol.factor(), cols[c]);
                for (size_t i = 0; i < n; ++i) {
                    uint64_t got =
                            std::bit_cast<uint64_t>(block[i * nrhs + c]);
                    ASSERT_EQ(got, std::bit_cast<uint64_t>(y[i]))
                            << "n=" << n << " nrhs=" << nrhs << " c=" << c
                            << " i=" << i;
                    ASSERT_EQ(got, std::bit_cast<uint64_t>(ref[i]))
                            << "n=" << n << " nrhs=" << nrhs << " c=" << c
                            << " i=" << i;
                }
            }
        }
    }
}

TEST(TileKernels, DispatchedKernelsEqualPortableBitwise)
{
    // Whatever family this CPU dispatches to, solveLowerBlock and the
    // GP's distance tiles must give the portable loops' bits. On a CPU
    // without AVX-512F both sides run the portable family.
    using detail::TileIsa;
    const TileIsa host = detail::hostTileIsa();
    RecordProperty("tile_isa", host == TileIsa::Avx512 ? "avx512"
                                                       : "portable");
    for (size_t n : {1, 7, 31, 300}) {
        Rng rng(static_cast<uint64_t>(n) * 17 + 3);
        Cholesky chol(randomSpd(n, rng));
        for (size_t nrhs : kTileWidths) {
            std::vector<double> block(n * nrhs);
            for (double &v : block)
                v = rng.gaussian();
            std::vector<double> portable = block;
            chol.solveLowerBlock(block, nrhs);
            detail::forwardSubstitute(TileIsa::Portable, chol.factor(),
                    portable.data(), nrhs);
            for (size_t e = 0; e < block.size(); ++e)
                ASSERT_EQ(std::bit_cast<uint64_t>(block[e]),
                          std::bit_cast<uint64_t>(portable[e]))
                        << "solve n=" << n << " nrhs=" << nrhs
                        << " element " << e;
        }
    }
    // Distances: BB-BO's 43 features and a few odd sizes, every width.
    for (size_t dim : {1, 5, 43}) {
        Rng rng(dim);
        const size_t n = 37;
        std::vector<double> x(n * dim);
        for (double &v : x)
            v = rng.uniformReal(-4.0, 4.0);
        for (size_t w : kTileWidths) {
            std::vector<double> qt(dim * w);
            for (double &v : qt)
                v = rng.uniformReal(-4.0, 4.0);
            std::vector<double> got(n * w), portable(n * w);
            detail::squaredDistances(host, x.data(), n, dim, qt.data(),
                    w, got.data());
            detail::squaredDistances(TileIsa::Portable, x.data(), n, dim,
                    qt.data(), w, portable.data());
            for (size_t e = 0; e < got.size(); ++e)
                ASSERT_EQ(std::bit_cast<uint64_t>(got[e]),
                          std::bit_cast<uint64_t>(portable[e]))
                        << "distance dim=" << dim << " w=" << w
                        << " element " << e;
            // And the portable family is the plain scalar sum.
            for (size_t i = 0; i < n; ++i)
                for (size_t c = 0; c < w; ++c) {
                    double d2 = 0.0;
                    for (size_t f = 0; f < dim; ++f) {
                        double d = qt[f * w + c] - x[i * dim + f];
                        d2 += d * d;
                    }
                    ASSERT_EQ(std::bit_cast<uint64_t>(portable[i * w + c]),
                              std::bit_cast<uint64_t>(d2))
                            << "distance dim=" << dim << " w=" << w;
                }
        }
    }
}

} // namespace
} // namespace dosa
