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

TEST(Cholesky, BlockSolveEqualsPerColumnSolveLowerBitwise)
{
    // Sizes cover tiny systems and a GP-sized one; nrhs 1..9 covers
    // every vector-width tail of the across-columns inner loop. Each
    // column must match both solveLower and the scalar reference.
    for (size_t n : {1, 2, 3, 7, 31, 300}) {
        Rng rng(static_cast<uint64_t>(n) * 31 + 5);
        Matrix b(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                b(i, j) = rng.gaussian();
        Matrix a = b.matmul(b.transpose());
        a.addDiagonal(static_cast<double>(n));
        Cholesky chol(a);
        for (size_t nrhs = 1; nrhs <= 9; ++nrhs) {
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

} // namespace
} // namespace dosa
