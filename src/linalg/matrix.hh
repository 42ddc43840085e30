/**
 * @file
 * Small dense-matrix type backing the Gaussian-process regressor.
 *
 * Sizes in this project are modest (a few hundred rows for BO training
 * sets), so a simple row-major std::vector container is sufficient and
 * keeps the dependency surface at zero.
 */

#ifndef DOSA_LINALG_MATRIX_HH
#define DOSA_LINALG_MATRIX_HH

#include <cstddef>
#include <vector>

namespace dosa {

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with `fill`. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Identity matrix of order n. */
    static Matrix identity(size_t n);

    /** Matrix-matrix product; panics on shape mismatch. */
    Matrix matmul(const Matrix &other) const;

    /** Matrix-vector product; panics on shape mismatch. */
    std::vector<double> matvec(const std::vector<double> &v) const;

    /** Transpose. */
    Matrix transpose() const;

    /** Add scalar to the diagonal in place (jitter for conditioning). */
    void addDiagonal(double value);

    /** Raw storage access (row-major). */
    const std::vector<double> &data() const { return data_; }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product; panics on size mismatch. */
double dot(const std::vector<double> &a, const std::vector<double> &b);

} // namespace dosa

#endif // DOSA_LINALG_MATRIX_HH
