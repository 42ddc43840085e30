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

/**
 * Cover columns [0, count) with full 8-wide tiles and then at most one
 * 4-, 2- and 1-wide tile, calling `body.template operator()<W>(c0)`
 * for each. A tile's width is a compile-time constant, so a body that
 * keeps one accumulator per column in a `double acc[W]` gets them in
 * registers and vectorized across columns. Columns must be independent:
 * tiling then never changes a result bit.
 */
template <class Body>
void
forEachColumnTile(size_t count, Body &&body)
{
    size_t c0 = 0;
    for (; c0 + 8 <= count; c0 += 8)
        body.template operator()<8>(c0);
    if (count - c0 >= 4) {
        body.template operator()<4>(c0);
        c0 += 4;
    }
    if (count - c0 >= 2) {
        body.template operator()<2>(c0);
        c0 += 2;
    }
    if (count - c0 >= 1)
        body.template operator()<1>(c0);
}

} // namespace dosa

#endif // DOSA_LINALG_MATRIX_HH
