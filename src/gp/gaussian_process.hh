/**
 * @file
 * Gaussian-process regression with an RBF kernel.
 *
 * This is the surrogate behind the BB-BO baseline (Section 6.1, after
 * Spotlight): the optimizer fits a GP to observed (hardware, mapping)
 * -> log-EDP samples and ranks unseen candidates by posterior mean
 * (optionally lower-confidence bound).
 */

#ifndef DOSA_GP_GAUSSIAN_PROCESS_HH
#define DOSA_GP_GAUSSIAN_PROCESS_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"

namespace dosa {

class ThreadPool;

/** Hyperparameters of the squared-exponential kernel. */
struct GpParams
{
    double length_scale = 1.0; ///< shared isotropic length scale
    double signal_var = 1.0;   ///< kernel amplitude sigma_f^2
    double noise_var = 1e-4;   ///< observation noise sigma_n^2
};

/** GP regressor over fixed-dimension feature vectors. */
class GaussianProcess
{
  public:
    explicit GaussianProcess(GpParams params = {});

    /**
     * Fit to (x, y) pairs. Targets are internally centred on their
     * mean; feature dimensions must agree across rows.
     */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y);

    /** Posterior mean at a point. Requires fit() first. */
    double predictMean(const std::vector<double> &x) const;

    /** Posterior variance at a point (>= 0, clipped). */
    double predictVar(const std::vector<double> &x) const;

    /**
     * Lower confidence bound mean - kappa * std; the BO baseline
     * minimizes EDP, so lower is more promising.
     */
    double lcb(const std::vector<double> &x, double kappa) const;

    /**
     * lcb() of out.size() query points at once. `rows` holds the
     * queries row-major, one feature vector after another, and must be
     * out.size() x the training feature size. Queries go in tiles of
     * up to 32: each query's kernel row is computed once and feeds
     * both the mean and the variance, and a tile's variance solves run
     * as one block forward substitution. With a `pool`, the tiles are
     * split over its threads (the call must not come from one of that
     * pool's tasks). out[q] is bitwise what lcb() gives for query q
     * alone, with or without a pool.
     */
    void lcbBatch(std::span<const double> rows, double kappa,
                  std::span<double> out, ThreadPool *pool = nullptr) const;

    /** Number of training points. */
    size_t trainSize() const { return alpha_.size(); }

  private:
    double kernelOfDist2(double d2) const;
    double kernel(const double *a, const double *b) const;

    /**
     * Posterior of `count` row-major query rows, one tile of up to 32
     * at a time (over `pool` when given). Writes the means when `mean`
     * is non-null and the clipped variances when `var` is; everything
     * it needs besides the fitted state is allocated per tile, so
     * concurrent calls on a shared const GP are safe.
     */
    void posterior(std::span<const double> rows, size_t count,
                   double *mean, double *var,
                   ThreadPool *pool = nullptr) const;

    /** posterior() of one tile of `w` <= 32 queries. */
    void posteriorTile(const double *rows, size_t w, double *mean,
                       double *var) const;

    GpParams params_;
    size_t dim_ = 0;           ///< feature size
    std::vector<double> x_;    ///< training rows, row-major n x dim_
    double y_mean_ = 0.0;
    std::vector<double> alpha_; ///< K^-1 (y - mean)
    std::unique_ptr<Cholesky> chol_;
};

} // namespace dosa

#endif // DOSA_GP_GAUSSIAN_PROCESS_HH
