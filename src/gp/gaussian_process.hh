/**
 * @file
 * Gaussian-process regression with an RBF kernel.
 *
 * This is the surrogate behind the BB-BO baseline (Section 6.1, after
 * Spotlight): the optimizer fits a GP to observed (hardware, mapping)
 * -> log-EDP samples and ranks unseen candidates by posterior mean
 * (optionally lower-confidence bound).
 *
 * lcb(), lcbBatch() and predict*() are the one exact posterior path.
 * lcbArgmin() picks the same candidates while giving an exact LCB only
 * to those that can still win: a provable lower bound on lcb(), which
 * calls no exp, rules out the rest.
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

    /**
     * A lower bound on lcb() for each of out.size() row-major queries
     * (`rows` as for lcbBatch), computed without calling exp: out[q] <=
     * lcb(query q, kappa), or NaN where no bound is known (a NaN kernel
     * argument, or a signal variance that is not finite and positive).
     * Each kernel value is replaced by the signal variance times an
     * entry of a table that brackets std::exp on a 1/64 grid, the low
     * entry where the training point's weight is >= 0 and the high one
     * where it is negative, and fed through the mean's own recurrence,
     * which rounding keeps at or below the exact one. Then max(kappa, 0)
     * times the prior standard deviation sqrt(k(x, x)) is subtracted,
     * which the clipped posterior variance never exceeds. With a
     * `pool`, tiles are split over its threads as in lcbBatch.
     */
    void lcbLowerBounds(std::span<const double> rows, double kappa,
                        std::span<double> out,
                        ThreadPool *pool = nullptr) const;

    /**
     * Per run of `group` consecutive queries, the first strict-< argmin
     * of lcb(): best[g] and pick[g] are bitwise the minimum LCB and the
     * query index (into all queries, in [g * group, (g + 1) * group))
     * that lcbBatch() over every query followed by a strict-< scan in
     * query order from +inf yields. A group none of whose LCBs is below
     * +inf gets +inf and its first index. `rows` holds best.size() x
     * `group` queries; pick.size() must equal best.size().
     *
     * Only the queries that can still win get an exact LCB: first each
     * group's lowest-bound query (lcbLowerBounds()), then every query
     * whose bound is not above that query's exact LCB. The others lie
     * strictly above it, so they can neither win nor tie. Both phases
     * run as lcbBatch() calls over `pool`. Returns the number of
     * queries that got an exact LCB.
     */
    size_t lcbArgmin(std::span<const double> rows, size_t group,
                     double kappa, std::span<double> best,
                     std::span<size_t> pick,
                     ThreadPool *pool = nullptr) const;

    /** Number of training points. */
    size_t trainSize() const { return alpha_.size(); }

  private:
    double kernelOfDist2(double d2) const;
    double kernel(const double *a, const double *b) const;

    /** Panics unless fitted and `rows` holds `count` queries. */
    void checkQueries(std::span<const double> rows, size_t count) const;

    /**
     * The `w` <= 32 queries at `rows` transposed feature-major into
     * `qt_buf` and their squared distances to every training row,
     * k-major (d2[i * w + q]), in `d2_buf`; returns the distances.
     */
    std::span<double> tileDistances(const double *rows, size_t w,
                                    std::vector<double> &qt_buf,
                                    std::vector<double> &d2_buf) const;

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

    /** lcbLowerBounds() of one tile of `w` <= 32 queries. */
    void lowerBoundTile(const double *rows, size_t w, double kappa,
                        double *out) const;

    GpParams params_;
    size_t dim_ = 0;           ///< feature size
    std::vector<double> x_;    ///< training rows, row-major n x dim_
    double y_mean_ = 0.0;
    std::vector<double> alpha_; ///< K^-1 (y - mean)
    std::unique_ptr<Cholesky> chol_;
};

namespace detail {

/** Two doubles around std::exp(x); see expBracket(). */
struct ExpBracket
{
    double lo;
    double hi;
};

/**
 * lo <= std::exp(x) <= hi for every x <= 0, read from a table of
 * std::exp on a 1/64 grid over [-48, 0] whose low entries are scaled
 * down and high entries up by a relative 2^-40; below -48 the bracket
 * is [0, exp(-48) (1 + 2^-40)]. NaN and positive x give a NaN pair.
 * This is the table lcbLowerBounds() reads.
 */
ExpBracket expBracket(double x);

} // namespace detail

} // namespace dosa

#endif // DOSA_GP_GAUSSIAN_PROCESS_HH
