/**
 * @file
 * Adam optimizer over a flat parameter vector (Section 6.1: "the
 * specific descent algorithm DOSA uses is Adam").
 */

#ifndef DOSA_CORE_ADAM_HH
#define DOSA_CORE_ADAM_HH

#include <cstddef>
#include <span>
#include <vector>

namespace dosa {

/** Standard Adam with bias correction. */
class Adam
{
  public:
    /** @param dim parameter count, @param lr learning rate. */
    Adam(size_t dim, double lr = 0.05, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);

    /**
     * Apply one descent step in place; sizes must match dim. The
     * gradient is read through a span so callers (e.g. the arena
     * ObjectiveEngine) can pass reused buffers without copies.
     * @param lr_scale multiplies the base learning rate (schedules).
     */
    void step(std::vector<double> &params, std::span<const double> grad,
              double lr_scale = 1.0);

    /** Vector-gradient convenience overload. */
    void
    step(std::vector<double> &params, const std::vector<double> &grad,
         double lr_scale = 1.0)
    {
        step(params, std::span<const double>(grad), lr_scale);
    }

    /** Reset moments (used after rounding projections). */
    void reset();

    size_t dim() const { return m_.size(); }

  private:
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    int t_ = 0;
    std::vector<double> m_;
    std::vector<double> v_;
};

} // namespace dosa

#endif // DOSA_CORE_ADAM_HH
