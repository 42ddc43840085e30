/**
 * @file
 * Adam update rule over a flat parameter vector.
 */
#include "core/adam.hh"

#include <cmath>

#include "util/logging.hh"

namespace dosa {

Adam::Adam(size_t dim, double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      m_(dim, 0.0), v_(dim, 0.0)
{
}

void
Adam::step(std::vector<double> &params, std::span<const double> grad,
           double lr_scale)
{
    if (params.size() != m_.size() || grad.size() != m_.size())
        panic("Adam::step: size mismatch");
    ++t_;
    for (size_t i = 0; i < m_.size(); ++i) {
        double g = grad[i];
        m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * g;
        v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * g * g;
    }
    double bc1 = 1.0 - std::pow(beta1_, t_);
    double bc2 = 1.0 - std::pow(beta2_, t_);
    double lr = lr_ * lr_scale;
    for (size_t i = 0; i < params.size(); ++i) {
        double mhat = m_[i] / bc1;
        double vhat = v_[i] / bc2;
        params[i] -= lr * mhat / (std::sqrt(vhat) + eps_);
    }
}

void
Adam::reset()
{
    t_ = 0;
    std::fill(m_.begin(), m_.end(), 0.0);
    std::fill(v_.begin(), v_.end(), 0.0);
}

} // namespace dosa
