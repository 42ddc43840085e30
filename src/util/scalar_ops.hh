/**
 * @file
 * double overloads mirroring the ad::Var math vocabulary, so templated
 * numeric code (the analytical model, the MLP forward pass) compiles
 * unchanged for plain doubles and autodiff variables.
 */

#ifndef DOSA_UTIL_SCALAR_OPS_HH
#define DOSA_UTIL_SCALAR_OPS_HH

#include <algorithm>

namespace dosa {

/** max(x, 0), the hinge used by penalties and first-fill clamps. */
inline double
relu(double x)
{
    return x > 0.0 ? x : 0.0;
}

/** 1 + clamp(f - 1, 0, 1) * (outer - 1), Eq 6's gated refetch candidate. */
inline double
ramp(double f, double outer)
{
    double gate = std::min(std::max(f - 1.0, 0.0), 1.0);
    return 1.0 + gate * (outer - 1.0);
}

} // namespace dosa

#endif // DOSA_UTIL_SCALAR_OPS_HH
