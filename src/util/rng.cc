/**
 * @file
 * Seeded random-number utilities for reproducible experiments.
 */
#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace dosa {

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kStateSize; ++i) {
        uint64_t x = state_[i - 1];
        state_[i] = (x ^ (x >> 62)) * 6364136223846793005ull + i;
    }
}

void
Mt19937_64::twist()
{
    constexpr size_t kShift = 156;
    constexpr uint64_t kUpper = ~uint64_t(0) << 31;
    constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ull;
    // Word k mixes the top 33 bits of x[k], the low 31 bits of
    // x[k + 1] and all of x[k + 156], indices mod 312.
    auto next = [](uint64_t hi, uint64_t lo, uint64_t far) {
        uint64_t y = (hi & kUpper) | (lo & ~kUpper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
    };
    size_t k = 0;
    for (; k < kStateSize - kShift; ++k)
        state_[k] = next(state_[k], state_[k + 1], state_[k + kShift]);
    for (; k < kStateSize - 1; ++k)
        state_[k] = next(state_[k], state_[k + 1],
                state_[k + kShift - kStateSize]);
    state_[k] = next(state_[k], state_[0], state_[kShift - 1]);
    pos_ = 0;
}

double
Rng::uniformReal(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    if (!(stddev >= 0.0))
        panic("Rng::gaussian: stddev must be >= 0");
    if (stddev == 0.0) {
        // std::normal_distribution requires stddev > 0. Its draw count
        // does not depend on its parameters, so a discarded unit draw
        // leaves the engine where any positive stddev would.
        std::normal_distribution<double>(mean, 1.0)(engine_);
        return mean;
    }
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

double
Rng::logUniform(double lo, double hi)
{
    double u = uniformReal(std::log(lo), std::log(hi));
    return std::exp(u);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

Rng
Rng::fork()
{
    // Draw two words so forked streams decorrelate from the parent.
    uint64_t a = engine_();
    uint64_t b = engine_();
    return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ull);
}

namespace {

/** splitmix64 finalizer: bijective, breaks up seed/stream structure. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Rng
Rng::stream(uint64_t seed, uint64_t stream_id)
{
    // Two mixing rounds so nearby (seed, stream) pairs land far apart
    // in the MT19937-64 seed space.
    return Rng(splitmix64(splitmix64(seed) ^ splitmix64(~stream_id)));
}

} // namespace dosa
