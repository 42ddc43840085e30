/**
 * @file
 * Deterministic random-number utilities used across the DSE stack.
 *
 * Every stochastic component in the repository (random search, start-point
 * generation, dataset synthesis, MLP initialization) draws from an Rng
 * seeded explicitly, so all experiments are reproducible bit-for-bit.
 */

#ifndef DOSA_UTIL_RNG_HH
#define DOSA_UTIL_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace dosa {

/**
 * MT19937-64 with std::mt19937_64's parameters, seeding and tempering:
 * every draw equals the standard engine's for the same seed.
 *
 * The twist picks its matrix term with a mask, `(0 - (y & 1)) & a`.
 * libstdc++ writes the same step as `(y & 1) ? a : 0`, which GCC 12
 * compiles to a branch on a random bit; the masked form has no branch
 * to mispredict and runs the refill about 3x faster.
 *
 * A UniformRandomBitGenerator with min 0 and max 2^64 - 1, so the
 * std:: distributions draw exactly as they do over std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** std::mt19937_64's seeding: the Knuth-style linear recurrence. */
    explicit Mt19937_64(uint64_t seed);

    result_type
    operator()()
    {
        if (pos_ >= kStateSize)
            twist();
        uint64_t z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

  private:
    static constexpr size_t kStateSize = 312;

    /** Refill the whole state block (the generator's recurrence). */
    void twist();

    std::array<uint64_t, kStateSize> state_;
    size_t pos_ = kStateSize;
};

/**
 * A seeded pseudo-random generator with convenience draws.
 *
 * Owns its MT19937-64 engine (Mt19937_64 above) and provides the
 * handful of distributions the DSE code needs. Copyable; copies
 * continue the stream independently.
 */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /**
     * Uniform integer in [lo, hi] inclusive. Inline: a random mapping
     * attempt makes 26 of these draws.
     */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /**
     * Standard normal draw scaled by stddev. `stddev` 0 returns
     * `mean` and consumes the draws a positive one would; a negative
     * or NaN `stddev` panics.
     */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /** Log-uniform real in [lo, hi); requires 0 < lo <= hi. */
    double logUniform(double lo, double hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Pick a uniformly random element of a non-empty vector. */
    template <class T>
    const T &
    choice(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(uniformInt(0,
                static_cast<int64_t>(v.size()) - 1))];
    }

    /** Fisher-Yates shuffle. */
    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0,
                    static_cast<int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng fork();

    /**
     * Derive the `stream`-th independent generator of a seed family
     * without consuming any parent state (a pure function of the
     * pair). Parallel runtimes split one user seed into per-task
     * streams this way, so task i draws the same sequence regardless
     * of which thread runs it or in what order — the determinism
     * contract of ThreadPool (src/exec).
     */
    static Rng stream(uint64_t seed, uint64_t stream_id);

    /** Access the raw engine (for std:: distributions). */
    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

} // namespace dosa

#endif // DOSA_UTIL_RNG_HH
