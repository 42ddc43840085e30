/**
 * @file
 * Divisor arithmetic used by mapping construction and rounding.
 *
 * Tiling factors of a loop dimension must multiply exactly to the problem
 * size, so every factor manipulation in the mapspace reduces to divisor
 * queries on (usually small) integers. The same few dozen dimension
 * sizes recur across millions of mapping evaluations, so each thread
 * keeps its own memo of divisor lists: a lookup takes no lock and
 * writes nothing another thread reads, which is what lets the parallel
 * searchers scale.
 */

#ifndef DOSA_UTIL_DIVISORS_HH
#define DOSA_UTIL_DIVISORS_HH

#include <cstdint>
#include <vector>

namespace dosa {

class Rng;

/**
 * Return the sorted list of positive divisors of n (n >= 1), from the
 * calling thread's memo. The reference stays valid, and the list
 * unchanged, until the calling thread exits; do not hand it to another
 * thread that may outlive this one.
 */
const std::vector<int64_t> &divisorsOf(int64_t n);

/**
 * Return the divisor of n closest to target.
 *
 * Ties are broken toward the smaller divisor, matching the paper's
 * "round to the nearest divisor" step (Section 5.3.2).
 */
int64_t nearestDivisor(int64_t n, double target);

/**
 * Return the divisor of n closest to target among divisors <= cap.
 * cap must be >= 1.
 */
int64_t nearestDivisorAtMost(int64_t n, double target, int64_t cap);

/** Largest divisor of n that is <= cap (cap >= 1). */
int64_t largestDivisorAtMost(int64_t n, int64_t cap);

/**
 * Split n into `parts` integer factors whose product is exactly n,
 * drawn uniformly-ish at random by repeatedly sampling a divisor of the
 * remaining quota. Used by random-mapping generation.
 */
std::vector<int64_t> randomFactorSplit(int64_t n, int parts, Rng &rng);

/**
 * Divisor-quota chain over one dimension size: rounding walks a chain
 * remaining -> remaining / f1 -> ... where every intermediate value
 * divides the original n. Since divisors(remaining) is a subset of
 * divisors(n), the whole chain is served from the single divisor list
 * of n, looked up once at construction — one memo probe per dimension
 * instead of one per factor. A quota borrows the constructing thread's
 * list, so it must stay on that thread.
 */
class DivisorQuota
{
  public:
    /** Start a chain at n (n >= 1). */
    explicit DivisorQuota(int64_t n);

    /** Quota still to be factored. */
    int64_t remaining() const { return remaining_; }

    /**
     * Take the divisor of remaining() nearest to `target` (ties to
     * the smaller, matching nearestDivisor) and divide it out.
     */
    int64_t take(double target);

    /** As take(), restricted to divisors <= cap (cap >= 1). */
    int64_t takeAtMost(double target, int64_t cap);

  private:
    /** Divisor list of the original n (never mutated). */
    const std::vector<int64_t> *divs_;
    int64_t remaining_;
};

} // namespace dosa

#endif // DOSA_UTIL_DIVISORS_HH
