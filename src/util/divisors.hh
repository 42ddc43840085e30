/**
 * @file
 * Divisor arithmetic used by mapping construction and rounding.
 *
 * Tiling factors of a loop dimension must multiply exactly to the problem
 * size, so every factor manipulation in the mapspace reduces to divisor
 * queries on (usually small) integers. The same few dozen dimension
 * sizes recur across millions of mapping evaluations, so each thread
 * keeps its own memo with one DivisorLattice per size: a lookup takes
 * no lock and writes nothing another thread reads, which is what lets
 * the parallel searchers scale.
 */

#ifndef DOSA_UTIL_DIVISORS_HH
#define DOSA_UTIL_DIVISORS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace dosa {

class Rng;

/**
 * The divisors of one n (n >= 1) and, per divisor, its own divisors.
 *
 * Row i lists the divisors of divisors()[i] as ascending indices into
 * divisors(). Divisors pair up around their product, so a row read
 * back to front lists the quotients: for a row of length L, entry
 * L - 1 - k is the index of divisors()[i] / divisors()[row[k]]. A walk
 * from a row to a quotient's row therefore factors any divisor of n
 * without another memo probe. Rows are built on first use, so a
 * lattice costs what its walks visit, never the whole
 * sum-of-divisor-counts up front.
 */
class DivisorLattice
{
  public:
    /** Compute n's sorted divisor list; rows stay unbuilt. */
    explicit DivisorLattice(int64_t n);

    /** Sorted positive divisors of n. */
    const std::vector<int64_t> &divisors() const { return divs_; }

    /** Row i: the divisors of divisors()[i], as ascending indices. */
    const std::vector<uint32_t> &row(size_t i);

  private:
    std::vector<int64_t> divs_;
    /** Per divisor; empty until built (a built row holds index 0). */
    std::vector<std::vector<uint32_t>> rows_;
};

/**
 * The lattice of n (n >= 1) from the calling thread's memo. The
 * reference stays valid until the calling thread exits; do not hand
 * it to another thread that may outlive this one, or that may use it
 * while this one does.
 */
DivisorLattice &divisorLattice(int64_t n);

/**
 * Return the sorted list of positive divisors of n (n >= 1): the
 * divisors() of its memoized lattice, under the same lifetime rule.
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
 * Split m = lattice.divisors()[row] into out.size() >= 1 integer
 * factors whose product is exactly m, drawn uniformly-ish at random:
 * each factor but the last is a uniform pick among the divisors of the
 * quota still left, and the last takes what remains. Used by
 * random-mapping generation; it walks the lattice and allocates
 * nothing once the visited rows are built.
 */
void randomFactorSplit(DivisorLattice &lattice, size_t row,
                       std::span<int64_t> out, Rng &rng);

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
