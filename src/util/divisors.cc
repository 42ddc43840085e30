/**
 * @file
 * Per-thread memoized divisor queries for mapping construction and
 * rounding.
 */
#include "util/divisors.hh"

#include <cmath>
#include <unordered_map>

#include "util/logging.hh"
#include "util/rng.hh"

namespace dosa {

namespace {

std::vector<int64_t>
computeDivisors(int64_t n)
{
    std::vector<int64_t> lo, hi;
    // d <= n / d, not d * d <= n: the product overflows as n nears
    // INT64_MAX.
    for (int64_t d = 1; d <= n / d; ++d) {
        if (n % d == 0) {
            lo.push_back(d);
            if (d != n / d)
                hi.push_back(n / d);
        }
    }
    lo.insert(lo.end(), hi.rbegin(), hi.rend());
    return lo;
}

} // namespace

const std::vector<int64_t> &
divisorsOf(int64_t n)
{
    if (n < 1)
        panic("divisorsOf: n must be >= 1");
    // One memo per thread: a lookup takes no lock and writes no shared
    // cache line. A fig7 run makes tens of millions of lookups over a
    // few dozen keys, so each thread rebuilds its handful of lists
    // almost for free. Entries are never erased and unordered_map
    // never moves its elements, so a returned reference stays valid
    // until the calling thread exits.
    thread_local std::unordered_map<int64_t, std::vector<int64_t>> memo;
    auto it = memo.find(n);
    if (it == memo.end())
        it = memo.emplace(n, computeDivisors(n)).first;
    return it->second;
}

int64_t
nearestDivisor(int64_t n, double target)
{
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : divs) {
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    return best;
}

int64_t
nearestDivisorAtMost(int64_t n, double target, int64_t cap)
{
    if (cap < 1)
        panic("nearestDivisorAtMost: cap must be >= 1");
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : divs) {
        if (d > cap)
            break;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    return best;
}

int64_t
largestDivisorAtMost(int64_t n, int64_t cap)
{
    if (cap < 1)
        panic("largestDivisorAtMost: cap must be >= 1");
    const auto &divs = divisorsOf(n);
    int64_t best = 1;
    for (int64_t d : divs) {
        if (d > cap)
            break;
        best = d;
    }
    return best;
}

DivisorQuota::DivisorQuota(int64_t n)
    : divs_(&divisorsOf(n)), remaining_(n)
{
}

int64_t
DivisorQuota::take(double target)
{
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : *divs_) {
        if (remaining_ % d != 0)
            continue;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    remaining_ /= best;
    return best;
}

int64_t
DivisorQuota::takeAtMost(double target, int64_t cap)
{
    if (cap < 1)
        panic("DivisorQuota::takeAtMost: cap must be >= 1");
    int64_t best = 1;
    double best_err = std::abs(target - 1.0);
    for (int64_t d : *divs_) {
        if (d > cap)
            break;
        if (remaining_ % d != 0)
            continue;
        double err = std::abs(target - static_cast<double>(d));
        if (err < best_err) {
            best_err = err;
            best = d;
        }
    }
    remaining_ /= best;
    return best;
}

std::vector<int64_t>
randomFactorSplit(int64_t n, int parts, Rng &rng)
{
    std::vector<int64_t> out(static_cast<size_t>(parts), 1);
    int64_t remaining = n;
    for (int i = 0; i < parts - 1; ++i) {
        const auto &divs = divisorsOf(remaining);
        int64_t pick = divs[static_cast<size_t>(rng.uniformInt(0,
                static_cast<int64_t>(divs.size()) - 1))];
        out[static_cast<size_t>(i)] = pick;
        remaining /= pick;
    }
    out[static_cast<size_t>(parts - 1)] = remaining;
    return out;
}

} // namespace dosa
