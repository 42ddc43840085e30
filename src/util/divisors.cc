/**
 * @file
 * Per-thread memoized divisor lattices for mapping construction and
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

DivisorLattice::DivisorLattice(int64_t n)
    : divs_(computeDivisors(n)), rows_(divs_.size())
{
}

const std::vector<uint32_t> &
DivisorLattice::row(size_t i)
{
    std::vector<uint32_t> &out = rows_[i];
    if (out.empty()) {
        const int64_t m = divs_[i];
        for (size_t j = 0; j <= i; ++j)
            if (m % divs_[j] == 0)
                out.push_back(static_cast<uint32_t>(j));
    }
    return out;
}

DivisorLattice &
divisorLattice(int64_t n)
{
    if (n < 1)
        panic("divisorLattice: n must be >= 1");
    // One memo per thread: a lookup takes no lock and writes no shared
    // cache line. A fig7 run makes tens of millions of lookups over a
    // few dozen keys, so each thread rebuilds its handful of lattices
    // almost for free. Entries are never erased and unordered_map
    // never moves its elements, so a returned reference stays valid
    // until the calling thread exits.
    thread_local std::unordered_map<int64_t, DivisorLattice> memo;
    return memo.try_emplace(n, n).first->second;
}

const std::vector<int64_t> &
divisorsOf(int64_t n)
{
    return divisorLattice(n).divisors();
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

void
randomFactorSplit(DivisorLattice &lattice, size_t row,
                  std::span<int64_t> out, Rng &rng)
{
    if (out.empty())
        panic("randomFactorSplit: need at least one part");
    const std::vector<int64_t> &divs = lattice.divisors();
    for (size_t i = 0; i + 1 < out.size(); ++i) {
        const std::vector<uint32_t> &sub = lattice.row(row);
        const size_t k = static_cast<size_t>(rng.uniformInt(0,
                static_cast<int64_t>(sub.size()) - 1));
        out[i] = divs[sub[k]];
        row = sub[sub.size() - 1 - k]; // the quotient's row
    }
    out.back() = divs[row];
}

} // namespace dosa
