/**
 * @file
 * Spearman/Pearson correlation, MAPE, geomean and summary helpers.
 */
#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/logging.hh"

namespace dosa {

Summary
Summary::of(std::vector<double> v)
{
    Summary s;
    if (v.empty())
        return s;
    s.n = v.size();
    s.mean = dosa::mean(v);
    std::sort(v.begin(), v.end());
    s.min = v.front();
    s.max = v.back();
    s.p50 = percentile(v, 50.0);
    s.p90 = percentile(v, 90.0);
    s.p99 = percentile(v, 99.0);
    return s;
}

std::string
Summary::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
            "n=%zu min=%.6g mean=%.6g p50=%.6g p90=%.6g p99=%.6g "
            "max=%.6g",
            n, min, mean, p50, p90, p99, max);
    return buf;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
stddev(const std::vector<double> &v)
{
    if (v.size() < 2)
        return 0.0;
    double m = mean(v);
    double acc = 0.0;
    for (double x : v)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v) {
        if (x <= 0.0)
            panic("geomean: non-positive value");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(v.size()));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n % 2 == 1)
        return v[n / 2];
    return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(idx));
    size_t hi = static_cast<size_t>(std::ceil(idx));
    double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size())
        panic("pearson: size mismatch");
    size_t n = x.size();
    if (n < 2)
        return 0.0;
    double mx = mean(x), my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double dx = x[i] - mx, dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<double>
ranks(const std::vector<double> &v)
{
    size_t n = v.size();
    std::vector<size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n, 0.0);
    size_t i = 0;
    while (i < n) {
        size_t j = i;
        while (j + 1 < n && v[idx[j + 1]] == v[idx[i]])
            ++j;
        // Average rank for the tie group [i, j].
        double avg = (static_cast<double>(i) + static_cast<double>(j)) /
                     2.0 + 1.0;
        for (size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

double
spearman(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size())
        panic("spearman: size mismatch");
    return pearson(ranks(x), ranks(y));
}

double
meanAbsPercentError(const std::vector<double> &pred,
                    const std::vector<double> &ref)
{
    if (pred.size() != ref.size())
        panic("meanAbsPercentError: size mismatch");
    double acc = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (ref[i] == 0.0)
            continue;
        acc += std::abs(pred[i] - ref[i]) / std::abs(ref[i]);
        ++n;
    }
    return n == 0 ? 0.0 : 100.0 * acc / static_cast<double>(n);
}

double
maxAbsPercentError(const std::vector<double> &pred,
                   const std::vector<double> &ref)
{
    if (pred.size() != ref.size())
        panic("maxAbsPercentError: size mismatch");
    double worst = 0.0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (ref[i] == 0.0)
            continue;
        worst = std::max(worst,
                100.0 * std::abs(pred[i] - ref[i]) / std::abs(ref[i]));
    }
    return worst;
}

double
fractionWithinPercent(const std::vector<double> &pred,
                      const std::vector<double> &ref, double pct)
{
    if (pred.size() != ref.size())
        panic("fractionWithinPercent: size mismatch");
    size_t ok = 0, n = 0;
    for (size_t i = 0; i < pred.size(); ++i) {
        if (ref[i] == 0.0)
            continue;
        ++n;
        double err = 100.0 * std::abs(pred[i] - ref[i]) / std::abs(ref[i]);
        if (err <= pct)
            ++ok;
    }
    return n == 0 ? 1.0 : static_cast<double>(ok) / static_cast<double>(n);
}

} // namespace dosa
