/**
 * @file
 * Statistics used to report experiment results: Spearman/Pearson
 * correlation (Figs. 10-11), mean absolute percentage error (Fig. 4),
 * geometric means (Sections 6.3-6.4) and summary helpers.
 */

#ifndef DOSA_STATS_STATS_HH
#define DOSA_STATS_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace dosa {

/**
 * Order-statistics summary of one sample set — the vocabulary the
 * search service reports per-endpoint processing times in (request
 * latency min/avg/max plus tail percentiles), usable by any component
 * that accumulates durations or scores.
 */
struct Summary
{
    size_t n = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    /** Summarize `v` (all zeros for empty input). */
    static Summary of(std::vector<double> v);

    /** One-line "n=... min=... mean=... p99=... max=..." summary. */
    std::string str() const;
};

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &v);

/** Sample standard deviation (n-1 denominator); 0 for size < 2. */
double stddev(const std::vector<double> &v);

/** Geometric mean of positive values; 0 for empty input. */
double geomean(const std::vector<double> &v);

/** Median (average of middle two for even sizes); 0 for empty input. */
double median(std::vector<double> v);

/** p-th percentile (0..100), linear interpolation; 0 for empty input. */
double percentile(std::vector<double> v, double p);

/** Pearson correlation coefficient; 0 if either side is constant. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Spearman rank correlation: Pearson correlation of the ranks, with
 * average ranks for ties. This is the accuracy metric the paper uses
 * for latency predictors (Section 6.5.2).
 */
double spearman(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Mean absolute percentage error of predictions vs. reference,
 * mean(|pred - ref| / |ref|) * 100. Reference entries of 0 are skipped.
 */
double meanAbsPercentError(const std::vector<double> &pred,
                           const std::vector<double> &ref);

/** Maximum absolute percentage error (same convention as above). */
double maxAbsPercentError(const std::vector<double> &pred,
                          const std::vector<double> &ref);

/**
 * Fraction (0..1) of points whose absolute percentage error is within
 * `pct` percent. Used for the "98.3% of results within 1%" claim.
 */
double fractionWithinPercent(const std::vector<double> &pred,
                             const std::vector<double> &ref, double pct);

/** Ranks with average-tie handling; ranks start at 1. */
std::vector<double> ranks(const std::vector<double> &v);

} // namespace dosa

#endif // DOSA_STATS_STATS_HH
