/**
 * @file
 * Two-loop Bayesian-optimization co-search baseline (Section 6.1,
 * hyperparameters after Spotlight).
 *
 * A Gaussian process is trained on per-layer (hardware, mapping)
 * features -> log per-layer EDP observations. Each outer round proposes
 * candidate hardware designs, selects the most promising mapping per
 * layer by posterior LCB from a candidate pool, evaluates the chosen
 * design for real, and periodically refits the GP.
 */

#ifndef DOSA_SEARCH_BAYES_OPT_HH
#define DOSA_SEARCH_BAYES_OPT_HH

#include <vector>

#include "core/objective.hh"
#include "search/search_common.hh"

namespace dosa {

/** Configuration of the BO co-search. */
struct BayesOptConfig
{
    int warmup_samples = 40;     ///< random samples before the GP kicks in
    int total_samples = 400;     ///< full-network evaluation budget
    int hw_candidates = 8;       ///< hardware proposals per round
    int map_candidates = 24;     ///< mapping proposals per layer per hw
    int refit_every = 10;        ///< rounds between GP refits
    int max_train_points = 600;  ///< GP training-set cap (O(n^3) fit)
    double lcb_kappa = 1.0;
    uint64_t seed = 1;
    /**
     * Worker threads scoring the per-round candidate pool (each
     * (hardware, layer) pool slice draws from its own RNG stream).
     * Results are bit-identical for any value.
     */
    int jobs = 1;
    /**
     * Optional predicted-latency scorer for the evaluated designs
     * (and the GP's log-EDP training targets), called once per
     * (layer, mapping). Empty = reference-model latency (unchanged
     * behavior).
     */
    LatencyScorer scorer;
    /**
     * Multi-objective axes. When a second axis is enabled
     * (`pareto.active()`), the search also maintains the Pareto front
     * over the enabled axes in `SearchResult::frontier`; otherwise
     * the single-objective path runs bit-identically to before.
     */
    ParetoObjectives pareto;
};

namespace detail {

/**
 * Canonical BO co-search over the unique layers of a network, behind
 * the "bayesopt" searcher; runs under the driver's `control`. Call
 * `runSearch` instead.
 */
SearchResult bayesOptSearchImpl(const std::vector<Layer> &layers,
                                const BayesOptConfig &cfg,
                                SearchControl &control);

} // namespace detail

} // namespace dosa

#endif // DOSA_SEARCH_BAYES_OPT_HH
