/**
 * @file
 * Random-search co-design baseline (Section 6.1).
 *
 * Samples hardware design points and, for each, random valid mappings
 * per layer; the best mapping per layer (by per-layer EDP) defines the
 * design's performance. Also provides the fixed-hardware random mapper
 * used by Fig. 8 (random-pruned Timeloop mapper stand-in) and Fig. 9.
 */

#ifndef DOSA_SEARCH_RANDOM_SEARCH_HH
#define DOSA_SEARCH_RANDOM_SEARCH_HH

#include <vector>

#include "core/objective.hh"
#include "search/search_common.hh"

namespace dosa {

/** Configuration of the random co-search. */
struct RandomSearchConfig
{
    int hw_designs = 10;        ///< hardware points to sample
    int mappings_per_hw = 1000; ///< mapping samples per hardware point
    uint64_t seed = 1;
    /**
     * Worker threads fanning out over hardware design points (each
     * design draws from its own RNG stream). Results are bit-identical
     * for any value.
     */
    int jobs = 1;
    /**
     * Optional predicted-latency scorer for sampled designs, called
     * once per (layer, mapping). Empty = reference-model latency
     * (unchanged behavior).
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

/** Configuration of the fixed-hardware random mapper. */
struct MapperConfig
{
    int samples = 1000; ///< mapping samples per layer
    uint64_t seed = 1;
    /**
     * Worker threads fanning out over samples (each sample draws from
     * its own RNG stream). Results are bit-identical for any value.
     */
    int jobs = 1;
    /**
     * Optional predicted-latency scorer, called once per (layer,
     * mapping). Empty = reference-model latency.
     */
    LatencyScorer scorer;
    /** Multi-objective axes (see RandomSearchConfig). */
    ParetoObjectives pareto;
};

namespace detail {

/**
 * Canonical random hardware+mapping co-search behind the "random"
 * searcher; runs under the driver's `control`. One sample = one
 * mapping per layer on one hardware design. Call `runSearch` instead.
 */
SearchResult randomSearchImpl(const std::vector<Layer> &layers,
                              const RandomSearchConfig &cfg,
                              SearchControl &control);

/**
 * Canonical fixed-hardware mapper behind the "mapper" searcher; runs
 * under the driver's `control`. Draws `cfg.samples` random valid
 * mappings per layer on `hw` and keeps the best mapping per layer by
 * per-layer EDP. Call `runSearch` instead.
 */
SearchResult randomMapperSearchImpl(const std::vector<Layer> &layers,
                                    const HardwareConfig &hw,
                                    const MapperConfig &cfg,
                                    SearchControl &control);

} // namespace detail

} // namespace dosa

#endif // DOSA_SEARCH_RANDOM_SEARCH_HH
