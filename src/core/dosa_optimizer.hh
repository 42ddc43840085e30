/**
 * @file
 * The DOSA one-loop co-search driver (Sections 3.2 and 5).
 *
 * Flow per start point: sample a random hardware design, seed with
 * CoSA-substitute mappings (rejecting starts predicted >10x worse than
 * the best start so far, Section 5.3.1), then run Adam on the
 * differentiable objective, rounding to valid integer mappings on a
 * fixed schedule (Section 5.3.2), re-selecting loop orderings per the
 * chosen strategy, inferring minimal hardware from the mappings and
 * scoring the concrete design on the reference model.
 */

#ifndef DOSA_CORE_DOSA_OPTIMIZER_HH
#define DOSA_CORE_DOSA_OPTIMIZER_HH

#include <vector>

#include "core/objective.hh"
#include "model/reference.hh"
#include "search/search_common.hh"

namespace dosa {

/** DOSA run configuration (defaults follow Section 6.1). */
struct DosaConfig
{
    int start_points = 7;
    int steps_per_start = 1490;
    int round_every = 500;
    /**
     * Adam learning rate on the log-space factors. Within each
     * rounding segment the effective rate decays geometrically from
     * lr down to lr * lr_decay: the early large steps explore
     * (log-space steps act multiplicatively on the factors), the
     * late small steps settle near the divisor grid so rounding does
     * not destroy the solution.
     */
    double lr = 0.02;
    double lr_decay = 0.3;
    OrderStrategy strategy = OrderStrategy::Iterate;
    ObjectiveMode mode;
    uint64_t seed = 1;
    /**
     * Worker threads for the start points (independent given per-start
     * RNG streams). Results are bit-identical for any value; 1 runs
     * fully serial on the calling thread.
     */
    int jobs = 1;
    /** Reject starts predicted worse than reject_factor x best start. */
    double reject_factor = 10.0;
    int max_start_tries = 5;
    /** Optional predicted-latency scorer for concrete designs. */
    LatencyScorer scorer;

    // ---- Ablation toggles (see bench_ablation): both default on.
    /** Project iterates onto the feasible divisor region each step. */
    bool project_feasible = true;
    /** Restart each segment from the best rounded design so far. */
    bool restart_from_best = true;
};

namespace detail {

/**
 * Canonical DOSA implementation behind the "dosa" searcher; runs
 * under the driver's `control`. Call `runSearch` instead.
 */
SearchReport dosaSearchImpl(const std::vector<Layer> &layers,
                          const DosaConfig &cfg, SearchControl &control);

} // namespace detail

/**
 * Greedy per-layer uniform-ordering selection on concrete mappings
 * (the Iterate strategy of Section 5.2.1): coordinate-descent on the
 * network EDP, two passes.
 */
std::vector<OrderVec> selectOrders(const std::vector<Layer> &layers,
                                   std::vector<Mapping> &mappings,
                                   const HardwareConfig &hw,
                                   const LatencyScorer &scorer = {});

/**
 * Round the continuous variables of every layer and score the concrete
 * design on the reference model with inferred (or PE-frozen) hardware.
 */
struct RoundedDesign
{
    std::vector<Mapping> mappings;
    HardwareConfig hw;
    NetworkEval eval;
};

RoundedDesign roundAndScore(const std::vector<Layer> &layers,
                            const std::vector<double> &x,
                            const std::vector<OrderVec> &orders,
                            const ObjectiveMode &mode,
                            const LatencyScorer &scorer = {});

} // namespace dosa

#endif // DOSA_CORE_DOSA_OPTIMIZER_HH
