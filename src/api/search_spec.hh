/**
 * @file
 * SearchSpec: the one self-contained description of a search run
 * consumed by the `src/api` facade — workload, objective mode, a
 * unified budget (sample cap + wall-clock deadline), seed/jobs/scorer
 * knobs and a loosely-typed per-algorithm option bag.
 *
 * Every searcher (`Search::algorithms()`) runs from the
 * same spec shape, so benches and services can sweep algorithms under
 * one budget without per-algorithm config plumbing.
 */

#ifndef DOSA_API_SEARCH_SPEC_HH
#define DOSA_API_SEARCH_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "arch/hardware_config.hh"
#include "core/objective.hh"
#include "model/reference.hh"
#include "workload/layer.hh"

namespace dosa {

/**
 * Unified search budget, shared by every algorithm.
 *
 * Both limits are enforced cooperatively by the `SearchControl` the
 * driver installs; searchers poll at their natural work boundaries
 * (one descent step, one sampled design).
 *
 * `max_samples` plays two roles. It seeds per-algorithm defaults —
 * an adapter whose natural-length option (e.g. `total_samples`,
 * `steps_per_start`, `mappings_per_hw`) is absent derives it from
 * the cap, which is how "same sample budget" comparisons are
 * expressed and how the cap bounds *work* for every algorithm. It
 * is also a hard cap on recorded samples: the trace never exceeds
 * it. Note that for the parallel searchers ("dosa", "random") an
 * explicit natural-length option larger than the cap means the
 * extra samples are still computed and only the trace is truncated
 * — leave the length option unset (budget-derived) to bound the
 * compute itself.
 *
 * `deadline_s` stops compute at the next poll; samples computed
 * before it expired are still recorded, so a timed-out run returns
 * the best design found so far.
 */
struct SearchBudget
{
    /** Hard cap on recorded samples (0 = the algorithm's natural length). */
    int max_samples = 0;
    /** Wall-clock deadline in seconds (0 = none). */
    double deadline_s = 0.0;
};

/**
 * Loosely-typed per-algorithm numeric options. Keys are flat names
 * (`start_points`, `mappings_per_hw`, ...); each searcher
 * declares its set, with a closed range per key, in
 * `Searcher::options()`. `validateSpec` rejects an unknown key, so
 * typos cannot silently fall back to defaults, and a value outside
 * its key's range (NaN included), so a validated bag never holds a
 * count, flag or enum value that would crash the run or leave the
 * range of `int`. All values are doubles; integer and boolean
 * options are stored exactly (counts are far below 2^53), and
 * enum-valued options (e.g. the DOSA `strategy`) store the
 * enumerator value.
 */
class OptionBag
{
  public:
    /** Set (or overwrite) an option; returns *this for chaining. */
    OptionBag &
    set(const std::string &key, double value)
    {
        values_[key] = value;
        return *this;
    }

    /** True when `key` was explicitly set. */
    bool has(std::string_view key) const
    {
        return values_.find(key) != values_.end();
    }

    /** Value of `key`, or `fallback` when absent. */
    double
    get(std::string_view key, double fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /** Integer value of `key`, or `fallback` when absent. */
    int64_t
    getInt(std::string_view key, int64_t fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end()
                ? fallback
                : static_cast<int64_t>(it->second);
    }

    /** All explicitly-set keys, in sorted order. */
    std::vector<std::string>
    keys() const
    {
        std::vector<std::string> out;
        out.reserve(values_.size());
        for (const auto &[key, value] : values_) {
            (void)value;
            out.push_back(key);
        }
        return out;
    }

  private:
    std::map<std::string, double, std::less<>> values_;
};

/**
 * Everything `runSearch` needs to run any algorithm:
 * the public entry-point configuration of the search subsystem.
 */
struct SearchSpec
{
    /** Searcher name: "dosa", "random", "mapper" or "bayesopt". */
    std::string algorithm = "dosa";

    /** Unique layers of the target network (with repeat counts). */
    std::vector<Layer> workload;

    /**
     * Alternative to `workload`: the name of a registered workload
     * (`Workloads::find`). `runSearch` resolves the name into the
     * registered layer list before dispatch; setting both the name
     * and an explicit layer list is a validation error, as is a name
     * the registry does not know. Names travel over the wire
     * (spec_json), so a service client can request a search on
     * "llm_decode_7b" without shipping its layers.
     */
    std::string workload_name;

    /**
     * Objective-level knobs (frozen PE array, area budget, layer
     * weights, differentiable latency model). Consumed by the "dosa"
     * searcher; sample-based baselines ignore it.
     */
    ObjectiveMode mode;

    /** Unified sample/wall-clock budget. */
    SearchBudget budget;

    /** Base RNG seed (split into per-work-unit streams). */
    uint64_t seed = 1;

    /** Worker threads; results are bit-identical for any value. */
    int jobs = 1;

    /**
     * Optional concrete-design latency scorer; every searcher calls
     * it once per (layer, mapping) it scores. Empty =
     * reference-model latency.
     */
    LatencyScorer scorer;

    /**
     * Fixed target hardware for the "mapper" algorithm (the other
     * algorithms search the hardware space and ignore it).
     */
    HardwareConfig fixed_hw;

    /** Per-algorithm options (see each searcher's `options()`). */
    OptionBag options;
};

} // namespace dosa

#endif // DOSA_API_SEARCH_SPEC_HH
