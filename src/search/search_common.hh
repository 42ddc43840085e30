/**
 * @file
 * Shared infrastructure for the DSE baselines: search traces, random
 * hardware sampling, capacity-respecting random mappings and the
 * feature encoding used by the learned surrogates.
 *
 * Sample-count convention (consistent across every searcher and with
 * the paper's Fig. 7 x-axis): one sample = one full-network model
 * evaluation, i.e. evaluating one mapping per unique layer on one
 * hardware configuration.
 */

#ifndef DOSA_SEARCH_SEARCH_COMMON_HH
#define DOSA_SEARCH_SEARCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "arch/hardware_config.hh"
#include "autodiff/var.hh"
#include "core/objective.hh"
#include "mapping/mapping.hh"
#include "util/rng.hh"
#include "workload/layer.hh"

namespace dosa {

/**
 * One point of a multi-objective frontier: the enabled-axis metrics
 * plus the concrete design behind them. Disabled axes carry 0 and do
 * not participate in domination.
 */
struct ParetoPoint
{
    double edp = 0.0;
    double area_mm2 = 0.0;
    double power_w = 0.0;
    /** 0-based trace index of the sample that entered the front. */
    size_t sample_index = 0;
    HardwareConfig hw;
    std::vector<Mapping> mappings;
};

/**
 * A frontier-entering sample produced inside one work unit, keyed by
 * its offset within the unit's sample span so the serial merge can
 * assign the global trace index. Units filter against their local
 * frontier history; `SearchResult::mergeOutcome` re-checks each
 * candidate against the global front, which by domination
 * transitivity reproduces the single-threaded event stream exactly.
 */
struct ParetoCandidate
{
    size_t sample_offset = 0;
    ParetoPoint point;
};

/**
 * Non-dominated set over the enabled axes, minimizing every axis.
 * Points are kept in insertion order — entries only ever append, and
 * strictly-dominated incumbents are erased order-preservingly — so
 * for a fixed merge order the frontier (and its event stream) is
 * byte-deterministic, serial == parallel under the `Rng::stream`
 * contract.
 *
 * Domination is weak-vs-strict asymmetric on purpose: a candidate
 * weakly dominated by an incumbent (<= on all enabled axes,
 * including exact ties) is rejected, while an incumbent is pruned
 * only when the entrant strictly dominates it (<= on all, < on at
 * least one). Duplicates therefore never enter, and an entrant never
 * erases a point it merely ties.
 */
class ParetoFront
{
  public:
    /** Select the axes that participate in domination. */
    void configure(const ParetoObjectives &axes) { axes_ = axes; }

    const ParetoObjectives &axes() const { return axes_; }

    /**
     * Cheap entry pre-check: would a sample with these metrics enter?
     * Matches `consider`'s accept test — callers use it to avoid
     * copying a design's mappings for a dominated sample.
     */
    bool
    wouldAccept(double edp, double area_mm2, double power_w) const
    {
        for (const ParetoPoint &p : points_)
            if (weaklyDominates(p.edp, p.area_mm2, p.power_w, edp,
                        area_mm2, power_w))
                return false;
        return true;
    }

    /**
     * Offer a point: reject if weakly dominated by an incumbent,
     * otherwise prune strictly-dominated incumbents and append.
     * Returns true when the point entered (it is then
     * `points().back()`).
     */
    bool
    consider(ParetoPoint point)
    {
        if (!wouldAccept(point.edp, point.area_mm2, point.power_w))
            return false;
        std::erase_if(points_, [&](const ParetoPoint &p) {
            return strictlyDominates(point.edp, point.area_mm2,
                    point.power_w, p.edp, p.area_mm2, p.power_w);
        });
        points_.push_back(std::move(point));
        return true;
    }

    /** Frontier points in insertion order. */
    const std::vector<ParetoPoint> &points() const { return points_; }

    size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

  private:
    /** a <= b on every enabled axis. */
    bool
    weaklyDominates(double ae, double aa, double ap, double be,
                    double ba, double bp) const
    {
        if (axes_.edp.enabled && ae > be)
            return false;
        if (axes_.area.enabled && aa > ba)
            return false;
        if (axes_.power.enabled && ap > bp)
            return false;
        return true;
    }

    /** a <= b on every enabled axis, < on at least one. */
    bool
    strictlyDominates(double ae, double aa, double ap, double be,
                      double ba, double bp) const
    {
        if (!weaklyDominates(ae, aa, ap, be, ba, bp))
            return false;
        return (axes_.edp.enabled && ae < be) ||
               (axes_.area.enabled && aa < ba) ||
               (axes_.power.enabled && ap < bp);
    }

    ParetoObjectives axes_;
    std::vector<ParetoPoint> points_;
};

/**
 * Cooperative run control shared between a search driver and the
 * searcher implementations. The `src/api` facade installs one per
 * `runSearch` call; the searchers thread it through
 * `SearchResult::record` (sample accounting + streaming callbacks)
 * and poll `stopRequested()` at their natural work boundaries (one
 * descent step, one sampled design).
 *
 * Two stop severities keep early stops lossless:
 *
 * - A *hard* stop (observer cancellation, sample budget exhausted,
 *   `requestStop()`) ends both compute and recording: the trace ends
 *   within one sample of the trigger.
 * - The *deadline* ends compute only. Samples already computed when
 *   it expires are still recorded, so a deadline that fires during a
 *   parallel phase (DOSA descent, random-search fan-out) returns the
 *   best design found so far instead of discarding the finished
 *   work.
 *
 * Thread contract: `stopRequested()` / `requestStop()` / `samples()`
 * may be called from any worker thread; `onRecord()` and `phase()`
 * are only ever called from the serial sections of a searcher (trace
 * merges run in sample order), so the callbacks observe samples in
 * trace order.
 */
class SearchControl
{
  public:
    /**
     * Streaming sample callback: (1-based running sample count, this
     * sample's EDP, best-so-far EDP, whether this sample strictly
     * improved the best). Return false to cancel the search.
     */
    using SampleFn = std::function<bool(size_t, double, double, bool)>;
    /** Searcher lifecycle callback ("starts", "descent", ...). */
    using PhaseFn = std::function<void(const char *)>;
    /** Frontier-entry callback: (the point that just entered the
     *  Pareto front, frontier size after insertion). */
    using FrontierFn =
            std::function<void(const ParetoPoint &, size_t)>;

    /** Control with no budget, no deadline and no callbacks. */
    SearchControl() = default;

    /**
     * @param max_samples Hard cap on recorded samples (0 = none).
     * @param deadline_s  Wall-clock deadline in seconds from now
     *                    (0 = none), enforced cooperatively.
     * @param on_sample   Optional per-sample streaming callback.
     * @param on_phase    Optional lifecycle callback.
     */
    SearchControl(size_t max_samples, double deadline_s,
                  SampleFn on_sample = {}, PhaseFn on_phase = {})
        : max_samples_(max_samples), on_sample_(std::move(on_sample)),
          on_phase_(std::move(on_phase))
    {
        if (deadline_s > 0.0) {
            has_deadline_ = true;
            // The deadline budget is the one sanctioned clock seam
            // in the search layer: it gates *when* a search stops,
            // never *what* it computes, and deadline-limited runs
            // are documented as nondeterministic.
            // LINT-ALLOW(wall-clock): deadline seam (see above)
            deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(deadline_s));
        }
    }

    /** Request a hard stop (callable from any thread). */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /**
     * Compute gate: true once hard-stopped or past the deadline.
     * Searcher work loops poll this before producing more samples.
     */
    bool
    stopRequested() const
    {
        if (stop_.load(std::memory_order_relaxed))
            return true;
        if (deadline_hit_.load(std::memory_order_relaxed))
            return true;
        if (has_deadline_ &&
            // Stop timing only, never result data (see constructor).
            // LINT-ALLOW(wall-clock): deadline poll, same seam
            std::chrono::steady_clock::now() >= deadline_) {
            deadline_hit_.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /**
     * Recording gate: true only on a hard stop. `record()` keeps
     * accepting already-computed samples past the deadline so the
     * trace reflects the work actually done.
     */
    bool
    recordingStopped() const
    {
        return stop_.load(std::memory_order_relaxed);
    }

    /** Samples recorded so far (== trace length of the live run). */
    size_t
    samples() const
    {
        return samples_.load(std::memory_order_relaxed);
    }

    /** Sample-budget cap (0 = unbounded). */
    size_t maxSamples() const { return max_samples_; }

    /**
     * Account one recorded sample and fire the streaming callback;
     * called by `SearchResult::record` from the serial merge path.
     * Requests a stop when the callback cancels or the sample budget
     * is exhausted.
     */
    void
    onRecord(double edp, double best_edp, bool improved)
    {
        size_t n = samples_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (on_sample_ && !on_sample_(n, edp, best_edp, improved))
            requestStop();
        if (max_samples_ != 0 && n >= max_samples_)
            requestStop();
    }

    /** Announce a searcher lifecycle phase. */
    void
    phase(const char *name)
    {
        if (on_phase_)
            on_phase_(name);
    }

    /** Install the frontier-entry callback (multi-objective runs). */
    void
    setFrontierCallback(FrontierFn on_frontier)
    {
        on_frontier_ = std::move(on_frontier);
    }

    /**
     * Announce a frontier entry; called by
     * `SearchResult::mergeOutcome` from the serial merge path, right
     * after the entering sample's `onRecord`.
     */
    void
    frontier(const ParetoPoint &point, size_t front_size)
    {
        if (on_frontier_)
            on_frontier_(point, front_size);
    }

  private:
    std::atomic<bool> stop_{false};
    mutable std::atomic<bool> deadline_hit_{false};
    std::atomic<size_t> samples_{0};
    size_t max_samples_ = 0;
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    SampleFn on_sample_;
    PhaseFn on_phase_;
    FrontierFn on_frontier_;
};

/** Outcome of a co-search run. */
struct SearchResult
{
    double best_edp = std::numeric_limits<double>::infinity();
    HardwareConfig best_hw;
    std::vector<Mapping> best_mappings;
    /** trace[i] = best EDP seen after i+1 samples. */
    std::vector<double> trace;
    /**
     * Non-dominated frontier over the enabled Pareto axes. Empty for
     * single-objective runs (searchers only feed it candidates when
     * `mode.pareto.active()`); its insertion order is deterministic —
     * serial == parallel byte-identical, like the trace.
     */
    ParetoFront frontier;
    /**
     * Cooperative run control installed by the `src/api` driver
     * (null once `runSearch` returns, and in results built outside a
     * search). Not owned. Every `record()` reports through it, and
     * samples recorded after a hard stop (cancellation / exhausted
     * sample budget) are dropped, so such a trace ends within one
     * sample of the trigger; samples computed before an expired
     * deadline are still recorded.
     */
    SearchControl *control = nullptr;

    /** Record a sample, maintaining the monotone best-so-far trace. */
    void record(double edp);

    /**
     * Merge one work unit's outcome — its samples in stream order
     * plus the best design it found (`unit_best_edp`, `hw`,
     * `mappings`) — maintaining the consistency contract: an
     * installed design always scores exactly `best_edp`. The design
     * is installed only if the unit's winning sample actually landed
     * in the trace; if a hard stop dropped that sample after other
     * recorded samples already improved past the previously
     * installed design, the stale design is cleared rather than
     * reported. For full (unstopped) merges this is bitwise-
     * identical to the historical pre-record strict-< install.
     *
     * Multi-objective runs additionally pass the unit's
     * frontier-entering samples (`frontier_candidates`, ordered by
     * `sample_offset` within `samples`): each candidate whose sample
     * landed in the trace is re-offered to the global `frontier`,
     * and an accepted entry fires `SearchControl::frontier` right
     * after the sample's own record. Candidates whose sample a hard
     * stop dropped are dropped with it.
     */
    void mergeOutcome(std::span<const double> samples,
                      double unit_best_edp, const HardwareConfig &hw,
                      const std::vector<Mapping> &mappings,
                      std::span<const ParetoCandidate>
                              frontier_candidates = {});

    /**
     * Pre-reserve trace capacity for a planned sample count (capped
     * by the control's sample budget when one is installed), so
     * multi-100k-sample runs do not grow the trace one push_back at
     * a time.
     */
    void reserveTrace(size_t planned);
};

/** Random hardware design point (log-uniform over the design ranges). */
HardwareConfig randomHardware(Rng &rng);

/**
 * Random mapping guaranteed to fit `hw`: rejection-sample up to
 * `max_tries`, then fall back to the minimal (all-at-DRAM) mapping
 * which fits any configuration.
 */
Mapping randomValidMapping(const Layer &layer, const HardwareConfig &hw,
                           Rng &rng, int max_tries = 64);

/** The minimal mapping: unit tiles everywhere, all loops at DRAM. */
Mapping minimalMapping(const Layer &layer);

/**
 * Feature vector for learned models: log-scaled layer dims, mapping
 * factors (levels 0..2 + spatial), ordering one-hots and hardware
 * parameters. Fixed length kFeatureSize.
 */
std::vector<double> encodeFeatures(const Layer &layer,
                                   const Mapping &mapping,
                                   const HardwareConfig &hw);

/** Length of encodeFeatures output. */
constexpr int kFeatureSize = 7    // layer dims
        + 1                       // stride
        + 21                      // temporal factors, levels 0..2
        + 2                       // spatial factors
        + 9                       // ordering one-hot, levels 1..3
        + 3;                      // hardware parameters

/**
 * Templated feature encoder shared by the double path (encodeFeatures)
 * and the autodiff path (surrogate models inside the GD objective).
 * Factors below 1 are clamped to 1 before the log so gradients stay
 * finite during unconstrained descent.
 */
template <class S>
std::vector<S>
encodeFeaturesT(const Layer &layer, const Factors<S> &factors,
                const OrderVec &order, const S &pe_dim,
                const S &accum_kib, const S &spad_kib)
{
    using std::log;
    using std::max;
    const double inv_ln2 = 1.4426950408889634;
    auto lg = [&](const S &v) {
        return log(max(v, S(1.0))) * S(inv_ln2);
    };

    std::vector<S> f;
    f.reserve(kFeatureSize);
    for (Dim d : kAllDims)
        f.push_back(lg(S(static_cast<double>(layer.size(d)))));
    f.push_back(S(static_cast<double>(layer.stride)));
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            f.push_back(lg(factors.t(lvl, d)));
    f.push_back(lg(factors.spatial_c));
    f.push_back(lg(factors.spatial_k));
    for (int lvl = kAccumulator; lvl < kNumLevels; ++lvl)
        for (int o = 0; o < kNumOrders; ++o)
            f.push_back(S(order[size_t(lvl)] ==
                    static_cast<LoopOrder>(o) ? 1.0 : 0.0));
    f.push_back(lg(pe_dim));
    f.push_back(lg(accum_kib));
    f.push_back(lg(spad_kib));
    return f;
}

} // namespace dosa

#endif // DOSA_SEARCH_SEARCH_COMMON_HH
