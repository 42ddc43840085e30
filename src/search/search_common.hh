/**
 * @file
 * Shared infrastructure for every searcher: the run control, the one
 * way a sample is recorded (traces, best design, Pareto front), random
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
#include <cstdint>
#include <limits>
#include <vector>

#include "api/observer.hh"
#include "arch/hardware_config.hh"
#include "autodiff/var.hh"
#include "core/objective.hh"
#include "mapping/mapping.hh"
#include "model/reference.hh"
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
 * frontier history; `SearchResult::merge` re-checks each candidate
 * against the global front, which by domination transitivity
 * reproduces the single-threaded event stream exactly.
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
 * Cooperative run control shared between the `src/api` driver and the
 * searcher implementations. The driver installs one per `runSearch`
 * call; the searchers thread it through `SearchResult::record`
 * (sample accounting and streaming) and poll `stopRequested()` at
 * their natural work boundaries (one descent step, one sampled
 * design). It streams every recorded sample, frontier entry and
 * phase to the run's `SearchObserver` (when one is installed) and
 * records each phase as a "search.phase" trace span.
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
 * may be called from any worker thread; `onRecord()`, `frontier()`
 * and `phase()` are only ever called from the serial sections of a
 * searcher (trace merges run in sample order), so the observer sees
 * samples in trace order.
 */
class SearchControl
{
  public:
    /**
     * @param max_samples Hard cap on recorded samples (0 = none).
     * @param deadline_s  Wall-clock deadline in seconds from now
     *                    (0 = none), enforced cooperatively. One too
     *                    far out to ever fire (up to +inf) is fine.
     * @param observer    Optional event sink (not owned).
     */
    SearchControl(size_t max_samples, double deadline_s,
                  SearchObserver *observer);

    /** Closes the trace span of the last announced phase. */
    ~SearchControl();

    /** Searchers and `SearchResult::control` hold its address. */
    SearchControl(const SearchControl &) = delete;
    SearchControl &operator=(const SearchControl &) = delete;

    /** Request a hard stop (callable from any thread). */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /**
     * Compute gate: true once hard-stopped or past the deadline.
     * Searcher work loops poll this before producing more samples.
     */
    bool stopRequested() const;

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
     * Account one recorded sample and stream it (`onSample`, then
     * `onImprovement` when it improved); called by
     * `SearchResult::record` from the serial merge path. Requests a
     * stop when the observer cancels or the sample budget is
     * exhausted.
     */
    void onRecord(double edp, double best_edp, bool improved);

    /**
     * Stream a frontier entry; called by `SearchResult` from the
     * serial merge path, right after the entering sample's
     * `onRecord`.
     */
    void frontier(const ParetoPoint &point, size_t front_size);

    /**
     * Announce a searcher lifecycle phase. `name` must be a string
     * literal: the open trace span keeps the pointer.
     */
    void phase(const char *name);

  private:
    std::atomic<bool> stop_{false};
    mutable std::atomic<bool> deadline_hit_{false};
    std::atomic<size_t> samples_{0};
    size_t max_samples_ = 0;
    /** Seconds after `start_` at which compute stops (0 = none). */
    double deadline_s_ = 0.0;
    std::chrono::steady_clock::time_point start_{};
    SearchObserver *observer_ = nullptr;
    /** The announced phase whose trace span is open, or null. */
    const char *phase_ = nullptr;
    uint64_t phase_start_ns_ = 0;
};

/**
 * Everything one parallel work unit (a DOSA start point, a random
 * hardware design) contributes, recorded locally so units can run on
 * any thread and merge in unit order: its samples in stream order,
 * its best design, and the designs that entered its local Pareto
 * front. A design its own unit dominates is dominated globally too,
 * so only local front entries travel to `SearchResult::merge`.
 */
struct UnitRecord
{
    /** Per-sample EDPs in stream order (+inf = no valid design). */
    std::vector<double> samples;
    double best_edp = std::numeric_limits<double>::infinity();
    HardwareConfig best_hw;
    std::vector<Mapping> best_mappings;
    /** Local front entries, ordered by `sample_offset`. */
    std::vector<ParetoCandidate> candidates;
    /** The local front. Configure it to the run's axes on
     *  multi-objective runs; while its axes are inactive (the
     *  default), no design becomes a candidate. */
    ParetoFront local;

    /**
     * Record a scored concrete design as the next sample: it becomes
     * the best design on a strict EDP improvement and a candidate
     * when it enters the local front.
     */
    void recordDesign(const NetworkEval &eval, const HardwareConfig &hw,
                      const std::vector<Mapping> &mappings);
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
     * single-objective runs (searchers configure it only when
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

    /**
     * Record a sample, maintaining the monotone best-so-far trace.
     * False when a hard stop dropped it.
     */
    bool record(double edp);

    /**
     * Record one scored concrete design as one sample (the serial
     * searchers): it becomes the best design when it strictly
     * improves `best_edp`, and is offered to `frontier`.
     */
    void recordDesign(const NetworkEval &eval, const HardwareConfig &hw,
                      const std::vector<Mapping> &mappings);

    /**
     * Merge one work unit's record, maintaining the consistency
     * contract: an installed design always scores exactly
     * `best_edp`. The unit's best design is installed only if its
     * winning sample actually landed in the trace; if a hard stop
     * dropped that sample after other recorded samples already
     * improved past the previously installed design, the stale
     * design is cleared rather than reported. Each frontier
     * candidate whose sample landed is re-offered to `frontier`;
     * candidates whose sample a hard stop dropped go with it.
     */
    void merge(const UnitRecord &unit);

    /**
     * Pre-reserve trace capacity for a planned sample count (capped
     * by the control's sample budget when one is installed), so
     * multi-100k-sample runs do not grow the trace one push_back at
     * a time.
     */
    void reserveTrace(size_t planned);

  private:
    /** Offer a landed sample's point to `frontier`; stream an entry. */
    void offer(ParetoPoint point);
};

/**
 * Outcome of one facade run: the shared `SearchResult` (best design
 * + monotone trace) plus the DOSA-only start-point attribution that
 * Fig. 9 reports (left at +inf / default by the other algorithms).
 *
 * Consistency contract: `search.best_edp` always equals the minimum
 * of the recorded trace, and an installed `best_hw`/`best_mappings`
 * always scores exactly `best_edp`. When a run is cancelled (or hits
 * its budget/deadline) before the winning sample is recorded, the
 * design stays empty rather than reporting a design better than the
 * truncated trace claims.
 */
struct SearchReport
{
    SearchResult search;
    /** "dosa" only: reference EDP of the best start point (Fig. 9). */
    double best_start_edp = std::numeric_limits<double>::infinity();
    /** "dosa" only: hardware of the best start point. */
    HardwareConfig best_start_hw;
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
