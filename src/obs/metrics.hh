/**
 * @file
 * Process-wide metrics registry: one vocabulary for every counter,
 * gauge and duration histogram in the system.
 *
 * Every source owns registry *instruments* — cheap atomics it bumps
 * inline, looked up by name once — and `snapshot()` copies all of
 * them out. The service `stats` frame and every bench perf footer
 * read that one snapshot.
 *
 * Contracts, in order:
 *
 * - *Observability is invisible.* Instruments never feed back into
 *   any computation: enabling or disabling the registry cannot change
 *   a search result by a single bit (pinned by tests/test_obs.cc).
 * - *Thread-safe and cheap.* Instrument handles are stable references
 *   to atomics, and callers cache them in function-local statics, so
 *   the one name->instrument map and its mutex are touched on first
 *   use and by `snapshot()` only.
 * - *Deterministic snapshots.* `snapshot()` returns every value
 *   sorted by name, and `MetricsSnapshot::toJson()` serializes via
 *   `util/json` (sorted keys, canonical number tokens), so the same
 *   state always produces the same bytes — the property the service
 *   `stats` frame and the bench trajectory lines are built on.
 *
 * ### Memory-order contract
 *
 * Every instrument atomic — counter/gauge values, histogram
 * count/sum/min/max/buckets, and the `enabled_` gate — is accessed
 * with `memory_order_relaxed`, deliberately. The audit behind that:
 *
 * - *Per-cell exactness needs no ordering.* Increments are atomic
 *   RMW ops, so no update is ever lost; relaxed only permits
 *   *reordering between* cells, never torn counts within one.
 * - *No reader depends on cross-cell invariants.* A snapshot may
 *   observe a histogram whose `count` has advanced past the `sum`
 *   it pairs with (or counters from two subsystems at slightly
 *   different moments); consumers treat every value as an
 *   independent monotone reading, so no acquire/release edges are
 *   required. Anything that needs a consistent *pair* must own a
 *   lock (the service keeps its exact `EndpointStats` under the
 *   service mutex for exactly this reason).
 * - *Instruments never gate computation* (the invisibility
 *   contract), so metric reads never need to synchronize-with the
 *   writes they observe — stale-by-a-few-events is always fine.
 * - *Publication is the mutex's job.* The instrument objects
 *   themselves are created and their addresses published under the
 *   registry mutex; the happens-before edge a thread needs before
 *   first touching an atomic comes from that lock (and, for cached
 *   references, from the caller's own synchronization), never from
 *   the instrument ops.
 * - *`enabled_` is advisory.* An `add` racing `setEnabled` may or
 *   may not land; the flag is a test/bench seam, not a fence. Code
 *   must never infer "no more writes" from reading it — disable,
 *   then synchronize by other means (join/lock) before asserting
 *   quiescence.
 *
 * Strengthen an op past relaxed only with a comment naming the
 * invariant that needs it; the obs golden tests pin byte-stable
 * snapshots, not orderings.
 */

#ifndef DOSA_OBS_METRICS_HH
#define DOSA_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hh"
#include "util/thread_annotations.hh"

namespace dosa::obs {

class MetricsRegistry;

/** Monotone event counter (relaxed atomic; exact under contention). */
class Counter
{
  public:
    /** Count `n` events (no-op while the registry is disabled). */
    void
    add(uint64_t n = 1)
    {
        if (enabled_->load(std::memory_order_relaxed))
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    friend class MetricsRegistry;
    explicit Counter(const std::atomic<bool> *enabled)
        : enabled_(enabled)
    {}

    std::atomic<uint64_t> v_{0};
    const std::atomic<bool> *enabled_;
};

/** Last-value-wins level (queue depth, in-flight tasks, sizes). */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        if (enabled_->load(std::memory_order_relaxed))
            v_.store(v, std::memory_order_relaxed);
    }

    /** Add a (possibly negative) delta. */
    void
    add(int64_t d)
    {
        if (enabled_->load(std::memory_order_relaxed))
            v_.fetch_add(d, std::memory_order_relaxed);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    friend class MetricsRegistry;
    explicit Gauge(const std::atomic<bool> *enabled) : enabled_(enabled)
    {}

    std::atomic<int64_t> v_{0};
    const std::atomic<bool> *enabled_;
};

/**
 * Duration histogram over power-of-two nanosecond buckets (bucket i
 * counts durations in [2^i, 2^(i+1)) ns), plus exact count / sum /
 * min / max. Quantiles read from the bucket bounds are therefore
 * upper estimates with at most 2x resolution — the service keeps its
 * exact per-endpoint `Summary` for tighter tails; this is the cheap
 * always-on distribution every subsystem can afford.
 */
class Histogram
{
  public:
    /** Bucket count: 2^48 ns ~ 3.3 days caps any sane duration. */
    static constexpr size_t kBuckets = 48;

    /** Record one duration in seconds (negative clamps to 0). */
    void record(double seconds);

    /** Record one duration in nanoseconds. */
    void recordNs(uint64_t ns);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    explicit Histogram(const std::atomic<bool> *enabled)
        : enabled_(enabled)
    {}

    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_ns_{0};
    std::atomic<uint64_t> min_ns_{UINT64_MAX};
    std::atomic<uint64_t> max_ns_{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    const std::atomic<bool> *enabled_;
};

/**
 * Point-in-time copy of every metric, sorted by name. The unit of
 * exchange between the registry and its consumers: the service
 * `stats` frame carries one, every bench perf footer prints one, and
 * `toJson`/`fromJson` round-trip it over the wire byte-stably.
 */
struct MetricsSnapshot
{
    /** Serialized histogram state (durations in seconds). */
    struct HistogramData
    {
        uint64_t count = 0;
        double sum_s = 0.0;
        double min_s = 0.0; ///< 0 when count == 0
        double max_s = 0.0;
        /** Non-empty buckets as (upper bound in seconds, count). */
        std::vector<std::pair<double, uint64_t>> buckets;

        /**
         * Upper estimate of the q-th quantile (q in [0,1]) from the
         * bucket bounds, clamped to [min_s, max_s]; 0 when empty.
         */
        double quantile(double q) const;

        /** One-line "n=... mean=... p50<=... p99<=... max=..." text. */
        std::string str() const;
    };

    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramData> histograms;

    /**
     * Canonical JSON object {"counters":{...},"gauges":{...},
     * "histograms":{...}} — sorted keys, canonical number tokens, so
     * equal snapshots always serialize to equal bytes.
     */
    json::Value toJson() const;

    /**
     * Strict inverse of toJson. False plus a diagnostic (prefixed
     * with `path`) on any malformed value; never crashes.
     */
    [[nodiscard]] static bool fromJson(const json::Value &value,
                         const std::string &path, MetricsSnapshot &out,
                         std::string &error);
};

/**
 * The name->instrument registry: one map under one mutex. Instruments
 * are created on first use and live for the registry's lifetime, so
 * the returned references are stable — callers cache them in
 * function-local statics and pay one relaxed atomic op per event
 * after that.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The counter named `name`, created on first use. */
    Counter &counter(std::string_view name);

    /** The gauge named `name`, created on first use. */
    Gauge &gauge(std::string_view name);

    /** The histogram named `name`, created on first use. */
    Histogram &histogram(std::string_view name);

    /** Copy of every instrument, sorted by name. */
    MetricsSnapshot snapshot() const;

    /**
     * Gate recording on the registry's instruments. Enabled by
     * default; disabling makes add/set/record no-ops but never changes
     * any computation either way.
     */
    void setEnabled(bool enabled) { enabled_.store(enabled); }
    bool enabled() const { return enabled_.load(); }

  private:
    /** One instrument of any kind, keyed by name. */
    struct Instrument
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    /** mutable: `snapshot()` is const but takes the lock. */
    mutable util::Mutex mtx_;
    std::map<std::string, Instrument> instruments_ GUARDED_BY(mtx_);
    std::atomic<bool> enabled_{true};
};

/** The process-wide registry every subsystem reports into. */
MetricsRegistry &globalMetrics();

/** Shorthand for globalMetrics().counter(name). */
inline Counter &
counter(std::string_view name)
{
    return globalMetrics().counter(name);
}

/** Shorthand for globalMetrics().gauge(name). */
inline Gauge &
gauge(std::string_view name)
{
    return globalMetrics().gauge(name);
}

/** Shorthand for globalMetrics().histogram(name). */
inline Histogram &
histogram(std::string_view name)
{
    return globalMetrics().histogram(name);
}

} // namespace dosa::obs

#endif // DOSA_OBS_METRICS_HH
