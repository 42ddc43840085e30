/**
 * @file
 * Span tracing into one bounded ring, dumped as Chrome trace-event
 * JSON (load the file in Perfetto / chrome://tracing).
 *
 * The tracer answers the question metrics cannot: *where does the
 * time go inside one request* — searcher phases, service queue
 * waits — on a live process. Design constraints, in order:
 *
 * - *Near-zero cost when disabled.* Every record path starts with one
 *   acquire load of the enabled flag and returns; `TraceSpan` does not
 *   even read the clock. Benches run with tracing off by default and
 *   must not regress (pinned by the fig7 acceptance bar).
 * - *Bounded memory, TSan-clean.* Every thread records into one ring
 *   under the tracer's mutex. The ring grows with recorded events up
 *   to its capacity, then overwrites the oldest event first and counts
 *   the drop. The traffic is a few hundred spans per second (searcher
 *   phases and service request stages), so the one lock is cold.
 * - *Observability is invisible.* Recording never feeds back into a
 *   computation; enabling tracing cannot change a search result by a
 *   single bit (pinned by tests/test_obs.cc).
 *
 * Event names and categories are `const char *` and are stored by
 * pointer, not copied: pass string literals (or strings that outlive
 * the dump), the same rule the Chrome tracing macros impose.
 */

#ifndef DOSA_OBS_TRACE_HH
#define DOSA_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/thread_annotations.hh"

namespace dosa::obs {

/**
 * The process-wide trace recorder: one ring of complete ("X") events,
 * each tagged with a small id of the thread that recorded it, which
 * `toJson()` emits as one Chrome trace-event document. Clocked on
 * `steady_clock` relative to the `enable()` epoch, so timestamps are
 * monotone and start near zero.
 */
class Tracer
{
  public:
    /** Default ring capacity, in events, shared by all threads. */
    static constexpr size_t kDefaultCapacity = 1 << 16;

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start recording: resets the epoch and drops any events from a
     * previous enable. No-op when already enabled.
     */
    void enable();

    /** Stop recording (already-recorded events stay dumpable). */
    void disable();

    /** One acquire load — the whole cost of a disabled record path. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_acquire);
    }

    /** Set the ring capacity (events); call before `enable()`. */
    void setCapacity(size_t events);

    /** Nanoseconds since the enable() epoch (0 when never enabled). */
    uint64_t nowNs() const;

    /** A steady_clock time point mapped onto the epoch timeline. */
    uint64_t sinceEpochNs(std::chrono::steady_clock::time_point t) const;

    /** Record a complete span [start_ns, end_ns] on the calling thread. */
    void recordSpan(const char *name, const char *cat, uint64_t start_ns,
                    uint64_t end_ns);

    /** Events currently retained in the ring. */
    size_t eventCount() const;

    /** Events overwritten by ring wraparound since enable(). */
    uint64_t droppedCount() const;

    /**
     * All retained events as a Chrome trace-event document:
     * {"traceEvents":[{"name","cat","ph","ts","dur","pid","tid"}]}
     * with timestamps in microseconds, events sorted by (ts, tid),
     * serialized canonically by util/json (parse-back is tested).
     */
    json::Value toJson() const;

    /**
     * Write `toJson().dump()` to `path`. False + `error` when the
     * open, the write or the close fails; the file is always closed.
     */
    [[nodiscard]] bool writeFile(const std::string &path,
                                 std::string &error) const;

  private:
    /** One recorded complete event. */
    struct Event
    {
        const char *name;
        const char *cat;
        uint64_t ts_ns;
        uint64_t dur_ns;
        uint64_t tid; ///< small per-thread id, the Chrome `tid`
    };

    mutable util::Mutex mtx_;
    /** Grows to `capacity_`, then `next_` marks the oldest event. */
    std::vector<Event> ring_ GUARDED_BY(mtx_);
    size_t next_ GUARDED_BY(mtx_) = 0;
    uint64_t dropped_ GUARDED_BY(mtx_) = 0;
    size_t capacity_ GUARDED_BY(mtx_) = kDefaultCapacity;
    std::atomic<bool> enabled_{false};
    /** Epoch as ns on the steady_clock timeline (atomic: read by
     *  every recording thread, rewritten by enable()). */
    std::atomic<uint64_t> epoch_ns_{0};
};

/** The process-wide tracer (the `--trace` flags enable it). */
Tracer &globalTracer();

/**
 * RAII span on the global tracer: captures the start time at
 * construction (when tracing is enabled) and records one complete
 * event at destruction. A disabled tracer makes both ends a single
 * acquire load. `name`/`cat` must be literals (see file comment).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, const char *cat = "dosa")
        : name_(name), cat_(cat)
    {
        Tracer &t = globalTracer();
        if (t.enabled()) {
            active_ = true;
            start_ns_ = t.nowNs();
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (active_) {
            Tracer &t = globalTracer();
            t.recordSpan(name_, cat_, start_ns_, t.nowNs());
        }
    }

  private:
    const char *name_;
    const char *cat_;
    uint64_t start_ns_ = 0;
    bool active_ = false;
};

} // namespace dosa::obs

#endif // DOSA_OBS_TRACE_HH
