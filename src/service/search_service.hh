/**
 * @file
 * The search service core: a transport-independent request/reply
 * engine over the `src/api` facade.
 *
 * One `SearchService` owns a pool of `max_concurrent` worker threads
 * and a bounded admission queue. `submit()` handles one request line:
 * `stats` and `ping` are answered inline on the caller's thread;
 * `search` requests are validated (structure via the wire decoder,
 * semantics via `validateSpec`) and then either queued or rejected
 * with a typed `error` frame (`queue_full`, `bad_spec`,
 * `bad_request`, `shutdown`). A worker later runs the search through
 * `runSearch`, streaming observer events to the request's `FrameSink`
 * as wire frames in trace order.
 *
 * Cancellation rides the observer bridge: when a sink's `send`
 * returns false (client gone) or the service is shutting down, the
 * streaming observer returns false from `onSample`, which trips the
 * run's `SearchControl` — the search stops within one sample, per
 * the facade's cooperative-cancel contract. The service never holds
 * its mutex across a `send` (sinks may block on backpressure).
 *
 * Determinism: the service adds nothing to the facade's contract —
 * for a fixed spec/seed the streamed frames and final `done` frame
 * are byte-identical across runs, concurrency levels and transports.
 */

#ifndef DOSA_SERVICE_SEARCH_SERVICE_HH
#define DOSA_SERVICE_SEARCH_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/endpoint_stats.hh"
#include "service/wire.hh"
#include "util/thread_annotations.hh"

namespace dosa::service {

/** Tunables of one service instance. */
struct ServiceConfig
{
    /** Service name reported by the `stats` endpoint. */
    std::string name = "dosa-search";
    /** Service version reported by the `stats` endpoint. */
    std::string version = "1.0.0";
    /** Worker threads == searches in flight (min 1). */
    int max_concurrent = 2;
    /** Queued searches beyond the running ones before `queue_full`. */
    int max_queue = 16;
    /**
     * Retention window (per endpoint) of the processing-time ring and
     * of the request history: a long-lived daemon keeps at most this
     * many recent timings/records per endpoint, so stats memory is
     * bounded. `Summary` percentiles in the `stats` frame cover the
     * retained window; the frame reports it as `window` (min 1).
     */
    int stats_window = 1024;
};

/**
 * Where reply frames go. `send` delivers one frame line (no
 * delimiter; the transport adds it) and returns false when the
 * client is gone — the service treats that as cancellation of the
 * request the sink belongs to. `send` may block (backpressure); it
 * is never called with the service mutex held. For one request the
 * service calls `send` from a single thread at a time, but different
 * requests sharing a sink may interleave — implementations that
 * multiplex must serialize internally.
 */
class FrameSink
{
  public:
    virtual ~FrameSink() = default;
    virtual bool send(const std::string &frame) = 0;
};

/** Outcome of one handled request, kept for tests and diagnostics. */
struct RequestRecord
{
    enum class Outcome
    {
        Done,      ///< terminal `done` / `pong` / `stats` delivered
        Cancelled, ///< client disappeared mid-stream; search stopped
        Error,     ///< answered (or tried to answer) with `error`
    };

    std::string id;       ///< request correlation id
    std::string endpoint; ///< "search", "stats", "ping", "_protocol"
    Outcome outcome = Outcome::Done;
    std::string error_code; ///< errc::* when outcome == Error
    uint64_t samples = 0;   ///< recorded trace length (searches)
    double seconds = 0.0;   ///< processing time (see EndpointStats)
};

/** The transport-independent service engine. */
class SearchService
{
  public:
    explicit SearchService(ServiceConfig config = {});

    /** Shuts down (cancelling in-flight searches) and joins. */
    ~SearchService();

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /**
     * Handle one request line. Inline endpoints reply before
     * returning; `search` requests return once admitted (frames then
     * stream from a worker thread). Every line gets exactly one
     * terminal frame attempt on `sink`, whatever happens.
     */
    void submit(const std::string &line,
                std::shared_ptr<FrameSink> sink) EXCLUDES(mutex_);

    /** Block until the queue is empty and all workers are idle. */
    void drain() EXCLUDES(mutex_);

    /**
     * Stop the service: reject new submissions, flush queued
     * requests with `shutdown` errors, cancel running searches
     * (within one sample) and join the workers. Idempotent.
     */
    void shutdown() EXCLUDES(mutex_);

    /**
     * Per-endpoint statistics snapshot, sorted by endpoint name.
     * Always lists all four endpoints, counted-into or not.
     */
    std::vector<EndpointStats> stats() const EXCLUDES(mutex_);

    /** Completed-request log, in completion order. */
    std::vector<RequestRecord> history() const EXCLUDES(mutex_);

    const ServiceConfig &config() const { return config_; }

  private:
    struct Job
    {
        Request req;
        std::shared_ptr<FrameSink> sink;
        /** Admission time, for the queue-wait histogram and span. */
        std::chrono::steady_clock::time_point enqueued{};
    };

    /** Mutable counters behind one endpoint's stats snapshot. */
    struct Endpoint
    {
        uint64_t requests = 0;
        uint64_t errors = 0;
        std::string last_error;
        /** Capacity-limited timing ring (config.stats_window). */
        std::vector<double> times_s;
        /** Overwrite cursor once the ring is full. */
        size_t times_next = 0;
    };

    void workerLoop() EXCLUDES(mutex_);
    void runJob(Job &job) EXCLUDES(mutex_);

    /**
     * Reply with an error frame and account it (locks internally).
     * EXCLUDES enforces the "never hold the mutex across a send"
     * contract at compile time: a sink may block on backpressure.
     */
    void replyError(const std::string &endpoint, const std::string &id,
                    const std::string &code, const std::string &message,
                    FrameSink &sink, double seconds) EXCLUDES(mutex_);

    /** Count one successful request and its processing time. */
    void accountRequest(const std::string &endpoint, double seconds)
            EXCLUDES(mutex_);
    void appendRecord(RequestRecord record) EXCLUDES(mutex_);
    /** Push into an endpoint's bounded ring. */
    void pushTime(Endpoint &ep, double seconds) REQUIRES(mutex_);

    ServiceConfig config_;
    mutable util::Mutex mutex_;
    std::condition_variable work_cv_; ///< queue / stopping changes
    std::condition_variable idle_cv_; ///< drain wakeups
    std::deque<Job> queue_ GUARDED_BY(mutex_);
    int active_ GUARDED_BY(mutex_) = 0;
    std::atomic<bool> stopping_{false};
    bool joined_ GUARDED_BY(mutex_) = false;
    std::map<std::string, Endpoint> endpoints_ GUARDED_BY(mutex_);
    /** Completed-request log, bounded to config.stats_window. */
    std::deque<RequestRecord> history_ GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
};

} // namespace dosa::service

#endif // DOSA_SERVICE_SEARCH_SERVICE_HH
