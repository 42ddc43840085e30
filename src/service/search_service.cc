/**
 * @file
 * SearchService implementation: admission control, the worker pool
 * and the observer->frame streaming bridge. See search_service.hh
 * for the contract.
 */
#include "service/search_service.hh"

#include <chrono>

#include "api/search_api.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dosa::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Service-wide metrics (handles cached once; see obs/metrics.hh). */
struct ServiceMetrics
{
    obs::Counter &admitted = obs::counter("service.search.admitted");
    obs::Counter &rejected = obs::counter("service.search.rejected");
    obs::Histogram &queue_wait =
        obs::histogram("service.search.queue_wait_s");
    obs::Histogram &run_time = obs::histogram("service.search.run_s");
};

ServiceMetrics &
serviceMetrics()
{
    static ServiceMetrics m;
    return m;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Observer bridging one running search onto its client's sink.
 * Callbacks arrive serially (facade contract), so the flags need no
 * synchronization; only `stopping` is shared with other threads.
 */
class StreamObserver : public SearchObserver
{
  public:
    StreamObserver(FrameSink &sink, const std::string &id,
                   const std::atomic<bool> &stopping)
        : sink_(sink), id_(id), stopping_(stopping)
    {}

    /** False once a send failed: the client is gone. */
    bool alive() const { return alive_; }

    /** True when the service's shutdown cancelled this search. */
    bool shutdownCancel() const { return shutdown_cancel_; }

    void
    onPhase(const char *phase) override
    {
        if (alive_ && !sink_.send(phaseFrame(id_, phase)))
            alive_ = false;
    }

    bool
    onSample(const SampleEvent &event) override
    {
        if (stopping_.load(std::memory_order_relaxed)) {
            shutdown_cancel_ = true;
            return false;
        }
        if (!alive_)
            return false;
        if (!sink_.send(sampleFrame(id_, event))) {
            alive_ = false;
            return false;
        }
        return true;
    }

    void
    onImprovement(const SampleEvent &event) override
    {
        if (alive_ && !sink_.send(improvementFrame(id_, event)))
            alive_ = false;
    }

    void
    onFrontier(const FrontierEvent &event) override
    {
        if (alive_ && !sink_.send(frontierFrame(id_, event)))
            alive_ = false;
    }

  private:
    FrameSink &sink_;
    const std::string &id_;
    const std::atomic<bool> &stopping_;
    bool alive_ = true;
    bool shutdown_cancel_ = false;
};

} // namespace

SearchService::SearchService(ServiceConfig config)
    : config_(std::move(config))
{
    if (config_.max_concurrent < 1)
        config_.max_concurrent = 1;
    if (config_.max_queue < 0)
        config_.max_queue = 0;
    if (config_.stats_window < 1)
        config_.stats_window = 1;
    // Pre-seed every endpoint so `stats` always lists all four.
    endpoints_["search"];
    endpoints_["stats"];
    endpoints_["ping"];
    endpoints_["_protocol"];
    workers_.reserve(size_t(config_.max_concurrent));
    for (int i = 0; i < config_.max_concurrent; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SearchService::~SearchService()
{
    shutdown();
}

void
SearchService::submit(const std::string &line,
                      std::shared_ptr<FrameSink> sink)
{
    Clock::time_point t0 = Clock::now();
    Request req;
    std::string error;
    bool decoded;
    {
        obs::TraceSpan decode_span("service.decode", "service");
        decoded = decodeRequest(line, req, error);
    }
    if (!decoded) {
        // Unidentifiable traffic lands on the "_protocol" endpoint;
        // the recovered id (possibly empty) still correlates.
        replyError("_protocol", req.id, errc::bad_request, error,
                *sink, secondsSince(t0));
        return;
    }

    if (req.kind == Request::Kind::Ping ||
        req.kind == Request::Kind::Stats) {
        const char *endpoint =
                req.kind == Request::Kind::Ping ? "ping" : "stats";
        std::string frame = req.kind == Request::Kind::Ping
                ? pongFrame(req.id)
                : statsFrame(req.id, config_.name, config_.version,
                          stats(), uint64_t(config_.stats_window),
                          obs::globalMetrics().snapshot());
        bool delivered = sink->send(frame);
        double dt = secondsSince(t0);
        accountRequest(endpoint, dt);
        appendRecord({req.id, endpoint,
                delivered ? RequestRecord::Outcome::Done
                          : RequestRecord::Outcome::Cancelled,
                "", 0, dt});
        return;
    }

    // -- Search: validate, then admit or reject with a typed error.
    if (!validateSpec(req.spec, error)) {
        replyError("search", req.id, errc::bad_spec, error, *sink,
                secondsSince(t0));
        return;
    }

    {
        util::MutexLock lock(mutex_);
        if (!stopping_.load(std::memory_order_relaxed)) {
            if (queue_.size() >= size_t(config_.max_queue)) {
                lock.unlock();
                serviceMetrics().rejected.add(1);
                replyError("search", req.id, errc::queue_full,
                        "search queue is full (" +
                                std::to_string(config_.max_queue) +
                                " waiting); retry later",
                        *sink, secondsSince(t0));
                return;
            }
            queue_.push_back(Job{std::move(req), std::move(sink),
                    Clock::now()});
            lock.unlock();
            serviceMetrics().admitted.add(1);
            work_cv_.notify_one();
            return;
        }
    }
    serviceMetrics().rejected.add(1);
    replyError("search", req.id, errc::shutdown,
            "service is shutting down", *sink, secondsSince(t0));
}

void
SearchService::workerLoop()
{
    for (;;) {
        Job job;
        {
            util::MutexLock lock(mutex_);
            lock.wait(work_cv_, [this]() REQUIRES(mutex_) {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping, queue flushed
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        // Queue wait: admission to dequeue. The span reconstructs the
        // interval from the stored admission time so it appears on the
        // worker's timeline without a cross-thread handoff.
        Clock::time_point dequeued = Clock::now();
        serviceMetrics().queue_wait.record(
                std::chrono::duration<double>(dequeued - job.enqueued)
                        .count());
        obs::Tracer &tracer = obs::globalTracer();
        if (tracer.enabled())
            tracer.recordSpan("service.queue", "service",
                    tracer.sinceEpochNs(job.enqueued),
                    tracer.sinceEpochNs(dequeued));
        runJob(job);
        {
            util::MutexLock lock(mutex_);
            --active_;
        }
        idle_cv_.notify_all();
    }
}

void
SearchService::runJob(Job &job)
{
    Clock::time_point t0 = Clock::now();
    if (stopping_.load(std::memory_order_relaxed)) {
        // Queued behind the shutdown: flushed, never run.
        replyError("search", job.req.id, errc::shutdown,
                "service is shutting down", *job.sink,
                secondsSince(t0));
        return;
    }

    StreamObserver observer(*job.sink, job.req.id, stopping_);
    SearchReport report = [&] {
        obs::TraceSpan run_span("service.run", "service");
        return runSearch(job.req.spec, &observer);
    }();
    double dt = secondsSince(t0);
    serviceMetrics().run_time.record(dt);
    uint64_t samples = uint64_t(report.search.trace.size());

    if (observer.shutdownCancel()) {
        std::string message = "service shutting down; "
                              "search cancelled";
        (void)job.sink->send(
                errorFrame(job.req.id, errc::shutdown, message));
        {
            util::MutexLock lock(mutex_);
            Endpoint &ep = endpoints_["search"];
            ++ep.requests;
            ++ep.errors;
            ep.last_error = message;
            pushTime(ep, dt);
        }
        appendRecord({job.req.id, "search",
                RequestRecord::Outcome::Error, errc::shutdown,
                samples, dt});
        return;
    }

    RequestRecord::Outcome outcome;
    if (!observer.alive()) {
        // The client vanished mid-stream; the observer already
        // cancelled the search within one sample.
        outcome = RequestRecord::Outcome::Cancelled;
    } else {
        obs::TraceSpan reply_span("service.reply", "service");
        bool delivered =
                job.sink->send(doneFrame(job.req.id, report));
        outcome = delivered ? RequestRecord::Outcome::Done
                            : RequestRecord::Outcome::Cancelled;
    }
    accountRequest("search", dt);
    appendRecord({job.req.id, "search", outcome, "", samples, dt});
}

void
SearchService::replyError(const std::string &endpoint,
                          const std::string &id,
                          const std::string &code,
                          const std::string &message, FrameSink &sink,
                          double seconds)
{
    (void)sink.send(errorFrame(id, code, message));
    {
        util::MutexLock lock(mutex_);
        Endpoint &ep = endpoints_[endpoint];
        ++ep.requests;
        ++ep.errors;
        ep.last_error = message;
        pushTime(ep, seconds);
    }
    appendRecord({id, endpoint, RequestRecord::Outcome::Error, code,
            0, seconds});
}

void
SearchService::accountRequest(const std::string &endpoint,
                              double seconds)
{
    util::MutexLock lock(mutex_);
    Endpoint &ep = endpoints_[endpoint];
    ++ep.requests;
    pushTime(ep, seconds);
}

void
SearchService::pushTime(Endpoint &ep, double seconds)
{
    size_t window = size_t(config_.stats_window);
    if (ep.times_s.size() < window) {
        ep.times_s.push_back(seconds);
        return;
    }
    // Ring overwrite: percentiles cover the last `window` requests.
    ep.times_s[ep.times_next] = seconds;
    ep.times_next = (ep.times_next + 1) % window;
}

void
SearchService::appendRecord(RequestRecord record)
{
    util::MutexLock lock(mutex_);
    history_.push_back(std::move(record));
    while (history_.size() > size_t(config_.stats_window))
        history_.pop_front();
}

void
SearchService::drain()
{
    util::MutexLock lock(mutex_);
    lock.wait(idle_cv_, [this]() REQUIRES(mutex_) {
        return queue_.empty() && active_ == 0;
    });
}

void
SearchService::shutdown()
{
    {
        util::MutexLock lock(mutex_);
        if (joined_)
            return;
        joined_ = true;
        stopping_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    idle_cv_.notify_all();
}

std::vector<EndpointStats>
SearchService::stats() const
{
    util::MutexLock lock(mutex_);
    std::vector<EndpointStats> out;
    out.reserve(endpoints_.size());
    for (const auto &[name, ep] : endpoints_) {
        EndpointStats s;
        s.name = name;
        s.requests = ep.requests;
        s.errors = ep.errors;
        s.last_error = ep.last_error;
        s.processing_s = Summary::of(ep.times_s);
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<RequestRecord>
SearchService::history() const
{
    util::MutexLock lock(mutex_);
    return {history_.begin(), history_.end()};
}

} // namespace dosa::service
