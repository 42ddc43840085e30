/**
 * @file
 * Tracer implementation: the shared event ring and the Chrome
 * trace-event JSON emitter.
 */

#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace dosa::obs {

namespace {

/** Small process-unique id of the calling thread (the Chrome `tid`). */
uint64_t
threadId()
{
    static std::atomic<uint64_t> next{1};
    thread_local const uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace

void
Tracer::enable()
{
    util::MutexLock lock(mtx_);
    if (enabled_.load(std::memory_order_relaxed))
        return;
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
    epoch_ns_.store(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count()),
        std::memory_order_relaxed);
    // Release pairs with the acquire in enabled(): a thread that sees
    // enabled==true also sees the new epoch.
    enabled_.store(true, std::memory_order_release);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_release);
}

void
Tracer::setCapacity(size_t events)
{
    util::MutexLock lock(mtx_);
    capacity_ = std::max<size_t>(events, 1);
}

uint64_t
Tracer::nowNs() const
{
    return sinceEpochNs(std::chrono::steady_clock::now());
}

uint64_t
Tracer::sinceEpochNs(std::chrono::steady_clock::time_point t) const
{
    uint64_t t_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
    uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
    if (epoch == 0)
        return 0; // never enabled
    return t_ns > epoch ? t_ns - epoch : 0;
}

void
Tracer::recordSpan(const char *name, const char *cat, uint64_t start_ns,
                   uint64_t end_ns)
{
    if (!enabled())
        return;
    const Event ev{name, cat, start_ns,
                   end_ns >= start_ns ? end_ns - start_ns : 0,
                   threadId()};
    util::MutexLock lock(mtx_);
    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
        return;
    }
    ring_[next_] = ev;
    next_ = (next_ + 1) % ring_.size();
    dropped_++;
}

size_t
Tracer::eventCount() const
{
    util::MutexLock lock(mtx_);
    return ring_.size();
}

uint64_t
Tracer::droppedCount() const
{
    util::MutexLock lock(mtx_);
    return dropped_;
}

json::Value
Tracer::toJson() const
{
    std::vector<Event> all;
    {
        util::MutexLock lock(mtx_);
        // Oldest retained event first: once wrapped, next_ points at it.
        all.reserve(ring_.size());
        std::rotate_copy(ring_.begin(),
                         ring_.begin() + static_cast<std::ptrdiff_t>(next_),
                         ring_.end(), std::back_inserter(all));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         if (a.ts_ns != b.ts_ns)
                             return a.ts_ns < b.ts_ns;
                         return a.tid < b.tid;
                     });

    json::Value events = json::Value::array();
    for (const Event &ev : all) {
        json::Value obj = json::Value::object();
        obj.set("name", json::Value::string(ev.name));
        obj.set("cat", json::Value::string(ev.cat));
        obj.set("ph", json::Value::string("X"));
        obj.set("ts", json::Value::number(
                          static_cast<double>(ev.ts_ns) / 1e3));
        obj.set("dur", json::Value::number(
                           static_cast<double>(ev.dur_ns) / 1e3));
        obj.set("pid", json::Value::number(1));
        obj.set("tid", json::Value::number(ev.tid));
        events.push(std::move(obj));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    return doc;
}

bool
Tracer::writeFile(const std::string &path, std::string &error) const
{
    std::string text = toJson().dump();
    text += '\n';
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    // Close even after a short write, or the stream and its descriptor
    // leak.
    bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
        error = "short write to " + path;
        return false;
    }
    return true;
}

Tracer &
globalTracer()
{
    static Tracer tracer;
    return tracer;
}

} // namespace dosa::obs
