/**
 * @file
 * MetricsRegistry implementation: the instrument map, histogram
 * bucketing, and the canonical-JSON snapshot codec.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace dosa::obs {

namespace {

/** Bucket index for a duration: floor(log2(ns)), 0 ns in bucket 0. */
size_t
bucketIndex(uint64_t ns)
{
    if (ns <= 1)
        return 0;
    size_t idx = static_cast<size_t>(std::bit_width(ns)) - 1;
    return std::min(idx, Histogram::kBuckets - 1);
}

/** Upper bound of bucket i in seconds: 2^(i+1) ns. */
double
bucketUpperSeconds(size_t idx)
{
    return std::ldexp(1.0, static_cast<int>(idx) + 1) * 1e-9;
}

/** Lock-free running-min update. */
void
atomicMin(std::atomic<uint64_t> &slot, uint64_t v)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

/** Lock-free running-max update. */
void
atomicMax(std::atomic<uint64_t> &slot, uint64_t v)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

} // namespace

void
Histogram::record(double seconds)
{
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    if (!(seconds > 0.0))
        seconds = 0.0;
    double ns = seconds * 1e9;
    recordNs(ns >= 1.8e19 ? UINT64_MAX : static_cast<uint64_t>(ns));
}

void
Histogram::recordNs(uint64_t ns)
{
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    atomicMin(min_ns_, ns);
    atomicMax(max_ns_, ns);
    buckets_[bucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
}

double
MetricsSnapshot::HistogramData::quantile(double q) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * count));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (const auto &[le_s, n] : buckets) {
        seen += n;
        if (seen >= rank)
            return std::clamp(le_s, min_s, max_s);
    }
    return max_s;
}

std::string
MetricsSnapshot::HistogramData::str() const
{
    char buf[192];
    double mean = count ? sum_s / static_cast<double>(count) : 0.0;
    std::snprintf(buf, sizeof buf,
                  "n=%llu mean=%.3gs p50<=%.3gs p99<=%.3gs max=%.3gs",
                  static_cast<unsigned long long>(count), mean,
                  quantile(0.5), quantile(0.99), max_s);
    return buf;
}

json::Value
MetricsSnapshot::toJson() const
{
    json::Value counters_obj = json::Value::object();
    for (const auto &[name, v] : counters)
        counters_obj.set(name, json::Value::number(v));

    json::Value gauges_obj = json::Value::object();
    for (const auto &[name, v] : gauges)
        gauges_obj.set(name, json::Value::number(v));

    json::Value histos_obj = json::Value::object();
    for (const auto &[name, h] : histograms) {
        json::Value buckets = json::Value::array();
        for (const auto &[le_s, n] : h.buckets) {
            json::Value pair = json::Value::array();
            pair.push(json::Value::number(le_s));
            pair.push(json::Value::number(n));
            buckets.push(std::move(pair));
        }
        json::Value hobj = json::Value::object();
        hobj.set("buckets", std::move(buckets));
        hobj.set("count", json::Value::number(h.count));
        hobj.set("max_s", json::Value::number(h.max_s));
        hobj.set("min_s", json::Value::number(h.min_s));
        hobj.set("sum_s", json::Value::number(h.sum_s));
        histos_obj.set(name, std::move(hobj));
    }

    json::Value out = json::Value::object();
    out.set("counters", std::move(counters_obj));
    out.set("gauges", std::move(gauges_obj));
    out.set("histograms", std::move(histos_obj));
    return out;
}

namespace {

/** Read one histogram object; false + error on any shape mismatch. */
bool
histogramFromJson(const json::Value &value, const std::string &path,
                  MetricsSnapshot::HistogramData &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    const json::Value *buckets = r.consume("buckets");
    const json::Value *count = r.consume("count");
    const json::Value *max_s = r.consume("max_s");
    const json::Value *min_s = r.consume("min_s");
    const json::Value *sum_s = r.consume("sum_s");
    if (!r.ok())
        return false;
    if (buckets == nullptr || count == nullptr || max_s == nullptr ||
        min_s == nullptr || sum_s == nullptr)
        return r.fail(
            "histogram needs buckets/count/max_s/min_s/sum_s");
    if (!buckets->isArray() || !count->isNumber() ||
        !max_s->isNumber() || !min_s->isNumber() || !sum_s->isNumber())
        return r.fail("histogram member has the wrong type");
    out.count = count->asUint();
    out.max_s = max_s->asDouble();
    out.min_s = min_s->asDouble();
    out.sum_s = sum_s->asDouble();
    for (const json::Value &pair : buckets->elements()) {
        if (!pair.isArray() || pair.elements().size() != 2 ||
            !pair.elements()[0].isNumber() ||
            !pair.elements()[1].isNumber())
            return r.fail("bucket entries must be [le_s, count] pairs");
        out.buckets.emplace_back(pair.elements()[0].asDouble(),
                                 pair.elements()[1].asUint());
    }
    return r.finish();
}

} // namespace

bool
MetricsSnapshot::fromJson(const json::Value &value,
                          const std::string &path, MetricsSnapshot &out,
                          std::string &error)
{
    out = MetricsSnapshot{};
    json::ObjectReader r(value, path, error);
    const json::Value *counters = r.consume("counters");
    const json::Value *gauges = r.consume("gauges");
    const json::Value *histos = r.consume("histograms");
    if (counters == nullptr || gauges == nullptr || histos == nullptr)
        return r.fail("missing counters/gauges/histograms");
    if (!counters->isObject() || !gauges->isObject() ||
        !histos->isObject())
        return r.fail("counters/gauges/histograms must be objects");
    for (const auto &[name, v] : counters->members()) {
        if (!v.isNumber())
            return r.fail("counter \"" + name + "\" must be a number");
        out.counters[name] = v.asUint();
    }
    for (const auto &[name, v] : gauges->members()) {
        if (!v.isNumber())
            return r.fail("gauge \"" + name + "\" must be a number");
        out.gauges[name] = v.asInt();
    }
    for (const auto &[name, v] : histos->members()) {
        HistogramData h;
        if (!histogramFromJson(v, path + ".histograms." + name, h,
                               error))
            return false;
        out.histograms[name] = std::move(h);
    }
    return r.finish();
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    util::MutexLock lock(mtx_);
    Instrument &in = instruments_[std::string(name)];
    if (!in.counter)
        in.counter.reset(new Counter(&enabled_));
    return *in.counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    util::MutexLock lock(mtx_);
    Instrument &in = instruments_[std::string(name)];
    if (!in.gauge)
        in.gauge.reset(new Gauge(&enabled_));
    return *in.gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    util::MutexLock lock(mtx_);
    Instrument &in = instruments_[std::string(name)];
    if (!in.histogram)
        in.histogram.reset(new Histogram(&enabled_));
    return *in.histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    util::MutexLock lock(mtx_);
    for (const auto &[name, in] : instruments_) {
        if (in.counter)
            snap.counters[name] = in.counter->value();
        if (in.gauge)
            snap.gauges[name] = in.gauge->value();
        if (in.histogram) {
            const Histogram &h = *in.histogram;
            MetricsSnapshot::HistogramData d;
            d.count = h.count_.load(std::memory_order_relaxed);
            d.sum_s = static_cast<double>(
                          h.sum_ns_.load(std::memory_order_relaxed)) *
                      1e-9;
            uint64_t mn = h.min_ns_.load(std::memory_order_relaxed);
            d.min_s = d.count == 0 || mn == UINT64_MAX
                          ? 0.0
                          : static_cast<double>(mn) * 1e-9;
            d.max_s = static_cast<double>(h.max_ns_.load(
                          std::memory_order_relaxed)) *
                      1e-9;
            for (size_t i = 0; i < Histogram::kBuckets; ++i) {
                uint64_t n = h.buckets_[i].load(std::memory_order_relaxed);
                if (n != 0)
                    d.buckets.emplace_back(bucketUpperSeconds(i), n);
            }
            snap.histograms[name] = std::move(d);
        }
    }
    return snap;
}

MetricsRegistry &
globalMetrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace dosa::obs
