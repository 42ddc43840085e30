/**
 * @file
 * Tests of the observability subsystem (src/obs) and its wiring.
 *
 * The load-bearing property is the *invisibility contract*: metrics
 * and tracing, enabled or disabled, may not change a search result by
 * a single bit. The suite pins it directly — every golden fixture
 * reproduced bitwise with observability fully on and fully off —
 * plus the mechanics behind it: exact counters under an 8-thread
 * hammer, byte-stable snapshot JSON round-trips, ring-buffer
 * wraparound accounting, concurrent span recording, Chrome-trace
 * parse-back through util/json, the trace writer's failure path,
 * the service request-lifecycle spans, and the trajectory checker
 * that gates perf CI.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/search_api.hh"
#include "golden.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trajectory.hh"
#include "service/search_service.hh"
#include "service/service_bus.hh"
#include "service/wire.hh"
#include "util/json.hh"
#include "workload/layer.hh"

namespace dosa {
namespace {

using service::Frame;
using service::SearchService;
using service::ServiceBus;
using service::ServiceConfig;

// ---------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------

TEST(Metrics, CounterAndGaugeHammerIsExact)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("test.hammer");
    obs::Gauge &g = reg.gauge("test.level");

    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.add(1);
                g.add(3);
                g.add(-3);
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(c.value(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(g.value(), 0);

    g.set(-7);
    EXPECT_EQ(g.value(), -7);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("test.hammer"),
            uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(snap.gauges.at("test.level"), -7);
}

TEST(Metrics, HistogramHammerCountsEveryRecord)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("test.dur_s");

    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.recordNs(uint64_t(1) << (unsigned(t + i) % 20));
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(h.count(), uint64_t(kThreads) * kPerThread);

    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::MetricsSnapshot::HistogramData &d =
            snap.histograms.at("test.dur_s");
    EXPECT_EQ(d.count, uint64_t(kThreads) * kPerThread);
    uint64_t bucket_total = 0;
    for (const auto &[le_s, n] : d.buckets) {
        EXPECT_GT(le_s, 0.0);
        bucket_total += n;
    }
    EXPECT_EQ(bucket_total, d.count);
    EXPECT_GT(d.sum_s, 0.0);
    EXPECT_LE(d.min_s, d.max_s);
    // Quantiles are monotone upper estimates within [min, max].
    double p50 = d.quantile(0.5), p99 = d.quantile(0.99);
    EXPECT_LE(p50, p99);
    EXPECT_GE(p50, d.min_s);
    EXPECT_LE(p99, d.max_s);
    EXPECT_FALSE(d.str().empty());
}

TEST(Metrics, SnapshotJsonRoundTripIsByteStable)
{
    obs::MetricsRegistry reg;
    reg.counter("b.count").add(42);
    reg.gauge("a.level").set(-3);
    reg.histogram("c.dur_s").record(0.5);
    reg.histogram("c.dur_s").record(1.5e-6);

    obs::MetricsSnapshot snap = reg.snapshot();
    std::string bytes = snap.toJson().dump();
    EXPECT_EQ(bytes, reg.snapshot().toJson().dump())
            << "same state must serialize to same bytes";

    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(bytes, parsed, error)) << error;
    obs::MetricsSnapshot back;
    ASSERT_TRUE(obs::MetricsSnapshot::fromJson(parsed, "snap", back,
            error))
            << error;
    EXPECT_EQ(back.toJson().dump(), bytes);
    EXPECT_EQ(back.counters.at("b.count"), 42u);
    EXPECT_EQ(back.gauges.at("a.level"), -3);
    EXPECT_EQ(back.histograms.at("c.dur_s").count, 2u);

    // Strictness: a histogram missing its required keys is rejected.
    ASSERT_TRUE(json::parse(
            "{\"counters\":{},\"gauges\":{},"
            "\"histograms\":{\"h\":{\"count\":1}}}",
            parsed, error))
            << error;
    EXPECT_FALSE(obs::MetricsSnapshot::fromJson(parsed, "snap", back,
            error));
    EXPECT_FALSE(error.empty());
}

TEST(Metrics, DisabledRegistryRecordsNothing)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("test.gated");
    obs::Gauge &g = reg.gauge("test.gated_level");
    obs::Histogram &h = reg.histogram("test.gated_dur");

    reg.setEnabled(false);
    c.add(5);
    g.set(9);
    h.record(0.25);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    reg.setEnabled(true);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

// ---------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------

/** Restores the global tracer to disabled when a test exits. */
struct GlobalTracerGuard
{
    ~GlobalTracerGuard() { obs::globalTracer().disable(); }
};

/** Names of all events in a Chrome trace document. */
std::set<std::string>
eventNames(const json::Value &doc)
{
    std::set<std::string> names;
    const json::Value *events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return names;
    for (const json::Value &ev : events->elements())
        if (const json::Value *name = ev.find("name"))
            names.insert(name->asString());
    return names;
}

TEST(Trace, SpansParseBackAsChromeTraceJson)
{
    obs::Tracer tracer;
    tracer.enable();
    tracer.recordSpan("phase_a", "test", 1000, 4000);
    tracer.recordSpan("phase_b", "test", 4000, 5000);
    tracer.disable();
    EXPECT_EQ(tracer.eventCount(), 2u);
    EXPECT_EQ(tracer.droppedCount(), 0u);

    std::string bytes = tracer.toJson().dump();
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(bytes, doc, error)) << error;

    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->elements().size(), 2u);

    // Sorted by timestamp; every event is a complete span with the
    // required Chrome keys present and typed.
    double prev_ts = -1.0;
    for (const json::Value &ev : events->elements()) {
        ASSERT_TRUE(ev.isObject());
        for (const char *key : {"name", "cat", "ph"}) {
            const json::Value *v = ev.find(key);
            ASSERT_NE(v, nullptr) << key;
            EXPECT_TRUE(v->isString()) << key;
        }
        for (const char *key : {"ts", "dur", "pid", "tid"}) {
            const json::Value *v = ev.find(key);
            ASSERT_NE(v, nullptr) << key;
            EXPECT_TRUE(v->isNumber()) << key;
        }
        EXPECT_EQ(ev.find("ph")->asString(), "X");
        double ts = ev.find("ts")->asDouble();
        EXPECT_GE(ts, prev_ts);
        prev_ts = ts;
    }
    EXPECT_EQ(events->elements()[0].find("dur")->asDouble(), 3.0);
}

TEST(Trace, RingWraparoundKeepsNewestEvents)
{
    obs::Tracer tracer;
    tracer.setCapacity(4);
    tracer.enable();
    for (uint64_t i = 0; i < 20; ++i)
        tracer.recordSpan("spin", "test", i * 1000, i * 1000 + 10);
    tracer.disable();

    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedCount(), 16u);

    // The survivors are the 4 newest (ts 16..19 ms -> 16000..19000 us
    // ... in ns here; the dump converts to microseconds).
    const json::Value doc = tracer.toJson();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->elements().size(), 4u);
    for (const json::Value &ev : events->elements())
        EXPECT_GE(ev.find("ts")->asDouble(), 16.0); // 16000 ns == 16 us
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer;
    tracer.recordSpan("ghost", "test", 0, 10);
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.nowNs(), 0u);

    // Re-enable drops events of a previous enable.
    tracer.enable();
    tracer.recordSpan("kept", "test", 0, 10);
    tracer.disable();
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.enable();
    EXPECT_EQ(tracer.eventCount(), 0u);
    tracer.disable();
}

TEST(Trace, WriteFileRoundTripsThroughParser)
{
    obs::Tracer tracer;
    tracer.enable();
    tracer.recordSpan("io", "test", 100, 200);
    tracer.disable();

    const std::string path =
            ::testing::TempDir() + "test_obs_trace.json";
    std::string error;
    ASSERT_TRUE(tracer.writeFile(path, error)) << error;

    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    json::Value doc;
    ASSERT_TRUE(json::parse(bytes, doc, error)) << error;
    EXPECT_EQ(eventNames(doc).count("io"), 1u);
}

TEST(Trace, ConcurrentSpansKeepEveryEventAndThreadId)
{
    obs::Tracer tracer;
    tracer.enable();
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&tracer] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                tracer.recordSpan("work", "test", i, i + 1);
        });
    for (std::thread &t : threads)
        t.join();
    tracer.disable();

    EXPECT_EQ(tracer.eventCount(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(tracer.droppedCount(), 0u);
    std::map<uint64_t, uint64_t> per_tid;
    const json::Value doc = tracer.toJson();
    for (const json::Value &ev : doc.find("traceEvents")->elements())
        per_tid[ev.find("tid")->asUint()]++;
    ASSERT_EQ(per_tid.size(), size_t(kThreads));
    for (const auto &[tid, n] : per_tid)
        EXPECT_EQ(n, kPerThread) << "tid " << tid;
}

/** Entries in /proc/self/fd: the process's open descriptors. */
size_t
openFdCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
            std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(Trace, WriteFileFailureClosesTheFile)
{
    if (!std::filesystem::exists("/dev/full") ||
            !std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
    obs::Tracer tracer;
    tracer.enable();
    // A dump larger than stdio's buffer, so the write itself fails.
    for (uint64_t i = 0; i < 2000; ++i)
        tracer.recordSpan("fill", "test", i, i + 1);
    tracer.disable();

    const size_t before = openFdCount();
    std::string error;
    EXPECT_FALSE(tracer.writeFile("/dev/full", error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(openFdCount(), before) << "writeFile leaked its stream";
}

// ---------------------------------------------------------------
// The invisibility contract, end to end.
// ---------------------------------------------------------------

TEST(ObsInvariance, GoldenTracesBitwiseWithObservabilityOnAndOff)
{
    GlobalTracerGuard guard;
    for (const SearchSpec &spec : goldenSpecs()) {
        Golden g;
        readGolden(spec.algorithm, g);
        if (::testing::Test::HasFatalFailure())
            return;

        // Fully off: no metrics recording, no tracing.
        obs::globalMetrics().setEnabled(false);
        obs::globalTracer().disable();
        SearchReport off = runSearch(spec);
        obs::globalMetrics().setEnabled(true);

        // Fully on: metrics plus span tracing.
        obs::globalTracer().enable();
        SearchReport on = runSearch(spec);
        obs::globalTracer().disable();

        expectBitwiseEqual(spec.algorithm + " (obs off)", off.search,
                g);
        expectBitwiseEqual(spec.algorithm + " (obs on)", on.search, g);
    }
}

TEST(ObsInvariance, SearcherPhasesAppearAsSpans)
{
    GlobalTracerGuard guard;
    obs::globalTracer().enable();
    for (const SearchSpec &spec : goldenSpecs())
        runSearch(spec);
    obs::globalTracer().disable();

    std::set<std::string> names = eventNames(obs::globalTracer().toJson());
    // The driver phases, every searcher's own phases and the facade
    // span must all be present.
    for (const char *expected :
            {"setup", "done", "starts", "descent", "merge", "sampling",
             "warmup", "guided", "runSearch"})
        EXPECT_TRUE(names.count(expected))
                << expected << " missing from trace";
}

// ---------------------------------------------------------------
// Service: lifecycle spans, stats frame, bounded windows.
// ---------------------------------------------------------------

/** Receive frames until (and including) a terminal one. */
std::vector<std::string>
collectStream(ServiceBus::Client &client)
{
    std::vector<std::string> frames;
    std::string line;
    while (client.receive(line)) {
        frames.push_back(line);
        Frame f;
        std::string error;
        if (service::decodeFrame(line, f, error) &&
            (f.kind == Frame::Kind::Done ||
                    f.kind == Frame::Kind::Error ||
                    f.kind == Frame::Kind::Pong ||
                    f.kind == Frame::Kind::Stats))
            break;
    }
    return frames;
}

Frame
terminalFrame(const std::vector<std::string> &frames)
{
    Frame f;
    std::string error;
    EXPECT_FALSE(frames.empty());
    if (!frames.empty()) {
        EXPECT_TRUE(service::decodeFrame(frames.back(), f, error))
                << error;
    }
    return f;
}

TEST(ObsService, RequestLifecycleSpansAndEnrichedStatsFrame)
{
    GlobalTracerGuard guard;
    obs::globalTracer().enable();

    SearchSpec spec = goldenSpecs()[2]; // mapper: the cheapest
    Frame stats;
    {
        SearchService svc;
        ServiceBus bus(svc);
        ServiceBus::Client client = bus.connect();

        client.send(service::encodeSearchRequest("r1", spec));
        Frame done = terminalFrame(collectStream(client));
        EXPECT_EQ(done.kind, Frame::Kind::Done);

        client.send(service::encodeStatsRequest("s1"));
        stats = terminalFrame(collectStream(client));
        svc.drain();
    }
    obs::globalTracer().disable();

    // Full request lifecycle on the trace: decode -> queue -> run ->
    // reply, plus the searcher running inside.
    std::set<std::string> names = eventNames(obs::globalTracer().toJson());
    for (const char *expected : {"service.decode", "service.queue",
                 "service.run", "service.reply", "runSearch"})
        EXPECT_TRUE(names.count(expected))
                << expected << " missing from service trace";

    // The stats frame is versioned, reports its retention window and
    // carries the process-wide metrics snapshot.
    ASSERT_EQ(stats.kind, Frame::Kind::Stats);
    EXPECT_EQ(stats.schema, obs::kTelemetrySchema);
    EXPECT_EQ(stats.stats_window, 1024u); // ServiceConfig default
    EXPECT_GE(stats.metrics.counters.at("service.search.admitted"),
            1u);
    EXPECT_GE(stats.metrics.counters.at("api.searches"), 1u);
    EXPECT_GE(stats.metrics.histograms.at("service.search.run_s")
                      .count,
            1u);
}

TEST(ObsService, HistoryAndTimingWindowsAreBounded)
{
    ServiceConfig cfg;
    cfg.stats_window = 4;
    SearchService svc(cfg);
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    for (int i = 0; i < 10; ++i) {
        client.send(service::encodePingRequest(
                "p" + std::to_string(i)));
        Frame f = terminalFrame(collectStream(client));
        EXPECT_EQ(f.kind, Frame::Kind::Pong);
    }

    // All ten requests counted, but history and percentile window
    // retain only the last 4.
    std::vector<service::RequestRecord> history = svc.history();
    EXPECT_EQ(history.size(), 4u);
    EXPECT_EQ(history.back().id, "p9");
    EXPECT_EQ(history.front().id, "p6");

    std::vector<service::EndpointStats> stats = svc.stats();
    ASSERT_EQ(stats.size(), 4u);
    EXPECT_EQ(stats[1].name, "ping");
    EXPECT_EQ(stats[1].requests, 10u);
    EXPECT_EQ(stats[1].processing_s.n, 4u);
}

// ---------------------------------------------------------------
// Trajectory checker.
// ---------------------------------------------------------------

TEST(Trajectory, MetricKindFollowsNamingConvention)
{
    using obs::MetricKind;
    EXPECT_EQ(obs::metricKind("frames_per_s"), MetricKind::HigherBetter);
    EXPECT_EQ(obs::metricKind("samples_per_s"),
            MetricKind::HigherBetter);
    EXPECT_EQ(obs::metricKind("wall_s"), MetricKind::LowerBetter);
    EXPECT_EQ(obs::metricKind("search_p99_s"), MetricKind::LowerBetter);
    EXPECT_EQ(obs::metricKind("scalar_per_cand_us"),
            MetricKind::LowerBetter);
    EXPECT_EQ(obs::metricKind("queue_wait_ns"), MetricKind::LowerBetter);
    EXPECT_EQ(obs::metricKind("unix_time"), MetricKind::Ignored);
    EXPECT_EQ(obs::metricKind("bench"), MetricKind::Context);
    EXPECT_EQ(obs::metricKind("schema"), MetricKind::Context);
    EXPECT_EQ(obs::metricKind("clients"), MetricKind::Context);
}

std::vector<json::Value>
parseLines(const std::string &text)
{
    std::vector<json::Value> lines;
    std::string error;
    EXPECT_TRUE(obs::parseTrajectory(text, lines, error)) << error;
    return lines;
}

TEST(Trajectory, FlagsRegressionsBeyondThreshold)
{
    // wall_s doubled (lower-better) and frames_per_s halved
    // (higher-better): both beyond a 25% threshold.
    auto lines = parseLines(
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":1,"
            "\"wall_s\":1.0,\"frames_per_s\":100.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":2,"
            "\"wall_s\":2.0,\"frames_per_s\":50.0}\n");
    obs::TrajectoryCheck check = obs::checkTrajectory(lines, 0.25);
    EXPECT_TRUE(check.compared);
    EXPECT_FALSE(check.ok);
    EXPECT_EQ(check.regressions.size(), 2u);
    EXPECT_FALSE(check.detail.empty());

    // The same delta passes under a permissive threshold.
    EXPECT_TRUE(obs::checkTrajectory(lines, 1.5).ok);
}

TEST(Trajectory, ImprovementsAndSmallDriftPass)
{
    auto lines = parseLines(
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":1,"
            "\"wall_s\":1.0,\"frames_per_s\":100.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":2,"
            "\"wall_s\":0.5,\"frames_per_s\":110.0}\n");
    obs::TrajectoryCheck check = obs::checkTrajectory(lines, 0.25);
    EXPECT_TRUE(check.compared);
    EXPECT_TRUE(check.ok);
    EXPECT_TRUE(check.regressions.empty());
}

TEST(Trajectory, ContextMismatchMeansNotComparable)
{
    // Different mode: the newest line has no comparable prior.
    auto lines = parseLines(
            "{\"bench\":\"b\",\"mode\":\"full\",\"unix_time\":1,"
            "\"wall_s\":1.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":2,"
            "\"wall_s\":9.0}\n");
    obs::TrajectoryCheck check = obs::checkTrajectory(lines, 0.25);
    EXPECT_FALSE(check.compared);
    EXPECT_TRUE(check.ok);

    // A line without `schema` is schema 1 (the pre-versioning seed
    // format), so it stays comparable with stamped lines.
    auto mixed = parseLines(
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":1,"
            "\"wall_s\":1.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"schema\":1,"
            "\"unix_time\":2,\"wall_s\":1.1}\n");
    obs::TrajectoryCheck mixed_check =
            obs::checkTrajectory(mixed, 0.25);
    EXPECT_TRUE(mixed_check.compared);
    EXPECT_TRUE(mixed_check.ok);

    // The comparable prior is the *most recent* matching line, not
    // the first: old=4.0 vs new=1.0 passes even though line 1 (0.1)
    // would have failed.
    auto scan = parseLines(
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":1,"
            "\"wall_s\":0.1}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":2,"
            "\"wall_s\":4.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":3,"
            "\"wall_s\":1.0}\n");
    EXPECT_TRUE(obs::checkTrajectory(scan, 0.25).ok);
}

TEST(Trajectory, NoBaselineIsExplicitAndPasses)
{
    // Empty prior (fresh BENCH file, or a single first run): the
    // check passes and says why nothing was compared, so the
    // check_trajectory gate can exit 0 with an explicit note
    // instead of silently falling through.
    obs::TrajectoryCheck empty =
            obs::checkTrajectory({}, 0.25);
    EXPECT_TRUE(empty.ok);
    EXPECT_FALSE(empty.compared);
    EXPECT_EQ(empty.detail,
            "no baseline: fewer than two lines; nothing to compare\n");

    auto single = parseLines(
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":1,"
            "\"wall_s\":1.0}\n");
    obs::TrajectoryCheck first = obs::checkTrajectory(single, 0.25);
    EXPECT_TRUE(first.ok);
    EXPECT_FALSE(first.compared);
    EXPECT_EQ(first.detail,
            "no baseline: fewer than two lines; nothing to compare\n");

    // Context change (same bench, new mode): prior lines exist but
    // none is comparable — same explicit no-baseline outcome.
    auto mismatch = parseLines(
            "{\"bench\":\"b\",\"mode\":\"full\",\"unix_time\":1,"
            "\"wall_s\":1.0}\n"
            "{\"bench\":\"b\",\"mode\":\"quick\",\"unix_time\":2,"
            "\"wall_s\":9.0}\n");
    obs::TrajectoryCheck check = obs::checkTrajectory(mismatch, 0.25);
    EXPECT_TRUE(check.ok);
    EXPECT_FALSE(check.compared);
    EXPECT_EQ(check.detail,
            "no baseline: no prior line with a matching context; "
            "nothing to compare\n");
}

TEST(Trajectory, ParserRejectsMalformedLines)
{
    std::vector<json::Value> lines;
    std::string error;
    EXPECT_FALSE(obs::parseTrajectory(
            "{\"bench\":\"b\"}\nnot json\n", lines, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;

    EXPECT_FALSE(obs::parseTrajectory("[1,2]\n", lines, error));

    lines.clear();
    EXPECT_TRUE(obs::parseTrajectory("\n\n", lines, error)) << error;
    EXPECT_TRUE(lines.empty());
    EXPECT_FALSE(obs::checkTrajectory(lines, 0.25).compared);
}

} // namespace
} // namespace dosa
