/**
 * @file
 * Tests of the search service stack: canonical SearchSpec JSON
 * round-trips (fixed and fuzzed), strict wire decoding of hostile
 * request/frame bytes, the fatal-by-contract spec loaders, and the
 * service core over the in-process bus — byte-identical streaming
 * equivalence with direct `runSearch` for all four searchers
 * (anchored to the tests/golden/ fixtures), concurrent-determinism,
 * fault injection (client disconnect, deadline expiry, queue-full
 * admission, shutdown) and the TCP transport: an end-to-end pass,
 * loopback round-trip latency, the request-line cap and the release
 * of a departed client's socket.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/search_api.hh"
#include "api/spec_json.hh"
#include "golden.hh"
#include "service/search_service.hh"
#include "service/service_bus.hh"
#include "service/tcp_server.hh"
#include "service/wire.hh"
#include "util/rng.hh"
#include "workload/layer.hh"
#include "workload/workload_registry.hh"

namespace dosa {
namespace {

using service::Frame;
using service::Request;
using service::SearchService;
using service::ServiceBus;
using service::ServiceConfig;

/**
 * Observer producing exactly the frames the service's streaming
 * bridge would: the reference stream for equivalence tests.
 */
class FrameRecorder : public SearchObserver
{
  public:
    explicit FrameRecorder(std::string id) : id_(std::move(id)) {}

    void
    onPhase(const char *phase) override
    {
        frames.push_back(service::phaseFrame(id_, phase));
    }

    bool
    onSample(const SampleEvent &event) override
    {
        frames.push_back(service::sampleFrame(id_, event));
        return true;
    }

    void
    onImprovement(const SampleEvent &event) override
    {
        frames.push_back(service::improvementFrame(id_, event));
    }

    void
    onFrontier(const FrontierEvent &event) override
    {
        frames.push_back(service::frontierFrame(id_, event));
    }

    std::vector<std::string> frames;

  private:
    std::string id_;
};

/** Direct-run reference stream for `spec`, terminal `done` included. */
std::vector<std::string>
expectedStream(const std::string &id, const SearchSpec &spec)
{
    FrameRecorder recorder(id);
    SearchReport report = runSearch(spec, &recorder);
    recorder.frames.push_back(service::doneFrame(id, report));
    return recorder.frames;
}

bool
isTerminal(const std::string &line)
{
    Frame f;
    std::string error;
    if (!service::decodeFrame(line, f, error))
        return true; // malformed replies end a stream in tests
    return f.kind == Frame::Kind::Done ||
           f.kind == Frame::Kind::Error ||
           f.kind == Frame::Kind::Pong ||
           f.kind == Frame::Kind::Stats;
}

/** Drain one client's reply stream through its terminal frame. */
std::vector<std::string>
collectStream(ServiceBus::Client &client)
{
    std::vector<std::string> frames;
    std::string frame;
    while (client.receive(frame)) {
        frames.push_back(frame);
        if (isTerminal(frame))
            break;
    }
    return frames;
}

/** Decoded terminal frame of a collected stream. */
Frame
terminalFrame(const std::vector<std::string> &frames)
{
    Frame f;
    std::string error;
    EXPECT_FALSE(frames.empty());
    if (!frames.empty()) {
        EXPECT_TRUE(service::decodeFrame(frames.back(), f, error))
                << frames.back() << ": " << error;
    }
    return f;
}

// ---------------------------------------------------------------
// SearchSpec JSON: canonical round-trips.
// ---------------------------------------------------------------

TEST(SpecJson, GoldenSpecsRoundTripBitwise)
{
    for (const SearchSpec &spec : goldenSpecs()) {
        const std::string once = specToJson(spec);
        SearchSpec decoded;
        std::string error;
        ASSERT_TRUE(specFromJson(once, decoded, error))
                << spec.algorithm << ": " << error;
        EXPECT_EQ(specToJson(decoded), once) << spec.algorithm;
        // And the decoded spec is semantically intact.
        EXPECT_EQ(decoded.algorithm, spec.algorithm);
        EXPECT_EQ(decoded.seed, spec.seed);
        EXPECT_EQ(decoded.workload.size(), spec.workload.size());
    }
}

/** A randomized but decodable spec (options from the registry). */
SearchSpec
randomSpec(Rng &rng)
{
    SearchSpec spec;
    const std::vector<std::string> algos = Search::algorithms();
    spec.algorithm = algos[size_t(rng.uniformInt(0,
            int64_t(algos.size()) - 1))];
    int layers = int(rng.uniformInt(1, 3));
    for (int i = 0; i < layers; ++i) {
        if (rng.bernoulli(0.5))
            spec.workload.push_back(Layer::gemm(
                    "g" + std::to_string(i),
                    rng.uniformInt(1, 512), rng.uniformInt(1, 512),
                    rng.uniformInt(1, 512)));
        else
            spec.workload.push_back(Layer::conv(
                    "c" + std::to_string(i), rng.uniformInt(1, 7),
                    rng.uniformInt(1, 64), rng.uniformInt(1, 128),
                    rng.uniformInt(1, 128), rng.uniformInt(1, 2)));
    }
    // Sometimes a by-name spec: the name must survive the trip even
    // when it is not (yet) registered on the decoding side.
    if (rng.bernoulli(0.2)) {
        spec.workload.clear();
        spec.workload_name =
                "net-" + std::to_string(rng.uniformInt(0, 99));
    }
    // Full-range 64-bit seeds must survive the trip.
    spec.seed = (uint64_t(rng.uniformInt(0, 0xffffffff)) << 32) |
            uint64_t(rng.uniformInt(0, 0xffffffff));
    spec.jobs = int(rng.uniformInt(0, 8));
    spec.budget.max_samples = int(rng.uniformInt(0, 1000000));
    spec.budget.deadline_s = rng.bernoulli(0.5)
            ? 0.0
            : rng.uniformReal(1e-17, 1e6);
    // Hardware sizes: one draw in five is below 1, which the codec
    // must carry and validateSpec must reject.
    auto size = [&rng](int64_t hi) {
        return rng.bernoulli(0.2) ? rng.uniformInt(-64, 0)
                                  : rng.uniformInt(1, hi);
    };
    spec.mode.fix_pe = rng.bernoulli(0.5);
    spec.mode.pe_dim = size(64);
    spec.mode.penalty_weight = rng.uniformReal(1e-9, 1e3);
    spec.mode.max_area_mm2 = rng.bernoulli(0.5)
            ? 0.0
            : rng.uniformReal(0.1, 100.0);
    int weights = int(rng.uniformInt(0, 3));
    for (int i = 0; i < weights; ++i)
        spec.mode.layer_weights.push_back(
                rng.uniformReal(1e-6, 10.0));
    // Multi-objective mode fields, including combinations validation
    // would reject — the codec must round-trip them regardless.
    spec.mode.pareto.edp.enabled = rng.bernoulli(0.8);
    spec.mode.pareto.area.enabled = rng.bernoulli(0.5);
    spec.mode.pareto.power.enabled = rng.bernoulli(0.5);
    for (ParetoAxis *axis : {&spec.mode.pareto.edp,
                 &spec.mode.pareto.area, &spec.mode.pareto.power})
        if (rng.bernoulli(0.6)) {
            double exotic[] = {rng.uniformReal(1e-6, 10.0),
                    rng.uniformReal(-1e300, 1e300), 4.9e-324,
                    1.0 / 3.0};
            axis->weight = exotic[rng.uniformInt(0, 3)];
        }
    const Searcher *searcher = Search::find(spec.algorithm);
    for (const SearcherOption &option : searcher->options())
        if (rng.bernoulli(0.6)) {
            // Exotic magnitudes: tiny, huge, negative, denormal.
            double exotic[] = {rng.uniformReal(0.0, 100.0),
                    rng.uniformReal(-1e300, 1e300), 4.9e-324,
                    1.0 / 3.0};
            spec.options.set(std::string(option.key),
                    exotic[rng.uniformInt(0, 3)]);
        }
    spec.fixed_hw.pe_dim = size(64);
    spec.fixed_hw.accum_kib = size(4096);
    spec.fixed_hw.spad_kib = size(4096);
    return spec;
}

TEST(SpecJson, FuzzedSpecsRoundTripBitwise)
{
    Rng rng(0xD05A5EED);
    int bad_sizes = 0;
    for (int iter = 0; iter < 200; ++iter) {
        SearchSpec spec = randomSpec(rng);
        const std::string once = specToJson(spec);
        SearchSpec decoded;
        std::string error;
        ASSERT_TRUE(specFromJson(once, decoded, error))
                << once << ": " << error;
        ASSERT_EQ(specToJson(decoded), once) << "iteration " << iter;
        EXPECT_EQ(decoded.seed, spec.seed);
        EXPECT_EQ(decoded.budget.max_samples,
                spec.budget.max_samples);
        const HardwareConfig &hw = decoded.fixed_hw;
        if (hw.pe_dim < 1 || hw.accum_kib < 1 || hw.spad_kib < 1 ||
            (decoded.mode.fix_pe && decoded.mode.pe_dim < 1)) {
            ++bad_sizes;
            EXPECT_FALSE(validateSpec(decoded, error)) << once;
        }
    }
    EXPECT_GT(bad_sizes, 0);
}

TEST(SpecJson, EveryAdmittedDeadlineRoundTripsAndRunsTheSame)
{
    // validateSpec admits +inf (a wire 1e400 decodes to it); it
    // encodes as 0, the "no deadline" that runs identically.
    for (double deadline : {0.0, 7.0, 1e10, 1e300,
                 std::numeric_limits<double>::infinity()}) {
        SearchSpec spec = goldenMapperSpec();
        spec.budget.deadline_s = deadline;
        std::string error;
        ASSERT_TRUE(validateSpec(spec, error)) << deadline << ": " << error;
        SearchSpec decoded;
        ASSERT_TRUE(specFromJson(specToJson(spec), decoded, error))
                << deadline << ": " << error;
        ASSERT_TRUE(validateSpec(decoded, error))
                << deadline << ": " << error;
        EXPECT_EQ(runSearch(decoded).search.trace,
                runSearch(spec).search.trace)
                << deadline;
    }
}

TEST(SpecJson, RejectsUnknownKeysTypeMismatchesAndBadEnums)
{
    SearchSpec decoded;
    std::string error;

    EXPECT_FALSE(specFromJson("{\"bogus\":1}", decoded, error));
    EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos);

    EXPECT_FALSE(specFromJson("{\"algorithm\":7}", decoded, error));
    EXPECT_NE(error.find("algorithm"), std::string::npos);

    // `cache` is no longer a spec key, so even its old default value
    // is an unknown key.
    EXPECT_FALSE(specFromJson("{\"cache\":\"inherit\"}", decoded,
            error));
    EXPECT_NE(error.find("unknown key \"cache\""), std::string::npos);

    EXPECT_FALSE(specFromJson(
            "{\"workload\":[{\"name\":\"x\",\"r\":\"no\"}]}", decoded,
            error));
    EXPECT_NE(error.find("workload[0]"), std::string::npos);

    EXPECT_FALSE(specFromJson("{\"budget\":{\"max_samples\":true}}",
            decoded, error));
    EXPECT_NE(error.find("budget"), std::string::npos);

    EXPECT_FALSE(specFromJson("not json at all", decoded, error));
    EXPECT_FALSE(error.empty());

    // jobs and max_samples are int fields: a wider value fails with
    // its path instead of wrapping (2^32 + 1 used to decode as 1).
    for (const char *text : {
                 "{\"budget\":{\"max_samples\":4294967297}}",
                 "{\"jobs\":4294967300}", "{\"jobs\":2147483648}"}) {
        EXPECT_FALSE(specFromJson(text, decoded, error)) << text;
        EXPECT_NE(error.find("is outside the range of int"),
                std::string::npos)
                << error;
    }
    EXPECT_NE(error.find("spec: jobs: 2147483648"), std::string::npos)
            << error;
    ASSERT_TRUE(specFromJson("{\"jobs\":2147483647}", decoded, error))
            << error;
    EXPECT_EQ(decoded.jobs, std::numeric_limits<int>::max());

    // Option values are doubles on the wire and decode; validateSpec,
    // which every runSearch and service admission runs, rejects one
    // no adapter could narrow to int.
    for (const char *value : {"1e300", "4294967297"}) {
        const std::string text = std::string(
                "{\"algorithm\":\"mapper\",\"workload_name\":"
                "\"alexnet\",\"options\":{\"samples\":") + value + "}}";
        ASSERT_TRUE(specFromJson(text, decoded, error)) << error;
        EXPECT_FALSE(validateSpec(decoded, error)) << value;
        EXPECT_NE(error.find("option \"samples\""), std::string::npos)
                << error;
    }
}

TEST(SpecJson, MutatedCanonicalBytesNeverCrashTheDecoder)
{
    const std::string canon = specToJson(goldenDosaSpec());
    Rng rng(0xBADC0DE5);
    size_t accepted = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        std::string doc = canon;
        int edits = int(rng.uniformInt(1, 3));
        for (int e = 0; e < edits && !doc.empty(); ++e) {
            size_t pos = size_t(
                    rng.uniformInt(0, int64_t(doc.size()) - 1));
            if (rng.bernoulli(0.5))
                doc[pos] = char(rng.uniformInt(0, 255));
            else
                doc.erase(pos, 1);
        }
        SearchSpec decoded;
        std::string error;
        if (specFromJson(doc, decoded, error))
            ++accepted;
        else
            EXPECT_FALSE(error.empty());
    }
    EXPECT_LT(accepted, 1000u);

    // Every truncation of the canonical bytes is rejected cleanly.
    for (size_t len = 0; len < canon.size(); ++len) {
        SearchSpec decoded;
        std::string error;
        EXPECT_FALSE(specFromJson(canon.substr(0, len), decoded,
                error))
                << "prefix length " << len;
    }
}

TEST(SpecJsonDeathTest, MustSpecFromJsonIsFatalOnBadFixtures)
{
    EXPECT_EXIT((void)mustSpecFromJson("{\"algorithm\":"),
            ::testing::ExitedWithCode(1), "mustSpecFromJson");
    EXPECT_EXIT((void)mustSpecFromJson("{\"no_such_field\":1}"),
            ::testing::ExitedWithCode(1), "unknown key");
}

TEST(SpecJsonDeathTest, EncoderPanicsOnProcessLocalFields)
{
    SearchSpec spec = goldenMapperSpec();
    spec.scorer = LatencyScorer([](const Layer &, const Mapping &,
                                        const HardwareConfig &) {
        return 1.0;
    });
    EXPECT_DEATH((void)specToJson(spec), "process-local");
}

TEST(SpecJsonDeathTest, EncoderPanicsOnANaNDeadline)
{
    SearchSpec spec = goldenMapperSpec();
    spec.budget.deadline_s = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH((void)specToJson(spec), "non-finite");
}

// ---------------------------------------------------------------
// Wire protocol: request and frame codecs.
// ---------------------------------------------------------------

TEST(Wire, RequestsRoundTrip)
{
    const SearchSpec spec = goldenRandomSpec();
    Request req;
    std::string error;

    ASSERT_TRUE(service::decodeRequest(
            service::encodeSearchRequest("r-1", spec), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Search);
    EXPECT_EQ(req.id, "r-1");
    EXPECT_EQ(specToJson(req.spec), specToJson(spec));

    ASSERT_TRUE(service::decodeRequest(
            service::encodeStatsRequest("r-2"), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Stats);
    EXPECT_EQ(req.id, "r-2");

    ASSERT_TRUE(service::decodeRequest(
            service::encodePingRequest("r-3"), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Ping);
    EXPECT_EQ(req.id, "r-3");
}

TEST(Wire, RequestDecodingIsStrictAndRecoversTheId)
{
    Request req;
    std::string error;

    EXPECT_FALSE(service::decodeRequest("garbage", req, error));
    EXPECT_TRUE(req.id.empty());

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"teleport\",\"id\":\"x\"}", req, error));
    EXPECT_EQ(req.id, "x"); // recovered for the error reply
    EXPECT_NE(error.find("unknown endpoint"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"ping\",\"id\":\"x\",\"extra\":1}", req,
            error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"search\",\"id\":\"x\"}", req, error));
    EXPECT_NE(error.find("spec"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest("{\"endpoint\":\"ping\"}",
            req, error));
    EXPECT_NE(error.find("id"), std::string::npos);
}

TEST(Wire, FramesRoundTrip)
{
    Frame f;
    std::string error;

    ASSERT_TRUE(service::decodeFrame(
            service::phaseFrame("a", "descent"), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Phase);
    EXPECT_EQ(f.id, "a");
    EXPECT_EQ(f.phase, "descent");

    SampleEvent ev{41, 2.5e-7, 1.25e-7, false};
    ASSERT_TRUE(service::decodeFrame(service::sampleFrame("a", ev),
            f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Sample);
    EXPECT_EQ(f.sample.index, 41u);
    EXPECT_EQ(f.sample.edp, 2.5e-7);
    EXPECT_EQ(f.sample.best_edp, 1.25e-7);
    EXPECT_FALSE(f.sample.improved);

    // +inf EDP (a rejected design) survives via the string form.
    SampleEvent inf_ev{0,
            std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity(), false};
    ASSERT_TRUE(service::decodeFrame(
            service::improvementFrame("a", inf_ev), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Improvement);
    EXPECT_TRUE(std::isinf(f.sample.edp));

    FrontierEvent front_ev{17, 2.5e-7, 3.75, 0.5, 4};
    ASSERT_TRUE(service::decodeFrame(
            service::frontierFrame("a", front_ev), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Frontier);
    EXPECT_EQ(f.frontier.index, 17u);
    EXPECT_EQ(f.frontier.edp, 2.5e-7);
    EXPECT_EQ(f.frontier.area_mm2, 3.75);
    EXPECT_EQ(f.frontier.power_w, 0.5);
    EXPECT_EQ(f.frontier.front_size, 4u);

    SearchReport report;
    report.search.best_edp = 3.25e-6;
    report.search.best_hw = HardwareConfig{32, 64, 256};
    report.search.best_mappings.push_back(Mapping{});
    report.search.trace = {5.0, 4.0, 3.25e-6};
    report.best_start_edp = 7.5;
    report.best_start_hw = HardwareConfig{16, 32, 128};
    // A multi-objective run's final front rides the done frame
    // (metrics and hardware; mappings stay in-process).
    ParetoObjectives axes;
    axes.area.enabled = true;
    axes.power.enabled = true;
    report.search.frontier.configure(axes);
    ParetoPoint point;
    point.edp = 3.25e-6;
    point.area_mm2 = 12.5;
    point.power_w = 0.75;
    point.sample_index = 2;
    point.hw = HardwareConfig{32, 64, 256};
    ASSERT_TRUE(report.search.frontier.consider(point));
    ASSERT_TRUE(service::decodeFrame(
            service::doneFrame("a", report), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Done);
    EXPECT_EQ(f.best_edp, 3.25e-6);
    EXPECT_EQ(f.best_start_edp, 7.5);
    EXPECT_EQ(f.best_hw.pe_dim, 32);
    EXPECT_EQ(f.best_start_hw.spad_kib, 128);
    EXPECT_EQ(f.samples, 3u);
    ASSERT_EQ(f.best_mappings.size(), 1u);
    EXPECT_EQ(f.best_mappings[0], Mapping{});
    ASSERT_EQ(f.pareto_front.size(), 1u);
    EXPECT_EQ(f.pareto_front[0].index, 2u);
    EXPECT_EQ(f.pareto_front[0].edp, 3.25e-6);
    EXPECT_EQ(f.pareto_front[0].area_mm2, 12.5);
    EXPECT_EQ(f.pareto_front[0].power_w, 0.75);
    EXPECT_EQ(f.pareto_front[0].hw, (HardwareConfig{32, 64, 256}));

    ASSERT_TRUE(service::decodeFrame(
            service::errorFrame("a", service::errc::queue_full,
                    "full"),
            f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.code, "queue_full");
    EXPECT_EQ(f.message, "full");

    ASSERT_TRUE(service::decodeFrame(service::pongFrame("a"), f,
            error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Pong);

    service::EndpointStats ep;
    ep.name = "search";
    ep.requests = 3;
    ep.errors = 1;
    ep.last_error = "bad";
    ep.processing_s = Summary::of({0.25, 0.5, 1.0});
    ASSERT_TRUE(service::decodeFrame(
            service::statsFrame("a", "svc", "1.0.0", {ep}), f,
            error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Stats);
    EXPECT_EQ(f.service_name, "svc");
    ASSERT_EQ(f.endpoints.size(), 1u);
    EXPECT_EQ(f.endpoints[0].requests, 3u);
    EXPECT_EQ(f.endpoints[0].processing_s.n, 3u);
    EXPECT_EQ(f.endpoints[0].processing_s.p50, 0.5);
}

TEST(Wire, FrameDecodingIsStrict)
{
    Frame f;
    std::string error;
    EXPECT_FALSE(service::decodeFrame("{}", f, error));
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"pong\",\"id\":\"a\",\"x\":1}", f, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"sample\",\"id\":\"a\"}", f, error));
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"warp\",\"id\":\"a\"}", f, error));
    EXPECT_NE(error.find("unknown event"), std::string::npos);
}

// ---------------------------------------------------------------
// Service over the in-process bus.
// ---------------------------------------------------------------

TEST(Service, PingAndStatsAnswerInline)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    client.send(service::encodePingRequest("p1"));
    std::vector<std::string> pong = collectStream(client);
    ASSERT_EQ(pong.size(), 1u);
    Frame f = terminalFrame(pong);
    EXPECT_EQ(f.kind, Frame::Kind::Pong);
    EXPECT_EQ(f.id, "p1");

    client.send(service::encodeStatsRequest("s1"));
    Frame stats = terminalFrame(collectStream(client));
    ASSERT_EQ(stats.kind, Frame::Kind::Stats);
    EXPECT_EQ(stats.service_name, "dosa-search");
    ASSERT_EQ(stats.endpoints.size(), 4u); // sorted by name
    EXPECT_EQ(stats.endpoints[0].name, "_protocol");
    EXPECT_EQ(stats.endpoints[1].name, "ping");
    EXPECT_EQ(stats.endpoints[2].name, "search");
    EXPECT_EQ(stats.endpoints[3].name, "stats");
    EXPECT_EQ(stats.endpoints[1].requests, 1u); // the ping above
}

TEST(Service, MalformedAndInvalidRequestsGetTypedErrors)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    // Unparseable line -> bad_request on the _protocol endpoint.
    client.send("this is not json");
    Frame f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.code, service::errc::bad_request);

    // Unknown algorithm -> bad_spec, with the registry listed.
    SearchSpec bad = goldenMapperSpec();
    bad.algorithm = "simulated-annealing";
    client.send(service::encodeSearchRequest("b1", bad));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.id, "b1");
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("mapper"), std::string::npos);

    // Unknown option key for a known algorithm -> bad_spec.
    SearchSpec bad_opt = goldenMapperSpec();
    bad_opt.options.set("warp_factor", 9.0);
    client.send(service::encodeSearchRequest("b2", bad_opt));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.code, service::errc::bad_spec);

    // An option value no adapter could narrow to int -> bad_spec.
    SearchSpec bad_range = goldenMapperSpec();
    bad_range.options.set("samples", 1e300);
    client.send(service::encodeSearchRequest("b3", bad_range));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("samples"), std::string::npos);

    // A value inside int that would divide by zero in the descent
    // schedule -> bad_spec, and the daemon keeps serving.
    SearchSpec bad_modulus = goldenDosaSpec();
    bad_modulus.options.set("round_every", 0);
    client.send(service::encodeSearchRequest("b4", bad_modulus));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.id, "b4");
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("option \"round_every\""),
            std::string::npos)
            << f.message;
    client.send(service::encodeSearchRequest("ok", goldenMapperSpec()));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Done);
    EXPECT_EQ(f.id, "ok");

    // The done frame goes out before the worker accounts the request.
    svc.drain();
    std::vector<service::EndpointStats> stats = svc.stats();
    ASSERT_EQ(stats.size(), 4u);
    EXPECT_EQ(stats[0].requests, 1u); // _protocol
    EXPECT_EQ(stats[0].errors, 1u);
    EXPECT_EQ(stats[2].requests, 5u); // search
    EXPECT_EQ(stats[2].errors, 4u);
    EXPECT_FALSE(stats[2].last_error.empty());
}

TEST(Service, OutOfDomainSpecsGetBadSpecAndServingContinues)
{
    // Each of these specs took the process down before validateSpec
    // checked it: the mapper with fixed_hw.pe_dim 0 or -4 (SIGSEGV in
    // the random mapping draw), dosa with mode.fix_pe and pe_dim 0 (a
    // panic in start generation) and dosa on bert with two
    // mode.layer_weights (a panic in the objective's size check).
    std::vector<std::pair<SearchSpec, std::string>> bad;
    for (int64_t value : {int64_t(0), int64_t(-4)}) {
        SearchSpec spec = goldenMapperSpec();
        spec.fixed_hw.pe_dim = value;
        bad.emplace_back(spec, "fixed_hw.pe_dim");
    }
    SearchSpec accum = goldenMapperSpec();
    accum.fixed_hw.accum_kib = 0;
    bad.emplace_back(accum, "fixed_hw.accum_kib");
    SearchSpec spad = goldenRandomSpec();
    spad.fixed_hw.spad_kib = -1;
    bad.emplace_back(spad, "fixed_hw.spad_kib");
    SearchSpec fixed_pe = goldenDosaSpec();
    fixed_pe.mode.fix_pe = true;
    fixed_pe.mode.pe_dim = 0;
    bad.emplace_back(fixed_pe, "mode.pe_dim");
    SearchSpec weights = goldenDosaSpec();
    weights.workload.clear();
    weights.workload_name = "bert";
    weights.mode.layer_weights = {1.0, 2.0};
    bad.emplace_back(weights, "mode.layer_weights");

    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();
    for (size_t i = 0; i < bad.size(); ++i) {
        const auto &[spec, field] = bad[i];
        const std::string id = "hw" + std::to_string(i);
        client.send(service::encodeSearchRequest(id, spec));
        Frame f = terminalFrame(collectStream(client));
        EXPECT_EQ(f.kind, Frame::Kind::Error) << field;
        EXPECT_EQ(f.id, id);
        EXPECT_EQ(f.code, service::errc::bad_spec) << field;
        EXPECT_NE(f.message.find(field), std::string::npos) << f.message;
        // The next search on the same connection still runs.
        client.send(service::encodeSearchRequest("ok" + id,
                goldenMapperSpec()));
        f = terminalFrame(collectStream(client));
        EXPECT_EQ(f.kind, Frame::Kind::Done) << f.message;
        EXPECT_EQ(f.id, "ok" + id);
    }
}

TEST(Service, StreamsAreByteIdenticalToDirectRunsAndGoldens)
{
    const char *names[] = {"dosa", "random", "mapper", "bayesopt"};
    std::vector<SearchSpec> specs = goldenSpecs();

    SearchService svc;
    ServiceBus bus(svc);
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string id = std::string("gold-") + names[i];
        std::vector<std::string> expected =
                expectedStream(id, specs[i]);

        ServiceBus::Client client = bus.connect();
        client.send(service::encodeSearchRequest(id, specs[i]));
        std::vector<std::string> streamed = collectStream(client);

        ASSERT_EQ(streamed.size(), expected.size()) << names[i];
        size_t mismatches = 0;
        for (size_t j = 0; j < expected.size(); ++j)
            if (streamed[j] != expected[j])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u)
                << names[i] << ": streamed frames drifted from the "
                << "direct runSearch stream";

        // The terminal frame also matches the checked-in fixture.
        Frame done = terminalFrame(streamed);
        ASSERT_EQ(done.kind, Frame::Kind::Done) << names[i];
        Golden g;
        readGolden(names[i], g);
        if (::testing::Test::HasFatalFailure())
            return;
        EXPECT_EQ(done.best_edp, g.best_edp) << names[i];
        EXPECT_EQ(done.samples, g.trace.size()) << names[i];
        EXPECT_EQ(done.best_hw.pe_dim, g.pe_dim) << names[i];
        EXPECT_EQ(done.best_hw.accum_kib, g.accum_kib) << names[i];
        EXPECT_EQ(done.best_hw.spad_kib, g.spad_kib) << names[i];
    }
}

TEST(Service, MultiObjectiveStreamsMatchDirectRunsForAllSearchers)
{
    // The acceptance bar of the Pareto mode: with area and power
    // enabled, the service stream — frontier frames interleaved in
    // trace order plus the final front on the done frame — is
    // frame-for-frame identical to a direct runSearch for all four
    // searchers.
    const char *names[] = {"dosa", "random", "mapper", "bayesopt"};
    std::vector<SearchSpec> specs = goldenSpecs();
    for (SearchSpec &spec : specs) {
        spec.mode.pareto.area.enabled = true;
        spec.mode.pareto.power.enabled = true;
    }

    SearchService svc;
    ServiceBus bus(svc);
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string id = std::string("pareto-") + names[i];
        std::vector<std::string> expected =
                expectedStream(id, specs[i]);

        ServiceBus::Client client = bus.connect();
        client.send(service::encodeSearchRequest(id, specs[i]));
        std::vector<std::string> streamed = collectStream(client);

        ASSERT_EQ(streamed.size(), expected.size()) << names[i];
        for (size_t j = 0; j < expected.size(); ++j)
            EXPECT_EQ(streamed[j], expected[j])
                    << names[i] << " frame " << j;

        // The stream really exercised the new frame kind, and the
        // done frame carries a non-empty decoded front.
        size_t frontier_frames = 0;
        for (const std::string &line : streamed) {
            Frame f;
            std::string error;
            ASSERT_TRUE(service::decodeFrame(line, f, error))
                    << error;
            if (f.kind == Frame::Kind::Frontier)
                ++frontier_frames;
        }
        EXPECT_GT(frontier_frames, 0u) << names[i];
        Frame done = terminalFrame(streamed);
        ASSERT_EQ(done.kind, Frame::Kind::Done) << names[i];
        EXPECT_FALSE(done.pareto_front.empty()) << names[i];
        EXPECT_GE(frontier_frames, done.pareto_front.size())
                << names[i];
    }
}

TEST(Service, ByNameSearchOfFileLoadedWorkloadStreamsIdentically)
{
    // The daemon path end to end: load a checked-in workload file,
    // register it, and search it by name over the bus. The stream
    // must be byte-identical to a direct run with the same layers
    // inlined — by-name resolution adds nothing to the wire.
    Network net;
    std::string error;
    ASSERT_TRUE(loadWorkloadFile(
            DOSA_SOURCE_DIR "/workloads/bert.json", net, error))
            << error;
    net.name = "service-file-bert";
    Workloads::registerWorkload(net);

    SearchSpec by_name;
    by_name.algorithm = "mapper";
    by_name.workload_name = "service-file-bert";
    by_name.seed = 17;
    by_name.options.set("samples", 40);

    SearchSpec inline_spec = by_name;
    inline_spec.workload_name.clear();
    inline_spec.workload = net.layers;

    const std::string id = "by-name";
    std::vector<std::string> expected =
            expectedStream(id, inline_spec);

    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();
    client.send(service::encodeSearchRequest(id, by_name));
    std::vector<std::string> streamed = collectStream(client);

    ASSERT_EQ(streamed.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j)
        EXPECT_EQ(streamed[j], expected[j]) << "frame " << j;

    Frame done = terminalFrame(streamed);
    ASSERT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_GT(done.samples, 0u);
}

TEST(Service, ConcurrentClientsReceiveByteIdenticalStreams)
{
    const SearchSpec spec = goldenMapperSpec();
    const std::string id = "conc";
    const std::vector<std::string> expected = expectedStream(id, spec);

    ServiceConfig cfg;
    cfg.max_concurrent = 2; // overlap + queueing with 3 clients
    SearchService svc(cfg);
    ServiceBus bus(svc);

    constexpr int kClients = 3;
    std::vector<std::vector<std::string>> streams(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            ServiceBus::Client client = bus.connect();
            client.send(service::encodeSearchRequest(id, spec));
            streams[size_t(i)] = collectStream(client);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_EQ(streams[size_t(i)].size(), expected.size())
                << "client " << i;
        EXPECT_EQ(streams[size_t(i)], expected) << "client " << i;
    }
}

// ---------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------

TEST(ServiceFaults, ClientDisconnectCancelsWithinOneSample)
{
    SearchService svc;
    ServiceBus bus(svc);

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 60);

    constexpr size_t kCapacity = 4;
    ServiceBus::Client client = bus.connect(kCapacity);
    client.send(service::encodeSearchRequest("gone", spec));

    // Read a few frames (so the search is demonstrably streaming),
    // then vanish. The bounded queue backpressures the worker; close
    // releases its blocked send with `false`, the cancel signal.
    size_t reads = 0;
    std::string frame;
    while (reads < 3 && client.receive(frame))
        ++reads;
    ASSERT_EQ(reads, 3u);
    client.close();

    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    const service::RequestRecord &rec = history[0];
    EXPECT_EQ(rec.id, "gone");
    EXPECT_EQ(rec.outcome,
            service::RequestRecord::Outcome::Cancelled);
    // Cooperative cancel bound: the trace stops within one sample of
    // the failed send — reads + queue capacity + the phase and
    // improvement frames that shared the queue.
    EXPECT_GE(rec.samples, 1u);
    EXPECT_LE(rec.samples, uint64_t(3 + kCapacity + 2));
    EXPECT_LT(rec.samples, 60u);

    // A disconnect is not a service error.
    EXPECT_EQ(svc.stats()[2].errors, 0u);
}

TEST(ServiceFaults, DeadlineExpiryReturnsBestSoFar)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000); // far beyond the deadline
    spec.budget.deadline_s = 0.2;

    client.send(service::encodeSearchRequest("dl", spec));

    // Keep draining so the worker never backpressures; the deadline,
    // not the queue, must be what stops it.
    std::vector<std::string> frames = collectStream(client);
    Frame done = terminalFrame(frames);
    ASSERT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_TRUE(std::isfinite(done.best_edp));
    EXPECT_GE(done.samples, 1u);
    EXPECT_LT(done.samples, 200000u);
    EXPECT_EQ(done.best_hw.pe_dim == 0, false);

    // The worker accounts the request after streaming `done`; wait
    // for it to go idle before inspecting the history.
    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].outcome,
            service::RequestRecord::Outcome::Done);
}

TEST(ServiceFaults, DeadlinePastTheClockRangeStreamsEverySample)
{
    // "deadline_s":1e400 decodes to +inf, which validateSpec admits:
    // a deadline that can never fire. The run must stream every
    // sample and then `done`, not stop at once.
    SearchSpec spec = goldenMapperSpec();
    spec.budget.deadline_s = 7.0;
    std::string line = service::encodeSearchRequest("far", spec);
    const std::string token = "\"deadline_s\":7";
    const size_t at = line.find(token);
    ASSERT_NE(at, std::string::npos) << line;
    line.replace(at, token.size(), "\"deadline_s\":1e400");

    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();
    client.send(line);
    std::vector<std::string> frames = collectStream(client);
    Frame done = terminalFrame(frames);
    ASSERT_EQ(done.kind, Frame::Kind::Done) << done.message;
    EXPECT_EQ(done.id, "far");
    EXPECT_EQ(done.samples, 40u);
    size_t samples = 0;
    for (const std::string &frame : frames) {
        Frame f;
        std::string error;
        ASSERT_TRUE(service::decodeFrame(frame, f, error)) << error;
        samples += f.kind == Frame::Kind::Sample;
    }
    EXPECT_EQ(samples, 40u);
}

TEST(ServiceFaults, QueueFullRejectsWithTypedErrorAndCounts)
{
    ServiceConfig cfg;
    cfg.max_concurrent = 1;
    cfg.max_queue = 1;
    SearchService svc(cfg);
    ServiceBus bus(svc);

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 60);

    // Occupy the single worker: a client that reads one frame and
    // then stops (its bounded queue blocks the stream mid-search).
    ServiceBus::Client busy = bus.connect(2);
    busy.send(service::encodeSearchRequest("busy", spec));
    std::string frame;
    ASSERT_TRUE(busy.receive(frame)); // worker is demonstrably running

    // Fill the one queue slot...
    ServiceBus::Client queued = bus.connect();
    queued.send(service::encodeSearchRequest("queued", spec));

    // ...and overflow it.
    ServiceBus::Client rejected = bus.connect();
    rejected.send(service::encodeSearchRequest("nope", spec));
    Frame err = terminalFrame(collectStream(rejected));
    ASSERT_EQ(err.kind, Frame::Kind::Error);
    EXPECT_EQ(err.id, "nope");
    EXPECT_EQ(err.code, service::errc::queue_full);

    std::vector<service::EndpointStats> stats = svc.stats();
    EXPECT_EQ(stats[2].errors, 1u); // the rejection was counted
    EXPECT_NE(stats[2].last_error.find("queue"), std::string::npos);

    // Release the worker; the queued search must still complete.
    busy.close();
    Frame done = terminalFrame(collectStream(queued));
    EXPECT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_EQ(done.id, "queued");
    svc.drain();
}

TEST(ServiceFaults, ShutdownCancelsInFlightSearches)
{
    auto svc = std::make_unique<SearchService>();
    ServiceBus bus(*svc);
    ServiceBus::Client client = bus.connect();

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000);
    client.send(service::encodeSearchRequest("shut", spec));

    // Drain continuously on a reader thread so shutdown's join can
    // never deadlock against a full reply queue. `frames` belongs to
    // the reader until the join; the main thread only watches the
    // atomic counter.
    std::vector<std::string> frames;
    std::atomic<size_t> received{0};
    std::thread reader([&] {
        std::string f;
        while (client.receive(f)) {
            frames.push_back(f);
            received.fetch_add(1, std::memory_order_release);
            if (isTerminal(f))
                break; // the shutdown error frame ends the stream
        }
    });

    while (received.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
    svc->shutdown();
    // Join before closing: closing drops undelivered frames, and the
    // shutdown error frame must reach the reader.
    reader.join();
    client.close();

    ASSERT_FALSE(frames.empty());
    Frame last;
    std::string error;
    ASSERT_TRUE(service::decodeFrame(frames.back(), last, error))
            << error;
    ASSERT_EQ(last.kind, Frame::Kind::Error);
    EXPECT_EQ(last.code, service::errc::shutdown);

    // New submissions after shutdown are turned away, not queued.
    ServiceBus::Client late = bus.connect();
    late.send(service::encodeSearchRequest("late", goldenMapperSpec()));
    Frame err = terminalFrame(collectStream(late));
    ASSERT_EQ(err.kind, Frame::Kind::Error);
    EXPECT_EQ(err.code, service::errc::shutdown);
}

TEST(Service, ConcurrentMixedTrafficKeepsCountsConsistent)
{
    ServiceConfig cfg;
    cfg.max_concurrent = 2;
    cfg.max_queue = 64;
    SearchService svc(cfg);
    ServiceBus bus(svc);

    SearchSpec small = goldenMapperSpec();
    small.options.set("samples", 5);

    constexpr int kThreads = 4;
    constexpr int kIters = 3;
    std::atomic<int> search_done{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                ServiceBus::Client client = bus.connect();
                std::string id = std::to_string(t) + "." +
                        std::to_string(i);
                client.send(service::encodePingRequest(id));
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Pong);
                client.send(service::encodeStatsRequest(id));
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Stats);
                client.send("junk line " + id);
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Error);
                client.send(service::encodeSearchRequest(id, small));
                Frame done = terminalFrame(collectStream(client));
                EXPECT_EQ(done.kind, Frame::Kind::Done);
                if (done.kind == Frame::Kind::Done)
                    ++search_done;
            }
        });
    for (std::thread &t : threads)
        t.join();
    svc.drain();

    constexpr uint64_t kEach = uint64_t(kThreads) * kIters;
    EXPECT_EQ(search_done.load(), int(kEach));
    std::vector<service::EndpointStats> stats = svc.stats();
    EXPECT_EQ(stats[0].requests, kEach); // _protocol (junk lines)
    EXPECT_EQ(stats[0].errors, kEach);
    EXPECT_EQ(stats[1].requests, kEach); // ping
    EXPECT_EQ(stats[2].requests, kEach); // search
    EXPECT_EQ(stats[2].errors, 0u);
    EXPECT_EQ(stats[3].requests, kEach); // stats
    EXPECT_EQ(stats[2].processing_s.n, size_t(kEach));
    EXPECT_EQ(svc.history().size(), size_t(4 * kEach));
}

// ---------------------------------------------------------------
// TCP transport end-to-end.
// ---------------------------------------------------------------

TEST(ServiceTcp, EndToEndStreamingMatchesDirectRun)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.port(), 0);

    service::TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
            << error;

    // Liveness first.
    ASSERT_TRUE(client.sendLine(service::encodePingRequest("t0")));
    std::string line;
    ASSERT_TRUE(client.receiveLine(line));
    Frame f;
    ASSERT_TRUE(service::decodeFrame(line, f, error)) << error;
    EXPECT_EQ(f.kind, Frame::Kind::Pong);

    // Full search stream over the socket, byte-compared.
    const SearchSpec spec = goldenMapperSpec();
    const std::string id = "tcp-1";
    std::vector<std::string> expected = expectedStream(id, spec);
    ASSERT_TRUE(client.sendLine(
            service::encodeSearchRequest(id, spec)));
    std::vector<std::string> streamed;
    while (client.receiveLine(line)) {
        streamed.push_back(line);
        if (isTerminal(line))
            break;
    }
    EXPECT_EQ(streamed, expected);

    // Endpoint stats over the wire reflect the traffic. The worker
    // accounts the search after streaming `done`, so wait for it to
    // go idle before asking, or the counter read races.
    svc.drain();
    ASSERT_TRUE(client.sendLine(service::encodeStatsRequest("t2")));
    ASSERT_TRUE(client.receiveLine(line));
    ASSERT_TRUE(service::decodeFrame(line, f, error)) << error;
    ASSERT_EQ(f.kind, Frame::Kind::Stats);
    ASSERT_EQ(f.endpoints.size(), 4u);
    EXPECT_EQ(f.endpoints[2].requests, 1u); // search
    EXPECT_EQ(f.endpoints[1].requests, 1u); // ping

    client.close();
    server.stop();
    svc.shutdown();
}

TEST(ServiceTcp, ClientDisconnectOverSocketCancelsTheSearch)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000);

    {
        service::TcpClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(),
                error))
                << error;
        ASSERT_TRUE(client.sendLine(
                service::encodeSearchRequest("drop", spec)));
        std::string line;
        ASSERT_TRUE(client.receiveLine(line)); // streaming started
        client.close();                        // vanish mid-stream
    }

    // The dead socket fails the sink; the search cancels within one
    // sample of the failed write instead of running 200k samples.
    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].outcome,
            service::RequestRecord::Outcome::Cancelled);
    EXPECT_LT(history[0].samples, 200000u);

    server.stop();
    svc.shutdown();
}

/** Median of 21 round trips of `request` (one reply line each). */
double
medianRoundTripMs(service::TcpClient &client, const std::string &request)
{
    // LINT-ALLOW(wall-clock): the test times the transport itself
    using Clock = std::chrono::steady_clock;
    std::vector<double> ms;
    std::string line;
    for (int i = 0; i < 21; ++i) {
        const Clock::time_point t0 = Clock::now();
        EXPECT_TRUE(client.sendLine(request));
        EXPECT_TRUE(client.receiveLine(line));
        ms.push_back(std::chrono::duration<double, std::milli>(
                Clock::now() - t0)
                        .count());
    }
    std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
    return ms[10];
}

TEST(ServiceTcp, RoundTripsStayUnderHalfADelayedAckTick)
{
    // A line and its '\n' sent as two writes left the delimiter to
    // Nagle's algorithm until the peer's delayed ACK (>= 40 ms on
    // Linux): about 88 ms per ping or stats round trip.
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    service::TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
            << error;

    // Linux quick-ACKs a connection's first segments: warm up first.
    std::string line;
    ASSERT_TRUE(client.sendLine(service::encodePingRequest("warm")));
    ASSERT_TRUE(client.receiveLine(line));

    // Medians, so one slow round trip on a loaded runner cannot fail.
    EXPECT_LT(medianRoundTripMs(client,
                      service::encodePingRequest("p")),
            20.0);
    EXPECT_LT(medianRoundTripMs(client,
                      service::encodeStatsRequest("s")),
            20.0);
}

TEST(ServiceTcp, OverlongRequestLineGetsBadRequestAndCloses)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    service::TcpClient bystander;
    ASSERT_TRUE(bystander.connect("127.0.0.1", server.port(), error))
            << error;

    // A raw socket, since TcpClient sends only whole lines. Its
    // timeouts fail a server that keeps buffering instead of hanging.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)),
            0)
            << std::strerror(errno);

    // One byte past the cap, and no newline.
    const std::string flood(service::TcpServer::kMaxLineBytes + 1, 'x');
    for (size_t off = 0; off < flood.size();) {
        const ssize_t n = ::send(fd, flood.data() + off,
                flood.size() - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        off += size_t(n);
    }
    std::string reply;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        reply.append(chunk, size_t(n));
    EXPECT_EQ(n, 0) << "no EOF: " << std::strerror(errno);
    ::close(fd);

    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply.back(), '\n');
    Frame f;
    ASSERT_TRUE(service::decodeFrame(
            std::string_view(reply).substr(0, reply.size() - 1), f,
            error))
            << reply << ": " << error;
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.code, service::errc::bad_request);
    EXPECT_EQ(f.id, "");
    EXPECT_NE(f.message.find(
                      std::to_string(service::TcpServer::kMaxLineBytes)),
            std::string::npos)
            << f.message;

    // The other connection is still served.
    std::string line;
    ASSERT_TRUE(bystander.sendLine(service::encodePingRequest("b")));
    ASSERT_TRUE(bystander.receiveLine(line));
    ASSERT_TRUE(service::decodeFrame(line, f, error)) << error;
    EXPECT_EQ(f.kind, Frame::Kind::Pong);
}

/** Open file descriptors of this process. */
size_t
openFdCount()
{
    size_t n = 0;
    for (const auto &entry :
            std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(ServiceTcp, DepartedClientsSocketIsReleasedWithoutANewConnect)
{
    if (!std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "no /proc/self/fd to count descriptors in";
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    const size_t baseline = openFdCount();
    for (int i = 0; i < 5; ++i) {
        service::TcpClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
                << error;
        std::string line;
        ASSERT_TRUE(client.sendLine(service::encodePingRequest("p")));
        ASSERT_TRUE(client.receiveLine(line));
    }
    // Each reader sees its client's EOF on its own schedule: poll for
    // up to 5 s. The server's sockets used to stay open until the
    // next accept, so the last one never closed here.
    size_t open = openFdCount();
    for (int i = 0; i < 500 && open > baseline; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        open = openFdCount();
    }
    EXPECT_LE(open, baseline);
}

} // namespace
} // namespace dosa
