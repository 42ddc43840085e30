/**
 * @file
 * Unit tests of the `src/api` search facade: searcher-table lookups,
 * the observer streaming contract (sample accounting, improvement
 * events, phases), cooperative cancellation and deadline enforcement,
 * budget-derived option defaults, trace pre-reservation, option
 * validation over every searcher's option table and serial==parallel
 * determinism through `runSearch`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/search_api.hh"
#include "api/spec_json.hh"
#include "golden.hh"
#include "model/reference.hh"
#include "workload/workload_registry.hh"

namespace dosa {
namespace {

TEST(ApiRegistry, ListsAllBuiltinAlgorithms)
{
    std::vector<std::string> algos = Search::algorithms();
    for (const char *name : {"dosa", "random", "mapper", "bayesopt"})
        EXPECT_NE(std::find(algos.begin(), algos.end(), name),
                algos.end())
                << name << " missing from the registry";
}

TEST(ApiRegistry, FindRoundTripsEveryRegisteredName)
{
    for (const std::string &name : Search::algorithms()) {
        const Searcher *searcher = Search::find(name);
        ASSERT_NE(searcher, nullptr) << name;
        EXPECT_EQ(name, searcher->name());
    }
}

TEST(ApiRegistry, UnknownNameIsNull)
{
    EXPECT_EQ(Search::find("no-such-searcher"), nullptr);
}

/** Observer counting every event for the accounting tests. */
class CountingObserver : public SearchObserver
{
  public:
    size_t samples = 0;
    size_t improvements = 0;
    std::vector<std::string> phases;
    double last_best = std::numeric_limits<double>::infinity();

    void
    onPhase(const char *phase) override
    {
        phases.emplace_back(phase);
    }

    bool
    onSample(const SampleEvent &event) override
    {
        EXPECT_EQ(event.index, samples);
        ++samples;
        last_best = event.best_edp;
        return true;
    }

    void
    onImprovement(const SampleEvent &event) override
    {
        EXPECT_TRUE(event.improved);
        ++improvements;
    }
};

TEST(ApiObserver, SampleCountEqualsTraceLengthForEveryAlgorithm)
{
    for (const SearchSpec &spec : goldenSpecs()) {
        CountingObserver obs;
        SearchReport report = runSearch(spec, &obs);
        EXPECT_EQ(obs.samples, report.search.trace.size())
                << spec.algorithm;
        if (!report.search.trace.empty()) {
            EXPECT_EQ(obs.last_best, report.search.trace.back())
                    << spec.algorithm;
        }

        // Improvement events == strict decreases of the trace.
        size_t expected = 0;
        double best = std::numeric_limits<double>::infinity();
        for (double v : report.search.trace) {
            if (v < best) {
                best = v;
                ++expected;
            }
        }
        EXPECT_EQ(obs.improvements, expected) << spec.algorithm;
    }
}

TEST(ApiObserver, PhasesBracketTheRun)
{
    CountingObserver obs;
    runSearch(goldenDosaSpec(), &obs);
    ASSERT_GE(obs.phases.size(), 2u);
    EXPECT_EQ(obs.phases.front(), "setup");
    EXPECT_EQ(obs.phases.back(), "done");
    // The DOSA searcher announces its interior phases in order.
    std::vector<std::string> expected{"setup", "starts", "descent",
                                      "merge", "done"};
    EXPECT_EQ(obs.phases, expected);
}

TEST(ApiObserver, PresenceDoesNotPerturbResults)
{
    SearchReport plain = runSearch(goldenRandomSpec());
    CountingObserver obs;
    SearchReport observed = runSearch(goldenRandomSpec(), &obs);
    EXPECT_EQ(plain.search.trace, observed.search.trace);
    EXPECT_EQ(plain.search.best_edp, observed.search.best_edp);
}

/** Observer cancelling after a fixed number of samples. */
class CancellingObserver : public SearchObserver
{
  public:
    explicit CancellingObserver(size_t limit) : limit_(limit) {}

    size_t samples = 0;

    bool
    onSample(const SampleEvent &event) override
    {
        (void)event;
        ++samples;
        return samples < limit_;
    }

  private:
    size_t limit_;
};

TEST(ApiCancellation, StopsWithinOneSample)
{
    // Serial run: the trace must end exactly at the cancelled sample.
    SearchSpec spec = goldenRandomSpec();
    spec.jobs = 1;
    CancellingObserver obs(5);
    SearchReport report = runSearch(spec, &obs);
    EXPECT_EQ(obs.samples, 5u);
    EXPECT_EQ(report.search.trace.size(), 5u);
}

TEST(ApiCancellation, WorksForEveryAlgorithm)
{
    for (const SearchSpec &base : goldenSpecs()) {
        SearchSpec spec = base;
        CancellingObserver obs(3);
        SearchReport report = runSearch(spec, &obs);
        EXPECT_EQ(report.search.trace.size(), 3u) << spec.algorithm;
        // A cancelled run's best design stays consistent with its
        // truncated trace: the reported best_edp is the trace
        // minimum, never a dropped post-cancellation sample's.
        if (!report.search.trace.empty()) {
            EXPECT_EQ(report.search.best_edp,
                    report.search.trace.back())
                    << spec.algorithm;
        }
    }
}

TEST(ApiCancellation, InstalledDesignAlwaysScoresBestEdp)
{
    // Property over cancellation points spanning all four merge
    // units (30 samples per hardware design): wherever the cancel
    // lands — including mid-unit, where a partially merged design's
    // winning sample is dropped — a non-empty best design must score
    // exactly the reported best_edp, and a stale design from an
    // earlier unit must never be paired with a later unit's better
    // best_edp.
    std::vector<Layer> layers = goldenLayers();
    for (size_t k : {size_t(1), size_t(15), size_t(31), size_t(45),
                     size_t(61), size_t(75), size_t(91),
                     size_t(105)}) {
        SearchSpec spec = goldenRandomSpec();
        CancellingObserver obs(k);
        SearchReport report = runSearch(spec, &obs);
        ASSERT_EQ(report.search.trace.size(), k);
        EXPECT_EQ(report.search.best_edp, report.search.trace.back());
        if (!report.search.best_mappings.empty()) {
            EXPECT_EQ(referenceNetworkEval(layers,
                              report.search.best_mappings,
                              report.search.best_hw)
                              .edp,
                    report.search.best_edp)
                    << "cancel at " << k;
        }
    }
}

TEST(ApiBudget, SampleCapTruncatesAndReserves)
{
    SearchSpec spec = goldenMapperSpec();
    spec.budget.max_samples = 10; // below the 40 requested samples
    SearchReport report = runSearch(spec);
    EXPECT_EQ(report.search.trace.size(), 10u);
    // The cap also bounds the pre-reservation.
    EXPECT_LE(report.search.trace.capacity(), 40u);
}

TEST(ApiBudget, DerivesNaturalLengthsFromMaxSamples)
{
    // random: mappings_per_hw = max_samples / hw_designs.
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = goldenLayers();
    spec.seed = 3;
    spec.budget.max_samples = 40;
    spec.options.set("hw_designs", 4);
    EXPECT_EQ(Search::find("random")->plannedSamples(spec), 40u);
    SearchReport report = runSearch(spec);
    EXPECT_EQ(report.search.trace.size(), 40u);

    // dosa: steps_per_start = max_samples / start_points - 1.
    SearchSpec dspec;
    dspec.algorithm = "dosa";
    dspec.workload = goldenLayers();
    dspec.budget.max_samples = 60;
    dspec.options.set("start_points", 3).set("round_every", 10);
    EXPECT_EQ(Search::find("dosa")->plannedSamples(dspec), 60u);

    // bayesopt: total_samples = max_samples.
    SearchSpec bspec = goldenBayesOptSpec();
    bspec.budget.max_samples = 9;
    bspec.options = OptionBag{};
    bspec.options.set("warmup_samples", 6);
    EXPECT_EQ(Search::find("bayesopt")->plannedSamples(bspec), 9u);
}

TEST(ApiDeadline, ExpiredDeadlineStopsTheRunEarly)
{
    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 100000);
    spec.budget.deadline_s = 1e-9; // expired by the first poll
    SearchReport report = runSearch(spec);
    EXPECT_LT(report.search.trace.size(), 100000u);
}

TEST(ApiDeadline, ComputedSamplesSurviveTheDeadline)
{
    // Deadline expired before the first descent step: every start
    // still scores its concrete start point, descent is skipped, and
    // the merge must record those computed samples (a deadline stops
    // compute, it must not discard finished work) with a best design
    // consistent with the trace.
    SearchSpec spec = goldenDosaSpec();
    spec.budget.deadline_s = 1e-9;
    SearchReport report = runSearch(spec);
    ASSERT_EQ(report.search.trace.size(), 3u); // one per start point
    EXPECT_EQ(report.search.best_edp, report.search.trace.back());
    ASSERT_TRUE(std::isfinite(report.search.best_edp));
    EXPECT_FALSE(report.search.best_mappings.empty());
}

TEST(ApiDeadline, DeadlineMidDescentKeepsEveryStartConsistent)
{
    // Seven starts on four threads, far too long to finish before the
    // deadline, which lands while the starts are mid-chunk. How far
    // each start got depends on timing, so only invariants are
    // asserted: every start keeps its scored start point, nothing
    // past the plan is recorded, and the installed design is the one
    // the trace's minimum came from.
    SearchSpec spec = goldenDosaSpec();
    spec.jobs = 4;
    spec.options.set("start_points", 7)
            .set("steps_per_start", 50000)
            .set("round_every", 45);
    spec.budget.deadline_s = 0.05;
    const size_t planned = Search::find("dosa")->plannedSamples(spec);
    SearchReport report = runSearch(spec);
    const std::vector<double> &trace = report.search.trace;
    ASSERT_GE(trace.size(), 7u);
    EXPECT_LE(trace.size(), planned);
    EXPECT_EQ(report.search.best_edp,
            *std::min_element(trace.begin(), trace.end()));
    ASSERT_FALSE(report.search.best_mappings.empty());
    EXPECT_EQ(referenceNetworkEval(spec.workload,
                      report.search.best_mappings, report.search.best_hw)
                      .edp,
            report.search.best_edp);
}

TEST(ApiDeadline, DeadlinesPastTheClockRangeNeverFire)
{
    // A deadline the steady clock cannot represent could never fire.
    // Converting it to clock ticks overflowed (undefined behaviour),
    // and in a release build landed the deadline in the past, so the
    // run stopped before its first sample.
    for (double deadline : {1e10, 1e300,
                 std::numeric_limits<double>::infinity()}) {
        SearchSpec spec = goldenMapperSpec();
        spec.options.set("samples", 200);
        spec.budget.deadline_s = deadline;
        SearchReport report = runSearch(spec);
        EXPECT_EQ(report.search.trace.size(), 200u) << deadline;
    }
}

TEST(ApiDeterminism, SerialEqualsParallelForEveryAlgorithm)
{
    for (const SearchSpec &base : goldenSpecs()) {
        SearchSpec serial = base;
        serial.jobs = 1;
        SearchSpec parallel = base;
        parallel.jobs = 3;
        SearchReport a = runSearch(serial);
        SearchReport b = runSearch(parallel);
        EXPECT_EQ(a.search.trace, b.search.trace) << base.algorithm;
        EXPECT_EQ(a.search.best_edp, b.search.best_edp)
                << base.algorithm;
        EXPECT_EQ(a.search.best_hw.pe_dim, b.search.best_hw.pe_dim)
                << base.algorithm;
    }
}

TEST(ApiSpecValidation, OptionBagRoundTrips)
{
    OptionBag bag;
    bag.set("a", 1.5).set("b", 2);
    EXPECT_TRUE(bag.has("a"));
    EXPECT_FALSE(bag.has("c"));
    EXPECT_EQ(bag.get("a", 0.0), 1.5);
    EXPECT_EQ(bag.getInt("b", 0), 2);
    EXPECT_EQ(bag.getInt("c", 7), 7);
    EXPECT_EQ(bag.keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(ApiSpecValidation, RejectsNumbersThatWouldLeaveInt)
{
    // jobs and max_samples are int fields, so a wider count fails in
    // the decoder, before it could wrap into a valid-looking value.
    SearchSpec spec;
    std::string error;
    EXPECT_FALSE(specFromJson("{\"budget\":{\"max_samples\":4294967297},"
                              "\"jobs\":4294967300}",
            spec, error));
    EXPECT_NE(error.find("max_samples"), std::string::npos) << error;
    EXPECT_FALSE(specFromJson("{\"jobs\":2147483648}", spec, error));
    EXPECT_NE(error.find("jobs"), std::string::npos) << error;

    // Option values reach the adapters' int narrowing, so validation
    // rejects any that is not finite or exceeds INT_MAX in magnitude.
    const double bad[] = {1e300, 4294967297.0, -4294967297.0,
            std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()};
    for (double value : bad) {
        spec = goldenMapperSpec();
        spec.options.set("samples", value);
        EXPECT_FALSE(validateSpec(spec, error)) << value;
        EXPECT_NE(error.find("option \"samples\""), std::string::npos)
                << error;
    }
    spec = goldenMapperSpec();
    spec.options.set("samples", std::numeric_limits<int>::max());
    EXPECT_TRUE(validateSpec(spec, error)) << error;

    // Values inside int that would still take a run down: a zero
    // modulus (SIGFPE), a negative count (std::length_error), zero
    // candidates (panic), and enum and flag values outside their
    // domain (an unknown strategy would silently run as Iterate).
    struct Case
    {
        SearchSpec (*golden)();
        const char *key;
        double value;
    };
    const Case out_of_domain[] = {
        {goldenDosaSpec, "round_every", 0},
        {goldenBayesOptSpec, "refit_every", 0},
        {goldenDosaSpec, "start_points", -1},
        {goldenDosaSpec, "steps_per_start", -1},
        {goldenRandomSpec, "hw_designs", -1},
        {goldenRandomSpec, "mappings_per_hw", -1},
        {goldenMapperSpec, "samples", -1},
        {goldenBayesOptSpec, "total_samples", -1},
        {goldenBayesOptSpec, "hw_candidates", -1},
        {goldenBayesOptSpec, "map_candidates", -1},
        {goldenBayesOptSpec, "hw_candidates", 0},
        {goldenBayesOptSpec, "map_candidates", 0},
        {goldenDosaSpec, "strategy", 3},
        {goldenDosaSpec, "strategy", -1},
        {goldenDosaSpec, "project_feasible", 2},
        {goldenDosaSpec, "restart_from_best", -1},
    };
    for (const Case &c : out_of_domain) {
        spec = c.golden();
        spec.options.set(c.key, c.value);
        EXPECT_FALSE(validateSpec(spec, error))
                << c.key << " = " << c.value;
        EXPECT_NE(error.find(std::string("option \"") + c.key + "\""),
                std::string::npos)
                << error;
    }
}

TEST(ApiSpecValidation, RejectsNegativeAndNaNDeadlines)
{
    std::string error;
    for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
        SearchSpec spec = goldenMapperSpec();
        spec.budget.deadline_s = bad;
        EXPECT_FALSE(validateSpec(spec, error)) << bad;
        EXPECT_NE(error.find("budget"), std::string::npos) << error;
    }
    // Too far out to ever fire is a valid deadline.
    SearchSpec spec = goldenMapperSpec();
    spec.budget.deadline_s = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(validateSpec(spec, error)) << error;
}

TEST(ApiSpecValidation, RejectsHardwareSizesBelowOne)
{
    // A mapper spec with fixed_hw.pe_dim 0 or -4 used to crash in the
    // random mapping draw (an empty spatial-divisor list), and a dosa
    // spec with mode.fix_pe and pe_dim 0 aborted in its start
    // generation. Every hardware size below 1 is now rejected with
    // an error naming its field.
    const std::pair<const char *, int64_t HardwareConfig::*> fields[] = {
            {"fixed_hw.pe_dim", &HardwareConfig::pe_dim},
            {"fixed_hw.accum_kib", &HardwareConfig::accum_kib},
            {"fixed_hw.spad_kib", &HardwareConfig::spad_kib}};
    std::string error;
    for (const auto &[field, member] : fields) {
        for (int64_t value : {int64_t(0), int64_t(-4),
                     std::numeric_limits<int64_t>::min()}) {
            SearchSpec spec = goldenMapperSpec();
            spec.fixed_hw.*member = value;
            EXPECT_FALSE(validateSpec(spec, error))
                    << field << " = " << value;
            EXPECT_NE(error.find(field), std::string::npos) << error;
        }
        SearchSpec spec = goldenMapperSpec();
        spec.fixed_hw.*member = 1;
        EXPECT_TRUE(validateSpec(spec, error)) << field << ": " << error;
    }

    // mode.pe_dim sizes the array only when mode.fix_pe is set.
    SearchSpec spec = goldenDosaSpec();
    spec.mode.pe_dim = 0;
    EXPECT_TRUE(validateSpec(spec, error)) << error;
    spec.mode.fix_pe = true;
    for (int64_t value : {int64_t(0), int64_t(-4)}) {
        spec.mode.pe_dim = value;
        EXPECT_FALSE(validateSpec(spec, error)) << value;
        EXPECT_NE(error.find("mode.pe_dim"), std::string::npos) << error;
    }
    spec.mode.pe_dim = 1;
    EXPECT_TRUE(validateSpec(spec, error)) << error;
}

TEST(ApiSpecValidation, RejectsLayerWeightsThatDoNotFitTheWorkload)
{
    // A dosa search whose mode.layer_weights count differs from the
    // workload's layer count used to abort in the objective's size
    // check. Every non-empty count must match the layers the search
    // runs on (the registry's, for a by-name workload), and every
    // weight must be finite and non-negative.
    SearchSpec spec = goldenDosaSpec();
    const size_t num_layers = spec.workload.size();
    std::string error;
    spec.mode.layer_weights.assign(num_layers + 1, 1.0);
    EXPECT_FALSE(validateSpec(spec, error));
    EXPECT_NE(error.find("mode.layer_weights"), std::string::npos) << error;
    spec.mode.layer_weights.assign(num_layers, 1.0);
    spec.mode.layer_weights[0] = 0.0;
    EXPECT_TRUE(validateSpec(spec, error)) << error;
    for (double w : {-1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        spec.mode.layer_weights.back() = w;
        EXPECT_FALSE(validateSpec(spec, error)) << w;
        EXPECT_NE(error.find("mode.layer_weights"), std::string::npos)
                << error;
    }
    spec.mode.layer_weights.clear();
    EXPECT_TRUE(validateSpec(spec, error)) << error;

    SearchSpec named = goldenDosaSpec();
    named.workload.clear();
    named.workload_name = "bert";
    const size_t bert_layers = Workloads::find("bert")->layers.size();
    ASSERT_NE(bert_layers, 2u);
    named.mode.layer_weights = {1.0, 2.0};
    EXPECT_FALSE(validateSpec(named, error));
    EXPECT_NE(error.find("mode.layer_weights"), std::string::npos) << error;
    named.mode.layer_weights.assign(bert_layers, 2.0);
    EXPECT_TRUE(validateSpec(named, error)) << error;
}

TEST(ApiOptionDomain, EveryOptionRunsAtItsBoundsAndRejectsPastThem)
{
    // For every builtin searcher and every row of its option table,
    // the golden spec with that option at its minimum (and, for flag
    // and enum rows, at its maximum) validates and runs to its
    // planned length, and one step past either end is rejected with
    // the key named. Under the sanitizer job this is the gate that no
    // admitted option value crashes a run or reaches undefined
    // behaviour.
    constexpr double kIntMax = std::numeric_limits<int>::max();
    for (const SearchSpec &golden : goldenSpecs()) {
        const Searcher *searcher = Search::find(golden.algorithm);
        ASSERT_NE(searcher, nullptr) << golden.algorithm;
        for (const SearcherOption &row : searcher->options()) {
            const std::string key(row.key);
            std::vector<double> admitted{row.min};
            if (row.max < kIntMax)
                admitted.push_back(row.max);
            for (double value : admitted) {
                SearchSpec spec = golden;
                spec.options.set(key, value);
                std::string error;
                ASSERT_TRUE(validateSpec(spec, error)) << error;
                SearchReport report = runSearch(spec);
                EXPECT_EQ(report.search.trace.size(),
                        searcher->plannedSamples(spec))
                        << key << " = " << value;
            }
            for (double value : {row.min - 1, row.max + 1}) {
                SearchSpec spec = golden;
                spec.options.set(key, value);
                std::string error;
                EXPECT_FALSE(validateSpec(spec, error))
                        << key << " = " << value;
                EXPECT_NE(error.find("option \"" + key + "\""),
                        std::string::npos)
                        << error;
            }
        }
    }
}

TEST(ApiDeathTest, UnknownAlgorithmIsFatalAndListsRegistry)
{
    SearchSpec spec;
    spec.algorithm = "no-such-searcher";
    spec.workload = goldenLayers();
    EXPECT_EXIT(runSearch(spec), ::testing::ExitedWithCode(1),
            "unknown search algorithm.*dosa");
}

TEST(ApiDeathTest, UnknownOptionKeyIsFatal)
{
    SearchSpec spec = goldenRandomSpec();
    spec.options.set("steps_per_start", 10); // a dosa key, not random
    EXPECT_EXIT(runSearch(spec), ::testing::ExitedWithCode(1),
            "unknown option.*steps_per_start.*random");
}

TEST(ApiDeathTest, EmptyWorkloadIsFatal)
{
    SearchSpec spec;
    spec.algorithm = "random";
    EXPECT_EXIT(runSearch(spec), ::testing::ExitedWithCode(1),
            "empty workload");
}

TEST(ApiWorkloadName, ValidatesAgainstTheRegistry)
{
    SearchSpec spec = goldenMapperSpec();
    spec.workload.clear();
    spec.workload_name = "alexnet";
    std::string error;
    EXPECT_TRUE(validateSpec(spec, error)) << error;

    // Unknown names are rejected with the registry listing, exactly
    // like an unknown algorithm.
    spec.workload_name = "no-such-net";
    EXPECT_FALSE(validateSpec(spec, error));
    EXPECT_NE(error.find("unknown workload \"no-such-net\""),
            std::string::npos)
            << error;
    EXPECT_NE(error.find("resnet50"), std::string::npos) << error;

    // Setting both an inline workload and a name is ambiguous.
    spec = goldenMapperSpec();
    spec.workload_name = "alexnet";
    EXPECT_FALSE(validateSpec(spec, error));
    EXPECT_NE(error.find("both"), std::string::npos) << error;
}

TEST(ApiWorkloadName, ByNameSearchMatchesInlineLayersBitwise)
{
    const Network *net = Workloads::find("alexnet");
    ASSERT_NE(net, nullptr);

    SearchSpec by_name = goldenMapperSpec();
    by_name.workload.clear();
    by_name.workload_name = "alexnet";

    SearchSpec inline_spec = goldenMapperSpec();
    inline_spec.workload = net->layers;

    SearchReport a = runSearch(by_name);
    SearchReport b = runSearch(inline_spec);
    EXPECT_EQ(a.search.best_edp, b.search.best_edp);
    EXPECT_EQ(a.search.best_hw.str(), b.search.best_hw.str());
    ASSERT_EQ(a.search.trace.size(), b.search.trace.size());
    for (size_t i = 0; i < a.search.trace.size(); ++i)
        EXPECT_EQ(a.search.trace[i], b.search.trace[i])
                << "sample " << i;
}

TEST(ApiDeathTest, UnknownWorkloadNameIsFatalAndListsRegistry)
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload_name = "no-such-net";
    EXPECT_EXIT(runSearch(spec), ::testing::ExitedWithCode(1),
            "unknown workload.*resnet50");
}

} // namespace
} // namespace dosa
