/**
 * @file
 * Tests for the searchers: CoSA-substitute mapper validity and
 * quality, random co-search, fixed-hardware random mapper, Bayesian
 * optimization, and shared infrastructure (features, traces).
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "api/search_api.hh"
#include "arch/baselines.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(SearchResult, TraceIsMonotoneBest)
{
    SearchResult r;
    r.record(5.0);
    r.record(7.0);
    r.record(3.0);
    r.record(4.0);
    ASSERT_EQ(r.trace.size(), 4u);
    EXPECT_DOUBLE_EQ(r.trace[0], 5.0);
    EXPECT_DOUBLE_EQ(r.trace[1], 5.0);
    EXPECT_DOUBLE_EQ(r.trace[2], 3.0);
    EXPECT_DOUBLE_EQ(r.trace[3], 3.0);
    EXPECT_DOUBLE_EQ(r.best_edp, 3.0);
}

TEST(RandomHardware, WithinDesignRanges)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        HardwareConfig hw = randomHardware(rng);
        EXPECT_GE(hw.pe_dim, 4);
        EXPECT_LE(hw.pe_dim, 128);
        EXPECT_GE(hw.accum_kib, 8);
        EXPECT_LE(hw.accum_kib, 512);
        EXPECT_GE(hw.spad_kib, 16);
        EXPECT_LE(hw.spad_kib, 1024);
    }
}

TEST(MinimalMapping, FitsAnyHardware)
{
    HardwareConfig tiny{1, 1, 1};
    for (const Layer &l : resnet50().layers) {
        Mapping m = minimalMapping(l);
        EXPECT_TRUE(m.complete(l));
        EXPECT_TRUE(referenceEval(l, m, tiny).fits) << l.str();
    }
}

TEST(RandomValidMapping, AlwaysFits)
{
    Rng rng(3);
    HardwareConfig hw{8, 16, 32}; // small: forces rejection work
    for (const Layer &l : unet().layers) {
        for (int i = 0; i < 3; ++i) {
            Mapping m = randomValidMapping(l, hw, rng);
            EXPECT_TRUE(m.complete(l)) << l.str();
            EXPECT_TRUE(referenceEval(l, m, hw).fits) << l.str();
        }
    }
}

TEST(Features, SizeAndDeterminism)
{
    Layer l = Layer::conv("f", 3, 14, 32, 64);
    Rng rng(9);
    HardwareConfig hw{16, 32, 128};
    Mapping m = randomValidMapping(l, hw, rng);
    auto f1 = encodeFeatures(l, m, hw);
    auto f2 = encodeFeatures(l, m, hw);
    EXPECT_EQ(static_cast<int>(f1.size()), kFeatureSize);
    EXPECT_EQ(f1, f2);
}

TEST(Features, DistinguishMappingsAndHardware)
{
    Layer l = Layer::conv("f", 3, 14, 32, 64);
    Rng rng(10);
    HardwareConfig hw{16, 32, 128};
    Mapping m1 = randomValidMapping(l, hw, rng);
    Mapping m2 = randomValidMapping(l, hw, rng);
    if (!(m1 == m2)) {
        EXPECT_NE(encodeFeatures(l, m1, hw),
                encodeFeatures(l, m2, hw));
    }
    HardwareConfig hw2{32, 64, 256};
    EXPECT_NE(encodeFeatures(l, m1, hw), encodeFeatures(l, m1, hw2));
}

class CosaMapperValidity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CosaMapperValidity, FitsEveryLayerOnDiverseHardware)
{
    Network net = networkByName(GetParam());
    std::vector<HardwareConfig> hws = {
        {4, 8, 16}, {16, 32, 128}, {64, 256, 512}, {128, 512, 1024},
        {13, 16, 108}, // Eyeriss-like odd sizes
    };
    for (const HardwareConfig &hw : hws) {
        for (const Layer &l : net.layers) {
            Mapping m = cosaMap(l, hw);
            EXPECT_TRUE(m.complete(l)) << l.str();
            EXPECT_TRUE(m.positive()) << l.str();
            RefEval ev = referenceEval(l, m, hw);
            EXPECT_TRUE(ev.fits)
                    << l.str() << " on " << hw.str() << "\n"
                    << m.str();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Networks, CosaMapperValidity,
        ::testing::Values("resnet50", "bert", "unet", "retinanet",
                          "alexnet", "vgg16", "resnext50",
                          "deepbench"));

TEST(CosaMapper, BeatsRandomMappingsOnAverage)
{
    // The constructive mapper should clearly outperform the average
    // random valid mapping — that is its entire purpose.
    HardwareConfig hw = gemminiDefault().config;
    Rng rng(21);
    double cosa_total = 0.0, random_total = 0.0;
    for (const Layer &l : resnet50().layers) {
        RefEval cosa_ev = referenceEval(l, cosaMap(l, hw), hw);
        cosa_total += cosa_ev.edp;
        double rand_acc = 0.0;
        for (int i = 0; i < 5; ++i) {
            Mapping m = randomValidMapping(l, hw, rng);
            rand_acc += referenceEval(l, m, hw).edp;
        }
        random_total += rand_acc / 5.0;
    }
    EXPECT_LT(cosa_total, random_total);
}

TEST(CosaMapper, UsesSpatialArray)
{
    HardwareConfig hw{16, 32, 128};
    Layer l = Layer::conv("big", 3, 28, 128, 128);
    Mapping m = cosaMap(l, hw);
    EXPECT_EQ(m.factors.spatial_c, 16);
    EXPECT_EQ(m.factors.spatial_k, 16);
}

TEST(RandomSearch, TraceLengthAndImprovement)
{
    Network net = unet();
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = net.layers;
    spec.options.set("hw_designs", 2).set("mappings_per_hw", 20);
    spec.seed = 5;
    SearchResult r = runSearch(spec).search;
    EXPECT_EQ(r.trace.size(), 40u);
    EXPECT_LT(r.best_edp, std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.best_mappings.size(), net.layers.size());
    // Improvement over the very first sample.
    EXPECT_LE(r.best_edp, r.trace.front());
    // Best design must actually fit its hardware.
    NetworkEval ev = referenceNetworkEval(net.layers, r.best_mappings,
            r.best_hw);
    EXPECT_TRUE(ev.fits);
    EXPECT_NEAR(ev.edp, r.best_edp, 1e-6 * ev.edp);
}

TEST(RandomSearch, DeterministicInSeed)
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = bertBase().layers;
    spec.options.set("hw_designs", 1).set("mappings_per_hw", 10);
    spec.seed = 77;
    SearchResult a = runSearch(spec).search;
    SearchResult b = runSearch(spec).search;
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_DOUBLE_EQ(a.best_edp, b.best_edp);
}

TEST(RandomMapperSearch, FixedHardwareOnly)
{
    HardwareConfig hw = gemminiDefault().config;
    Network net = bertBase();
    SearchSpec spec;
    spec.algorithm = "mapper";
    spec.workload = net.layers;
    spec.fixed_hw = hw;
    spec.options.set("samples", 15);
    spec.seed = 3;
    SearchResult r = runSearch(spec).search;
    EXPECT_EQ(r.trace.size(), 15u);
    EXPECT_EQ(r.best_hw, hw);
    NetworkEval ev = referenceNetworkEval(net.layers, r.best_mappings,
            hw);
    EXPECT_TRUE(ev.fits);
}

TEST(BayesOpt, RunsAndRespectsBudget)
{
    Network net = bertBase();
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = net.layers;
    spec.options.set("warmup_samples", 8)
            .set("total_samples", 16)
            .set("hw_candidates", 3)
            .set("map_candidates", 5)
            .set("refit_every", 4);
    spec.seed = 11;
    SearchResult r = runSearch(spec).search;
    EXPECT_EQ(r.trace.size(), 16u);
    EXPECT_LT(r.best_edp, std::numeric_limits<double>::infinity());
    NetworkEval ev = referenceNetworkEval(net.layers, r.best_mappings,
            r.best_hw);
    EXPECT_TRUE(ev.fits);
}

TEST(BayesOpt, GuidedPhaseNoWorseThanWarmupBest)
{
    const int warmup = 10;
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = unet().layers;
    spec.options.set("warmup_samples", warmup)
            .set("total_samples", 25)
            .set("hw_candidates", 4)
            .set("map_candidates", 6);
    spec.seed = 19;
    SearchResult r = runSearch(spec).search;
    double warmup_best = r.trace[size_t(warmup) - 1];
    EXPECT_LE(r.best_edp, warmup_best);
}

TEST(BayesOpt, NonFiniteScoresStillRunTheWholeBudget)
{
    // A scorer that returns NaN or +inf makes every training target and
    // so every LCB non-finite: no hardware candidate scores below +inf.
    // Each guided round must still evaluate a complete design (hardware
    // candidate 0 with each slice's first mapping), never a
    // default-constructed one.
    for (double latency : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
        SearchSpec spec;
        spec.algorithm = "bayesopt";
        spec.workload = bertBase().layers;
        spec.seed = 21;
        spec.scorer = [latency](const Layer &, const Mapping &,
                              const HardwareConfig &) { return latency; };
        spec.options.set("warmup_samples", 6)
                .set("total_samples", 14)
                .set("hw_candidates", 3)
                .set("map_candidates", 4);
        EXPECT_EQ(runSearch(spec).search.trace.size(), 14u) << latency;
    }
}

/** Every sample's EDP and every phase of one run. */
struct SampleLog : SearchObserver
{
    std::vector<double> edps;
    std::vector<std::string> phases;

    void
    onPhase(const char *phase) override
    {
        phases.emplace_back(phase);
    }

    bool
    onSample(const SampleEvent &event) override
    {
        edps.push_back(event.edp);
        return true;
    }
};

TEST(BayesOpt, ZeroWarmupFitsAfterTheFirstSampleAndGuidesTheRest)
{
    // The option table admits warmup_samples 0. The GP is then fitted
    // after the first (random) sample and guides every later one, so
    // the run must not replay the all-random run (warmup = total).
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = {Layer::gemm("a", 128, 64, 256),
            Layer::conv("b", 3, 16, 32, 64)};
    spec.seed = 21;
    spec.options.set("warmup_samples", 0)
            .set("total_samples", 14)
            .set("hw_candidates", 3)
            .set("map_candidates", 4);
    SampleLog zero;
    SearchResult zero_run = runSearch(spec, &zero).search;
    spec.options.set("warmup_samples", 14);
    SampleLog all_random;
    SearchResult random_run = runSearch(spec, &all_random).search;

    ASSERT_EQ(zero.edps.size(), 14u);
    ASSERT_EQ(all_random.edps.size(), 14u);
    EXPECT_EQ(zero.edps[0], all_random.edps[0]);
    EXPECT_NE(zero.edps, all_random.edps);
    EXPECT_NE(zero_run.trace, random_run.trace);
    // "guided" opens at the first GP-guided sample, never before.
    EXPECT_EQ(zero.phases, (std::vector<std::string>{"setup", "warmup",
                                   "guided", "done"}));
    EXPECT_EQ(all_random.phases,
            (std::vector<std::string>{"setup", "warmup", "done"}));
}

} // namespace
} // namespace dosa
