/**
 * @file
 * Tests for the parallel execution runtime (src/exec): ThreadPool
 * semantics, deterministic RNG stream splitting, and the serial ==
 * parallel contract of every searcher that fans out on the pool, with
 * and without a latency scorer installed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/search_api.hh"
#include "core/dosa_optimizer.hh"
#include "exec/thread_pool.hh"
#include "golden.hh"
#include "surrogate/latency_predictor.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        constexpr size_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        pool.parallelFor(kN, [&](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "i=" << i
                    << " threads=" << threads;
    }
}

TEST(ThreadPool, SizeClampsToOne)
{
    ThreadPool pool(-3);
    EXPECT_EQ(pool.size(), 1);
    int ran = 0;
    pool.parallelFor(3, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 3);
}

TEST(ThreadPool, ZeroAndSingleIndexWork)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [&](size_t) { FAIL(); });
    int ran = 0;
    pool.parallelFor(1, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, MoreTasksThanThreadsAndViceVersa)
{
    ThreadPool pool(8);
    std::atomic<long> sum{0};
    pool.parallelFor(3, [&](size_t i) {
        sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 3);
    sum = 0;
    pool.parallelFor(100, [&](size_t i) {
        sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    ThreadPool pool(4);
    std::vector<int> out = pool.parallelMap(64,
            [](size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 64u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, PropagatesFirstException)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(pool.parallelFor(100, [](size_t i) {
            if (i == 37)
                throw std::runtime_error("task 37 failed");
        }), std::runtime_error);
        // The pool survives a failed job and runs the next one.
        std::atomic<int> ran{0};
        pool.parallelFor(10, [&](size_t) { ++ran; });
        EXPECT_EQ(ran.load(), 10);
    }
}

TEST(ThreadPool, SequentialJobsReuseWorkers)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        pool.parallelFor(17, [&](size_t) { ++ran; });
        ASSERT_EQ(ran.load(), 17);
    }
}

TEST(RngStream, PureFunctionOfSeedAndStream)
{
    Rng a = Rng::stream(42, 3);
    Rng b = Rng::stream(42, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(RngStream, StreamsDecorrelate)
{
    // Different stream ids (and nearby seeds) give different draws.
    Rng a = Rng::stream(42, 0);
    Rng b = Rng::stream(42, 1);
    Rng c = Rng::stream(43, 0);
    int eq_ab = 0, eq_ac = 0;
    for (int i = 0; i < 64; ++i) {
        uint64_t va = a.engine()();
        eq_ab += va == b.engine()() ? 1 : 0;
        eq_ac += va == c.engine()() ? 1 : 0;
    }
    EXPECT_EQ(eq_ab, 0);
    EXPECT_EQ(eq_ac, 0);
}

TEST(RngStream, DoesNotPerturbParent)
{
    Rng parent(7);
    uint64_t before = parent.engine()();
    Rng parent2(7);
    (void)Rng::stream(7, 0);
    EXPECT_EQ(before, parent2.engine()());
}

TEST(ExecDeterminism, DosaSerialEqualsParallel)
{
    // Tiny-but-real DOSA run for determinism checks.
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = {
        Layer::gemm("a", 128, 64, 256),
        Layer::conv("b", 3, 16, 32, 64),
    };
    spec.options.set("start_points", 3)
            .set("steps_per_start", 30)
            .set("round_every", 15);
    spec.seed = 5;
    spec.jobs = 1;
    SearchReport serial = runSearch(spec);
    spec.jobs = 4;
    SearchReport parallel = runSearch(spec);

    // Byte-identical traces and results, not merely "close".
    ASSERT_EQ(serial.search.trace.size(), parallel.search.trace.size());
    for (size_t i = 0; i < serial.search.trace.size(); ++i)
        EXPECT_EQ(serial.search.trace[i], parallel.search.trace[i])
                << "sample " << i;
    EXPECT_EQ(serial.search.best_edp, parallel.search.best_edp);
    EXPECT_EQ(serial.search.best_hw, parallel.search.best_hw);
    EXPECT_EQ(serial.best_start_edp, parallel.best_start_edp);
    EXPECT_EQ(serial.best_start_hw, parallel.best_start_hw);
    ASSERT_EQ(serial.search.best_mappings.size(),
            parallel.search.best_mappings.size());
    for (size_t i = 0; i < serial.search.best_mappings.size(); ++i)
        EXPECT_EQ(serial.search.best_mappings[i],
                parallel.search.best_mappings[i]);
}

TEST(ExecDeterminism, DosaChunkHandoffMatchesJobs1)
{
    // Seven starts, each spanning three descent chunks, on fewer,
    // as many and more threads than starts: the least-progress-first
    // schedule moves starts between threads at chunk boundaries, and
    // with round_every not a multiple of the chunk size some of those
    // handoffs fall inside a rounding segment (Adam moments and the
    // engine's tape carry over to the next thread).
    for (SearchSpec spec : goldenDosaChunkSpecs()) {
        ASSERT_EQ(spec.options.getInt("start_points", 0), 7);
        ASSERT_GT(spec.options.getInt("steps_per_start", 0),
                2 * detail::kStepsPerChunk);
        ASSERT_NE(spec.options.getInt("round_every", 0) %
                          detail::kStepsPerChunk,
                0);
        spec.jobs = 1;
        SampleRecorder serial_samples;
        const SearchReport serial = runSearch(spec, &serial_samples);
        if (spec.mode.pareto.active()) {
            ASSERT_FALSE(serial.search.frontier.empty());
        }
        for (int jobs : {2, 3, 4, 8}) {
            spec.jobs = jobs;
            SampleRecorder parallel_samples;
            const SearchReport parallel = runSearch(spec, &parallel_samples);
            SCOPED_TRACE("strategy " +
                    std::to_string(spec.options.getInt("strategy", 0)) +
                    (spec.mode.pareto.active() ? " pareto" : "") +
                    ", jobs " + std::to_string(jobs));
            // Every rounded design's EDP, not only the running best.
            EXPECT_EQ(serial_samples.edps, parallel_samples.edps);
            const SearchResult &a = serial.search;
            const SearchResult &b = parallel.search;
            EXPECT_EQ(a.trace, b.trace);
            EXPECT_EQ(a.best_edp, b.best_edp);
            EXPECT_EQ(a.best_hw, b.best_hw);
            EXPECT_EQ(a.best_mappings, b.best_mappings);
            EXPECT_EQ(serial.best_start_edp, parallel.best_start_edp);
            EXPECT_EQ(serial.best_start_hw, parallel.best_start_hw);
            ASSERT_EQ(a.frontier.size(), b.frontier.size());
            for (size_t i = 0; i < a.frontier.size(); ++i) {
                const ParetoPoint &p = a.frontier.points()[i];
                const ParetoPoint &q = b.frontier.points()[i];
                EXPECT_EQ(p.sample_index, q.sample_index);
                EXPECT_EQ(p.edp, q.edp);
                EXPECT_EQ(p.area_mm2, q.area_mm2);
                EXPECT_EQ(p.power_w, q.power_w);
                EXPECT_EQ(p.hw, q.hw);
                EXPECT_EQ(p.mappings, q.mappings);
            }
        }
    }
}

TEST(ExecDeterminism, RandomSearchSerialEqualsParallel)
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = {Layer::gemm("a", 64, 128, 64)};
    spec.options.set("hw_designs", 4).set("mappings_per_hw", 30);
    spec.seed = 3;
    spec.jobs = 1;
    SearchResult serial = runSearch(spec).search;
    spec.jobs = 4;
    SearchResult parallel = runSearch(spec).search;
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.best_edp, parallel.best_edp);
    EXPECT_EQ(serial.best_hw, parallel.best_hw);
}

TEST(ExecDeterminism, RandomMapperSerialEqualsParallel)
{
    SearchSpec spec;
    spec.algorithm = "mapper";
    spec.workload = resnet50().layers;
    spec.workload.resize(3);
    spec.options.set("samples", 40);
    spec.seed = 17;
    spec.jobs = 1;
    SearchResult serial = runSearch(spec).search;
    spec.jobs = 5;
    SearchResult parallel = runSearch(spec).search;
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.best_edp, parallel.best_edp);
    ASSERT_EQ(serial.best_mappings.size(),
            parallel.best_mappings.size());
    for (size_t i = 0; i < serial.best_mappings.size(); ++i)
        EXPECT_EQ(serial.best_mappings[i], parallel.best_mappings[i]);
}

TEST(ExecDeterminism, BayesOptSerialEqualsParallel)
{
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = {Layer::gemm("a", 64, 64, 128)};
    // 3 x 12 = 36 candidates per round: two GP query tiles, so at
    // jobs 4 the round's acquisition is split over the pool too.
    spec.options.set("warmup_samples", 6)
            .set("total_samples", 14)
            .set("hw_candidates", 3)
            .set("map_candidates", 12);
    spec.seed = 21;
    spec.jobs = 1;
    SearchResult serial = runSearch(spec).search;
    spec.jobs = 4;
    SearchResult parallel = runSearch(spec).search;
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.best_edp, parallel.best_edp);
    EXPECT_EQ(serial.best_hw, parallel.best_hw);
}

TEST(ExecDeterminism, ScoredSearchersSerialEqualParallel)
{
    // Every searcher with a learned latency scorer installed: serial
    // equals parallel, and the installed design scores exactly the
    // reported best_edp under that scorer (the scored counterpart of
    // ApiCancellation.InstalledDesignAlwaysScoresBestEdp). On the
    // 4-layer workload each DOSA ordering selection makes 12 scorer
    // calls.
    SurrogateDataset ds = generateSurrogateDataset(16, 9);
    LatencyPredictor pred = LatencyPredictor::trainCombined(ds, 2, 9);
    const Network bert = bertBase();
    const std::vector<std::vector<Layer>> workloads = {
        {Layer::gemm("a", 64, 64, 128)},
        {bert.layers.begin(), bert.layers.begin() + 4},
    };

    for (const std::vector<Layer> &workload : workloads) {
        auto scored = [&](const char *algorithm, uint64_t seed) {
            SearchSpec spec;
            spec.algorithm = algorithm;
            spec.workload = workload;
            spec.seed = seed;
            spec.scorer = pred.scorer();
            return spec;
        };
        SearchSpec random = scored("random", 3);
        random.options.set("hw_designs", 3).set("mappings_per_hw", 12);
        SearchSpec mapper = scored("mapper", 17);
        mapper.options.set("samples", 16);
        SearchSpec bayesopt = scored("bayesopt", 21);
        bayesopt.options.set("warmup_samples", 4)
                .set("total_samples", 10)
                .set("hw_candidates", 2)
                .set("map_candidates", 3);
        SearchSpec dosa = scored("dosa", 7);
        dosa.options.set("start_points", 2)
                .set("steps_per_start", 12)
                .set("round_every", 6);

        for (SearchSpec spec : {random, mapper, bayesopt, dosa}) {
            const std::string where = spec.algorithm + ", " +
                    std::to_string(workload.size()) + " layer(s)";
            spec.jobs = 1;
            SearchReport serial = runSearch(spec);
            spec.jobs = 4;
            SearchReport parallel = runSearch(spec);
            EXPECT_EQ(serial.search.trace, parallel.search.trace)
                    << where;
            EXPECT_EQ(serial.search.best_edp, parallel.search.best_edp)
                    << where;
            for (const SearchReport *report : {&serial, &parallel}) {
                const SearchResult &r = report->search;
                ASSERT_EQ(r.best_mappings.size(), workload.size())
                        << where;
                EXPECT_EQ(referenceNetworkEval(workload,
                                  r.best_mappings, r.best_hw,
                                  spec.scorer)
                                  .edp,
                        r.best_edp)
                        << where;
            }
        }
    }
}

} // namespace
} // namespace dosa
