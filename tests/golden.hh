/**
 * @file
 * The golden-trace fixtures shared by the test suites: the canonical
 * two-layer workload, one fixed-seed `SearchSpec` per builtin
 * searcher (single-objective, and multi-objective for the frontier
 * fixture), the DOSA specs whose starts span several descent chunks,
 * an observer that keeps every sample's EDP, the reader of the
 * `tests/golden/<algorithm>.trace` files and the bitwise comparison
 * against them.
 *
 * A fixture holds a run's trace, best EDP and best hardware, written
 * bit-exactly as hex floats. `test_golden_traces` regenerates them
 * (DOSA_REGEN_GOLDEN=1); every other suite only reads them.
 */

#ifndef DOSA_TESTS_GOLDEN_HH
#define DOSA_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/search_api.hh"
#include "workload/layer.hh"

namespace dosa {

/** The canonical two-layer workload of the golden fixtures. */
inline std::vector<Layer>
goldenLayers()
{
    return {
        Layer::gemm("a", 128, 64, 256),
        Layer::conv("b", 3, 16, 32, 64),
    };
}

inline SearchSpec
goldenDosaSpec()
{
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = goldenLayers();
    spec.seed = 5;
    spec.options.set("start_points", 3)
            .set("steps_per_start", 30)
            .set("round_every", 15);
    return spec;
}

inline SearchSpec
goldenRandomSpec()
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = goldenLayers();
    spec.seed = 3;
    spec.options.set("hw_designs", 4).set("mappings_per_hw", 30);
    return spec;
}

inline SearchSpec
goldenMapperSpec()
{
    SearchSpec spec;
    spec.algorithm = "mapper";
    spec.workload = goldenLayers();
    spec.seed = 17;
    spec.options.set("samples", 40);
    return spec;
}

inline SearchSpec
goldenBayesOptSpec()
{
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = goldenLayers();
    spec.seed = 21;
    spec.options.set("warmup_samples", 6)
            .set("total_samples", 14)
            .set("hw_candidates", 3)
            .set("map_candidates", 4);
    return spec;
}

/** One golden spec per builtin searcher, in registration order. */
inline std::vector<SearchSpec>
goldenSpecs()
{
    return {goldenDosaSpec(), goldenRandomSpec(), goldenMapperSpec(),
            goldenBayesOptSpec()};
}

/**
 * The multi-objective golden specs: one per builtin searcher, in
 * registration order, with the area and power axes enabled.
 */
inline std::vector<SearchSpec>
goldenParetoSpecs()
{
    std::vector<SearchSpec> specs(4);
    specs[0].algorithm = "dosa";
    specs[0].seed = 5;
    specs[0].options.set("start_points", 2)
            .set("steps_per_start", 20)
            .set("round_every", 10);
    specs[1].algorithm = "random";
    specs[1].seed = 3;
    specs[1].options.set("hw_designs", 4).set("mappings_per_hw", 25);
    specs[2].algorithm = "mapper";
    specs[2].seed = 17;
    specs[2].options.set("samples", 40);
    specs[2].fixed_hw = HardwareConfig{16, 32, 128};
    specs[3] = goldenBayesOptSpec();
    for (SearchSpec &spec : specs) {
        spec.workload = goldenLayers();
        spec.mode.pareto.area.enabled = true;
        spec.mode.pareto.power.enabled = true;
    }
    return specs;
}

/**
 * DOSA specs whose starts span three descent chunks: seven starts of
 * 150 steps on bert, rounding every 45 (not a multiple of the chunk
 * size), in the Fixed and Iterate strategies and in Iterate with the
 * area and power axes enabled. On bert the descent beats every start
 * point several times over (on the two-layer golden workload it never
 * beats the best one), so these runs' samples depend on every step.
 * `tests/golden/dosa_chunks.digest` pins them.
 */
inline std::vector<SearchSpec>
goldenDosaChunkSpecs()
{
    SearchSpec base;
    base.algorithm = "dosa";
    base.workload_name = "bert";
    base.seed = 2;
    base.options.set("start_points", 7)
            .set("steps_per_start", 150)
            .set("round_every", 45);
    std::vector<SearchSpec> specs(3, base);
    specs[0].options.set("strategy", 0); // Fixed
    specs[1].options.set("strategy", 1); // Iterate
    specs[2].options.set("strategy", 1);
    specs[2].mode.pareto.area.enabled = true;
    specs[2].mode.pareto.power.enabled = true;
    return specs;
}

/**
 * BB-BO runs at the scale of fig7's quick cells: 20 random warmup
 * samples of 80, 4 hardware x 8 mapping candidates per layer and round,
 * a GP capped at 300 training points, on bert and resnet50. Three bert
 * variants move the LCB's kappa and the pool's shape: kappa 0 (the
 * posterior mean alone); kappa -1 with 7 mapping candidates; kappa 3
 * with 33 mapping candidates, 3 hardware candidates, 3 jobs and the
 * area and power axes enabled. Every guided round picks each (hardware,
 * layer) slice's LCB argmin, so these runs' samples depend on every
 * round's selections. `tests/golden/bayesopt_rounds.digest` pins them.
 */
inline std::vector<SearchSpec>
goldenBayesOptRoundSpecs()
{
    SearchSpec base;
    base.algorithm = "bayesopt";
    base.workload_name = "bert";
    base.seed = 3;
    base.options.set("warmup_samples", 20)
            .set("total_samples", 80)
            .set("hw_candidates", 4)
            .set("map_candidates", 8)
            .set("max_train_points", 300);
    std::vector<SearchSpec> specs(5, base);
    specs[1].workload_name = "resnet50";
    specs[2].options.set("lcb_kappa", 0.0);
    specs[3].options.set("lcb_kappa", -1.0).set("map_candidates", 7);
    specs[4].options.set("lcb_kappa", 3.0)
            .set("map_candidates", 33)
            .set("hw_candidates", 3);
    specs[4].jobs = 3;
    specs[4].mode.pareto.area.enabled = true;
    specs[4].mode.pareto.power.enabled = true;
    return specs;
}

/** Keeps every sample's own EDP, in trace order. */
struct SampleRecorder : SearchObserver
{
    std::vector<double> edps;

    bool
    onSample(const SampleEvent &event) override
    {
        edps.push_back(event.edp);
        return true;
    }
};

/** Fixture path of a searcher, from the source tree baked in by CMake. */
inline std::string
goldenPath(const std::string &algorithm)
{
    return std::string(DOSA_SOURCE_DIR) + "/tests/golden/" + algorithm +
           ".trace";
}

/** Contents of one fixture. */
struct Golden
{
    std::vector<double> trace;
    double best_edp = 0.0;
    long long pe_dim = 0, accum_kib = 0, spad_kib = 0;
};

/** Read the fixture of `algorithm` (fatal gtest failure if absent). */
inline void
readGolden(const std::string &algorithm, Golden &g)
{
    const std::string path = goldenPath(algorithm);
    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr)
            << "missing fixture " << path
            << " — run DOSA_REGEN_GOLDEN=1 ./test_golden_traces";
    char line[256];
    size_t n = 0;
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr); // comment
    ASSERT_EQ(std::fscanf(f, "trace %zu\n", &n), 1);
    g.trace.resize(n);
    for (size_t i = 0; i < n; ++i) {
        ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
        g.trace[i] = std::strtod(line, nullptr);
    }
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    g.best_edp = std::strtod(line + std::strlen("best_edp "), nullptr);
    ASSERT_EQ(std::fscanf(f, "best_hw %lld %lld %lld", &g.pe_dim,
                      &g.accum_kib, &g.spad_kib),
            3);
    std::fclose(f);
}

/**
 * Exact (==) comparison of a run against a fixture: these are
 * determinism fixtures, not accuracy checks. `label` names the run
 * in failure messages.
 */
inline void
expectBitwiseEqual(const std::string &label, const SearchResult &r,
                   const Golden &g)
{
    ASSERT_EQ(r.trace.size(), g.trace.size()) << label;
    size_t mismatches = 0;
    for (size_t i = 0; i < g.trace.size(); ++i)
        if (r.trace[i] != g.trace[i] &&
            !(std::isnan(r.trace[i]) && std::isnan(g.trace[i])))
            ++mismatches;
    EXPECT_EQ(mismatches, 0u) << label << ": trace drifted";
    EXPECT_EQ(r.best_edp, g.best_edp) << label;
    EXPECT_EQ(r.best_hw.pe_dim, g.pe_dim) << label;
    EXPECT_EQ(r.best_hw.accum_kib, g.accum_kib) << label;
    EXPECT_EQ(r.best_hw.spad_kib, g.spad_kib) << label;
}

} // namespace dosa

#endif // DOSA_TESTS_GOLDEN_HH
