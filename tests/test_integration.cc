/**
 * @file
 * Cross-module integration tests: miniature versions of the paper's
 * headline experiments, verifying the qualitative claims end-to-end
 * (DOSA beats random search; hardware and mapping improvements are
 * both real; the surrogate-augmented flow runs against the RTL
 * substitute).
 */

#include <gtest/gtest.h>

#include "api/search_api.hh"
#include "arch/baselines.hh"
#include "model/reference.hh"
#include "rtl/gemmini_rtl.hh"
#include "search/cosa_mapper.hh"
#include "surrogate/dataset.hh"
#include "surrogate/latency_predictor.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

/** Small layer subset so integration tests stay fast. */
std::vector<Layer>
miniWorkload()
{
    Network net = bertBase();
    return {net.layers[0], net.layers[4], net.layers[5]};
}

/** DOSA on the mini workload with the given schedule and seed. */
SearchSpec
miniDosaSpec(int start_points, int steps_per_start, int round_every,
             uint64_t seed)
{
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = miniWorkload();
    spec.options.set("start_points", start_points)
            .set("steps_per_start", steps_per_start)
            .set("round_every", round_every);
    spec.seed = seed;
    return spec;
}

TEST(Integration, DosaBeatsRandomSearchAtEqualSamples)
{
    SearchReport dosa = runSearch(miniDosaSpec(2, 150, 50, 1));
    size_t samples = dosa.search.trace.size();

    SearchSpec rspec;
    rspec.algorithm = "random";
    rspec.workload = miniWorkload();
    rspec.options.set("hw_designs", 4)
            .set("mappings_per_hw", static_cast<int>(samples) / 4);
    rspec.seed = 1;
    SearchReport random = runSearch(rspec);

    EXPECT_LT(dosa.search.best_edp, random.search.best_edp);
}

TEST(Integration, DosaHardwareHelpsUnderConstantMapper)
{
    // Fig. 9's attribution: DOSA's end-point hardware with CoSA
    // mappings should beat the start-point hardware with CoSA
    // mappings (hardware improvement is real, not mapper luck).
    std::vector<Layer> layers = miniWorkload();
    SearchReport r = runSearch(miniDosaSpec(2, 150, 50, 5));

    auto cosa_on = [&](const HardwareConfig &hw) {
        std::vector<Mapping> maps;
        for (const Layer &l : layers)
            maps.push_back(cosaMap(l, hw));
        return referenceNetworkEval(layers, maps, hw).edp;
    };
    double end_hw_cosa = cosa_on(r.search.best_hw);
    double start_hw_cosa = cosa_on(r.best_start_hw);
    EXPECT_LE(end_hw_cosa, start_hw_cosa * 1.5);
    // And the DOSA mappings must beat CoSA on DOSA's own hardware.
    EXPECT_LT(r.search.best_edp, end_hw_cosa * 1.01);
}

TEST(Integration, DosaOptimizedGemminiBeatsExpertBaselines)
{
    // Fig. 8 in miniature: the co-searched design should outperform
    // at least the constrained baselines on its target workload.
    std::vector<Layer> layers = miniWorkload();
    SearchReport r = runSearch(miniDosaSpec(2, 150, 50, 7));

    for (const BaselineAccelerator &base :
         {nvdlaSmall(), gemminiDefault()}) {
        std::vector<Mapping> maps;
        for (const Layer &l : layers)
            maps.push_back(cosaMap(l, base.config));
        double base_edp = referenceNetworkEval(layers, maps,
                base.config).edp;
        EXPECT_LT(r.search.best_edp, base_edp) << base.name;
    }
}

TEST(Integration, SurrogateGuidedRtlOptimizationImproves)
{
    // Fig. 12 in miniature: fixed 16x16 PEs, buffer sizes + mappings
    // optimized under the combined latency model, evaluated on the
    // RTL substitute, compared against the default Gemmini config
    // with CoSA mappings.
    std::vector<Layer> layers = miniWorkload();

    SurrogateDataset ds = generateSurrogateDataset(250, 3);
    LatencyPredictor combined = LatencyPredictor::trainCombined(ds, 80,
            3);
    SurrogateDiffModel diff(combined);

    SearchSpec spec = miniDosaSpec(2, 120, 40, 11);
    spec.mode.fix_pe = true;
    spec.mode.pe_dim = 16;
    spec.mode.latency_model = &diff;
    spec.scorer = combined.scorer();
    SearchReport r = runSearch(spec);

    auto rtl_edp = [&](const std::vector<Mapping> &maps,
                       const HardwareConfig &hw) {
        double e = 0.0, lat = 0.0;
        for (size_t i = 0; i < layers.size(); ++i) {
            RefEval ev = referenceEval(layers[i], maps[i], hw);
            double cnt = static_cast<double>(layers[i].count);
            e += cnt * ev.energy_uj;
            lat += cnt * rtlLatency(layers[i], maps[i], hw);
        }
        return e * lat;
    };

    HardwareConfig def = gemminiDefault().config;
    std::vector<Mapping> def_maps;
    for (const Layer &l : layers)
        def_maps.push_back(cosaMap(l, def));
    double default_rtl_edp = rtl_edp(def_maps, def);
    double dosa_rtl_edp = rtl_edp(r.search.best_mappings,
            r.search.best_hw);

    EXPECT_EQ(r.search.best_hw.pe_dim, 16);
    EXPECT_LT(dosa_rtl_edp, default_rtl_edp);
}

TEST(Integration, IterateOrderingNoWorseThanFixed)
{
    SearchSpec fixed = miniDosaSpec(1, 100, 50, 13);
    fixed.options.set("strategy",
            static_cast<double>(OrderStrategy::Fixed));
    SearchSpec iter = fixed;
    iter.options.set("strategy",
            static_cast<double>(OrderStrategy::Iterate));
    double edp_fixed = runSearch(fixed).search.best_edp;
    double edp_iter = runSearch(iter).search.best_edp;
    EXPECT_LE(edp_iter, edp_fixed * 1.001);
}

} // namespace
} // namespace dosa
