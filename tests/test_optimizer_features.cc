/**
 * @file
 * Tests for the optimizer refinements and extensions layered on the
 * paper's base algorithm: feasibility projection, greedy restart,
 * learning-rate scheduling, per-layer loss weighting (the Section 4.5
 * future-work knob) and the gated-refetch continuity property.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/search_api.hh"
#include "core/adam.hh"
#include "core/objective.hh"
#include "model/analytical.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(AdamSchedule, LrScaleShrinksSteps)
{
    std::vector<double> a = {0.0}, b = {0.0};
    Adam opt_a(1, 0.1), opt_b(1, 0.1);
    opt_a.step(a, {1.0}, 1.0);
    opt_b.step(b, {1.0}, 0.1);
    EXPECT_NEAR(a[0], 10.0 * b[0], 1e-12);
}

TEST(GatedRefetch, ContinuousAcrossUnitBoundary)
{
    // The multiplier must vary continuously as a relevant inner factor
    // crosses 1, even when large irrelevant loops sit outside it (the
    // discontinuity that previously broke descent at rounded points).
    Factors<double> f;
    f.t(kDram, Dim::P) = 56.0; // irrelevant to W, huge
    f.t(kDram, Dim::Q) = 4.0;
    f.t(kAccumulator, Dim::C) = 1.0; // relevant to W, at boundary
    OrderVec order = uniformOrder(LoopOrder::WS);

    double below = 0.0, at = 0.0, above = 0.0;
    f.t(kAccumulator, Dim::C) = 1.0 - 1e-6;
    below = refetchMultiplier(f, order, kRegisters, Tensor::Weight);
    f.t(kAccumulator, Dim::C) = 1.0;
    at = refetchMultiplier(f, order, kRegisters, Tensor::Weight);
    f.t(kAccumulator, Dim::C) = 1.0 + 1e-6;
    above = refetchMultiplier(f, order, kRegisters, Tensor::Weight);

    EXPECT_NEAR(below, at, 1e-3);
    EXPECT_NEAR(above, at, 1e-3);
    // Far above the boundary the full outer product is charged.
    f.t(kAccumulator, Dim::C) = 2.0;
    double active = refetchMultiplier(f, order, kRegisters,
            Tensor::Weight);
    EXPECT_NEAR(active, 2.0 * 56.0 * 4.0, 1e-9);
}

TEST(GatedRefetch, ExactAtIntegerPoints)
{
    // Gate values at integer factors are 0/1, so the gated rule must
    // coincide with the discrete innermost-relevant-loop rule the
    // reference model implements.
    Rng rng(3);
    std::vector<Layer> pool = uniqueTrainingLayers();
    HardwareConfig hw{16, 256, 512};
    for (int t = 0; t < 10; ++t) {
        const Layer &l = pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
        Mapping m = randomMapping(l, rng, hw.pe_dim);
        RefEval ref = referenceEval(l, m, hw);
        Factors<double> f = m.continuousFactors();
        LayerCounts<double> c = computeCounts(l, f, m.order);
        for (int lvl = 0; lvl < kDram; ++lvl)
            EXPECT_NEAR(c.accesses[size_t(lvl)],
                    ref.accesses[size_t(lvl)],
                    1e-9 * ref.accesses[size_t(lvl)] + 1e-9);
    }
}

TEST(LayerWeights, ShiftOptimizationFocus)
{
    // Weighting one layer's loss contribution heavily must shift the
    // objective toward that layer.
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, hw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode uniform;
    ObjectiveMode skewed;
    skewed.layer_weights = {100.0, 1.0};
    ObjectiveEval u = evalObjective(layers, x, orders,
            OrderStrategy::Fixed, uniform);
    ObjectiveEval s = evalObjective(layers, x, orders,
            OrderStrategy::Fixed, skewed);
    EXPECT_GT(s.energy_uj, u.energy_uj); // weighted sums grow
    // Gradient mass on layer 0's variables must grow relative to
    // layer 1's under the skewed weighting.
    auto mass = [&](const ObjectiveEval &ev, size_t li) {
        double acc = 0.0;
        for (int i = 0; i < kVarsPerLayer; ++i)
            acc += std::abs(ev.grad[li * kVarsPerLayer + size_t(i)]);
        return acc;
    };
    double ratio_u = mass(u, 0) / (mass(u, 1) + 1e-30);
    double ratio_s = mass(s, 0) / (mass(s, 1) + 1e-30);
    EXPECT_GT(ratio_s, ratio_u);
}

TEST(LayerWeights, SizeMismatchPanics)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, hw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode bad;
    bad.layer_weights = {1.0}; // wrong size
    EXPECT_DEATH(evalObjective(layers, x, orders,
            OrderStrategy::Fixed, bad), "layer_weights");
}

TEST(AblationToggles, VariantsRunAndStayValid)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 3);
    for (bool project : {true, false}) {
        for (bool restart : {true, false}) {
            SearchSpec spec;
            spec.algorithm = "dosa";
            spec.workload = layers;
            spec.options.set("start_points", 1)
                    .set("steps_per_start", 60)
                    .set("round_every", 30)
                    .set("project_feasible", project)
                    .set("restart_from_best", restart);
            spec.seed = 5;
            SearchReport r = runSearch(spec);
            NetworkEval ev = referenceNetworkEval(layers,
                    r.search.best_mappings, r.search.best_hw);
            EXPECT_TRUE(ev.fits);
            EXPECT_NEAR(ev.edp, r.search.best_edp, 1e-6 * ev.edp);
        }
    }
}

TEST(Projection, KeepsDramResidualsValid)
{
    // After many unprojected ascent-direction steps the inferred DRAM
    // residuals can sink below 1; with projection the rounded mapping
    // is reachable without large corrections. We check the public
    // contract: a projected run's intermediate roundings never panic
    // and its best design fits.
    Network net = unet();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 5);
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = layers;
    spec.options.set("start_points", 2)
            .set("steps_per_start", 120)
            .set("round_every", 40);
    spec.seed = 77;
    SearchReport r = runSearch(spec);
    EXPECT_LT(r.search.best_edp,
            std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < layers.size(); ++i)
        EXPECT_TRUE(r.search.best_mappings[i].complete(layers[i]));
}

TEST(GreedyRestart, NeverWorseFinalThanLatestRestart)
{
    // With identical seeds, restart-from-best can only improve (or
    // match) the final result relative to restart-from-latest.
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 8);
    SearchSpec a;
    a.algorithm = "dosa";
    a.workload = layers;
    a.options.set("start_points", 2)
            .set("steps_per_start", 300)
            .set("round_every", 100);
    a.seed = 3;
    SearchSpec b = a;
    b.options.set("restart_from_best", 0);
    double with = runSearch(a).search.best_edp;
    double without = runSearch(b).search.best_edp;
    EXPECT_LE(with, without * 1.10); // allow small stochastic slack
}

} // namespace
} // namespace dosa
