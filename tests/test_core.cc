/**
 * @file
 * Tests for the DOSA core: Adam, the differentiable objective
 * (gradients vs finite differences), rounding-and-scoring, ordering
 * selection and the full one-loop search driver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "api/search_api.hh"
#include "core/adam.hh"
#include "core/dosa_optimizer.hh"
#include "core/objective.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(Adam, ConvergesOnQuadratic)
{
    // minimize (x-3)^2 + (y+1)^2
    std::vector<double> p = {0.0, 0.0};
    Adam adam(2, 0.1);
    for (int i = 0; i < 500; ++i) {
        std::vector<double> g = {2.0 * (p[0] - 3.0),
                                 2.0 * (p[1] + 1.0)};
        adam.step(p, g);
    }
    EXPECT_NEAR(p[0], 3.0, 1e-2);
    EXPECT_NEAR(p[1], -1.0, 1e-2);
}

TEST(Adam, ResetClearsMomentum)
{
    std::vector<double> p = {0.0};
    Adam adam(1, 0.5);
    adam.step(p, {1.0});
    double after_one = p[0];
    adam.reset();
    std::vector<double> q = {0.0};
    adam.step(q, {1.0});
    EXPECT_DOUBLE_EQ(q[0], after_one);
}

TEST(Objective, PackUnpackRoundTrip)
{
    Layer l = Layer::conv("x", 3, 14, 32, 64);
    Mapping m = cosaMap(l, HardwareConfig{16, 32, 128});
    std::vector<double> x = packMapping(m);
    ASSERT_EQ(static_cast<int>(x.size()), kVarsPerLayer);
    Factors<double> f = unpackFactors(x, 0);
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            EXPECT_NEAR(f.t(lvl, d),
                    static_cast<double>(m.factors.t(lvl, d)), 1e-9);
    EXPECT_NEAR(f.spatial_c,
            static_cast<double>(m.factors.spatial_c), 1e-9);
    EXPECT_NEAR(f.spatial_k,
            static_cast<double>(m.factors.spatial_k), 1e-9);
}

TEST(Objective, GradientMatchesFiniteDifference)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        Mapping m = cosaMap(l, hw);
        auto xl = packMapping(m);
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(m.order);
    }
    // Nudge every variable off the piecewise boundaries (f == 1
    // refetch thresholds and exact max() ties between factors) so
    // finite differences probe a smooth region.
    for (size_t i = 0; i < x.size(); ++i)
        x[i] += 0.05 + 0.001 * static_cast<double>(i);

    ObjectiveMode mode;
    ObjectiveEval ev = evalObjective(layers, x, orders,
            OrderStrategy::Fixed, mode);
    ASSERT_EQ(ev.grad.size(), x.size());

    Rng rng(13);
    double h = 1e-6;
    for (int probe = 0; probe < 16; ++probe) {
        size_t i = size_t(rng.uniformInt(0,
                static_cast<int64_t>(x.size()) - 1));
        std::vector<double> xp = x, xm = x;
        xp[i] += h;
        xm[i] -= h;
        double lp = evalObjective(layers, xp, orders,
                OrderStrategy::Fixed, mode).loss;
        double lm = evalObjective(layers, xm, orders,
                OrderStrategy::Fixed, mode).loss;
        double fd = (lp - lm) / (2.0 * h);
        EXPECT_NEAR(ev.grad[i], fd,
                2e-3 * std::max(1.0, std::abs(fd)))
                << "coordinate " << i;
    }
}

TEST(Objective, SoftmaxStrategyProducesFiniteGradients)
{
    Network net = unet();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, hw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    ObjectiveMode mode;
    ObjectiveEval ev = evalObjective(layers, x, {},
            OrderStrategy::Softmax, mode);
    EXPECT_TRUE(std::isfinite(ev.loss));
    EXPECT_GT(ev.edp, 0.0);
    for (double g : ev.grad)
        EXPECT_TRUE(std::isfinite(g));
}

/**
 * The arena engine must be invisible to results: a long-lived
 * ObjectiveEngine serving a descent-like sequence of x vectors (replay
 * fast path) returns bitwise-identical losses and gradients to
 * one-shot evalObjective calls (fresh graph each time), across
 * strategies and through a mid-sequence ordering change (rebuild).
 */
TEST(Objective, EngineReplayBitwiseEqualsFreshBuild)
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
    ObjectiveMode mode;
    auto bitEq = [](double a, double b) {
        return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    };

    for (OrderStrategy strategy :
         {OrderStrategy::Fixed, OrderStrategy::Softmax}) {
        ObjectiveEngine engine;
        Rng rng(7);
        std::vector<double> xi = x;
        for (int step = 0; step < 6; ++step) {
            // Orders flip mid-sequence: forces one rebuild for the
            // non-Softmax strategy.
            if (step == 3)
                orders.assign(layers.size(),
                        uniformOrder(LoopOrder::OS));
            const ObjectiveEval &a = engine.eval(layers, xi, orders,
                    strategy, mode);
            ObjectiveEval b = evalObjective(layers, xi, orders,
                    strategy, mode);
            EXPECT_TRUE(bitEq(a.loss, b.loss)) << "step " << step;
            EXPECT_TRUE(bitEq(a.energy_uj, b.energy_uj));
            EXPECT_TRUE(bitEq(a.latency, b.latency));
            EXPECT_TRUE(bitEq(a.penalty, b.penalty));
            ASSERT_EQ(a.grad.size(), b.grad.size());
            for (size_t i = 0; i < b.grad.size(); ++i)
                EXPECT_TRUE(bitEq(a.grad[i], b.grad[i]))
                        << "strategy "
                        << strategyName(strategy)
                        << " step " << step << " coord " << i;
            for (double &v : xi)
                v += rng.uniformReal(-0.2, 0.2);
        }
        EXPECT_GE(engine.builds(), 1u);
        EXPECT_GE(engine.replays(), 3u);
    }
}

TEST(Objective, LatencyScorerInstalledOrReference)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 3);
    HardwareConfig hw{16, 64, 256};
    std::vector<Mapping> mappings;
    for (const Layer &l : layers)
        mappings.push_back(cosaMap(l, hw));

    // An installed scorer supplies every layer's latency; energy
    // stays on the reference model.
    LatencyScorer scorer = [](const Layer &l, const Mapping &,
                              const HardwareConfig &) {
        return static_cast<double>(l.k) * 2.0;
    };
    NetworkEval scored = referenceNetworkEval(layers, mappings, hw, scorer);
    NetworkEval ref = referenceNetworkEval(layers, mappings, hw);
    double latency = 0.0;
    for (const Layer &l : layers)
        latency += static_cast<double>(l.count) *
                   (static_cast<double>(l.k) * 2.0);
    EXPECT_EQ(scored.latency, latency);
    EXPECT_EQ(scored.energy_uj, ref.energy_uj);

    // Empty scorer: reference-model latency.
    NetworkEval empty = referenceNetworkEval(layers, mappings, hw, {});
    EXPECT_EQ(empty.latency, ref.latency);
    EXPECT_EQ(empty.edp, ref.edp);
}

TEST(ObjectiveDeathTest, EngineEmptyBatchPanics)
{
    std::vector<Layer> layers = {Layer::gemm("a", 8, 8, 8)};
    std::vector<OrderVec> orders = {uniformOrder(LoopOrder::WS)};
    ObjectiveEngine engine;
    std::vector<std::vector<double>> xs;
    EXPECT_DEATH(engine.evalBatch(layers, xs, orders,
                         OrderStrategy::Fixed, ObjectiveMode{}),
            "empty candidate batch");
}

TEST(Objective, PenaltyFiresOnInvalidFactors)
{
    Layer l = Layer::conv("x", 1, 8, 16, 16);
    Mapping m = minimalMapping(l);
    std::vector<double> x = packMapping(m);
    ObjectiveMode mode;
    std::vector<OrderVec> orders = {uniformOrder(LoopOrder::WS)};
    double base_penalty = evalObjective({l}, x, orders,
            OrderStrategy::Fixed, mode).penalty;
    // Push one on-chip factor above the whole dimension: the inferred
    // DRAM residual drops below 1 and the hinge must fire.
    x[0 * kNumDims + static_cast<int>(Dim::C)] =
            std::log(static_cast<double>(l.c) * 4.0);
    double bad_penalty = evalObjective({l}, x, orders,
            OrderStrategy::Fixed, mode).penalty;
    EXPECT_GT(bad_penalty, base_penalty + 0.5);
}

TEST(Objective, FixPeModeFreezesCpe)
{
    Layer l = Layer::conv("x", 1, 8, 64, 64);
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x = packMapping(cosaMap(l, hw));
    std::vector<OrderVec> orders = {uniformOrder(LoopOrder::WS)};
    ObjectiveMode fixed;
    fixed.fix_pe = true;
    fixed.pe_dim = 16;
    ObjectiveEval a = evalObjective({l}, x, orders,
            OrderStrategy::Fixed, fixed);
    EXPECT_TRUE(std::isfinite(a.loss));
    EXPECT_EQ(fixed.peCap(), 16);
    ObjectiveMode open;
    EXPECT_EQ(open.peCap(), kMaxPeDim);
}

TEST(RoundAndScore, ProducesFittingDesign)
{
    Network net = bertBase();
    HardwareConfig hw{16, 64, 256};
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : net.layers) {
        auto xl = packMapping(cosaMap(l, hw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode mode;
    RoundedDesign d = roundAndScore(net.layers, x, orders, mode);
    EXPECT_EQ(d.mappings.size(), net.layers.size());
    NetworkEval ev = referenceNetworkEval(net.layers, d.mappings, d.hw);
    EXPECT_TRUE(ev.fits);
    EXPECT_NEAR(ev.edp, d.eval.edp, 1e-9 * ev.edp);
}

TEST(SelectOrders, NeverWorseThanUniformWs)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 6);
    HardwareConfig hw{16, 64, 256};
    std::vector<Mapping> maps;
    for (const Layer &l : layers)
        maps.push_back(cosaMap(l, hw));
    NetworkEval ws = referenceNetworkEval(layers, maps, hw);
    std::vector<Mapping> maps2 = maps;
    selectOrders(layers, maps2, hw);
    NetworkEval tuned = referenceNetworkEval(layers, maps2, hw);
    EXPECT_LE(tuned.edp, ws.edp * (1.0 + 1e-9));
}

TEST(DosaSearch, ImprovesOverStartPoint)
{
    Network net = bertBase();
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = net.layers;
    spec.options.set("start_points", 1)
            .set("steps_per_start", 120)
            .set("round_every", 60);
    spec.seed = 3;
    SearchReport r = runSearch(spec);
    EXPECT_LT(r.search.best_edp, r.best_start_edp);
    EXPECT_EQ(r.search.trace.size(), 121u);
    NetworkEval ev = referenceNetworkEval(net.layers,
            r.search.best_mappings, r.search.best_hw);
    EXPECT_TRUE(ev.fits);
    EXPECT_NEAR(ev.edp, r.search.best_edp, 1e-6 * ev.edp);
}

TEST(DosaSearch, DeterministicInSeed)
{
    Network net = unet();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 4);
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = layers;
    spec.options.set("start_points", 1)
            .set("steps_per_start", 40)
            .set("round_every", 20);
    spec.seed = 9;
    SearchReport a = runSearch(spec);
    SearchReport b = runSearch(spec);
    EXPECT_DOUBLE_EQ(a.search.best_edp, b.search.best_edp);
}

TEST(DosaSearch, FixPeModeKeepsPeDim)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 3);
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = layers;
    spec.options.set("start_points", 1)
            .set("steps_per_start", 60)
            .set("round_every", 30);
    spec.mode.fix_pe = true;
    spec.mode.pe_dim = 16;
    spec.seed = 4;
    SearchReport r = runSearch(spec);
    EXPECT_EQ(r.search.best_hw.pe_dim, 16);
    for (const Mapping &m : r.search.best_mappings) {
        EXPECT_LE(m.factors.spatial_c, 16);
        EXPECT_LE(m.factors.spatial_k, 16);
    }
}

TEST(DosaSearch, StrategyNamesExposed)
{
    EXPECT_STREQ(strategyName(OrderStrategy::Fixed), "Baseline");
    EXPECT_STREQ(strategyName(OrderStrategy::Iterate), "Iterate");
    EXPECT_STREQ(strategyName(OrderStrategy::Softmax), "Softmax");
}

} // namespace
} // namespace dosa
