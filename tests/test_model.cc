/**
 * @file
 * Tests for the analytical (differentiable) model and the reference
 * (Timeloop-substitute) model:
 *  - the paper's Fig. 3 worked example reproduced exactly,
 *  - cross-validation of the two independent implementations,
 *  - traffic-conservation invariants on random mappings,
 *  - autodiff gradients of the full model vs finite differences.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/tape.hh"
#include "autodiff/var.hh"
#include "model/analytical.hh"
#include "model/reference.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

using ad::Tape;
using ad::Var;

/** The Fig. 3 layer: N=1 R=1 S=1 P=56 Q=56 C=64 K=64. */
Layer
fig3Layer()
{
    Layer l;
    l.name = "fig3";
    l.p = 56;
    l.q = 56;
    l.c = 64;
    l.k = 64;
    return l;
}

/** The Fig. 3 mapping: DRAM p3=56 q3=4, sK=64, sC=64, regs q0=14. */
Mapping
fig3Mapping()
{
    Mapping m;
    m.factors.t(kDram, Dim::P) = 56;
    m.factors.t(kDram, Dim::Q) = 4;
    m.factors.spatial_k = 64;
    m.factors.spatial_c = 64;
    m.factors.t(kRegisters, Dim::Q) = 14;
    m.order = uniformOrder(LoopOrder::WS);
    return m;
}

TEST(Fig3Example, MappingIsComplete)
{
    EXPECT_TRUE(fig3Mapping().complete(fig3Layer()));
}

TEST(Fig3Example, CapacitiesMatchPaper)
{
    Layer l = fig3Layer();
    Factors<double> f = fig3Mapping().continuousFactors();
    // Paper Fig. 3: Accumulator 896 words, Scratchpad 4096 + 896,
    // Registers hold 4096 weights across the array.
    EXPECT_DOUBLE_EQ(tileWords(l, f, kAccumulator, Tensor::Output),
            896.0);
    EXPECT_DOUBLE_EQ(tileWords(l, f, kScratchpad, Tensor::Weight),
            4096.0);
    EXPECT_DOUBLE_EQ(tileWords(l, f, kScratchpad, Tensor::Input),
            896.0);
    EXPECT_DOUBLE_EQ(tileWords(l, f, kRegisters, Tensor::Weight),
            4096.0);
}

TEST(Fig3Example, PeRequirementIs64x64)
{
    Layer l = fig3Layer();
    RefEval ev = referenceEval(l, fig3Mapping(),
            HardwareConfig{64, 64, 64});
    EXPECT_DOUBLE_EQ(ev.pe_dim_req, 64.0);
    EXPECT_DOUBLE_EQ(ev.accum_words_req, 896.0);
    EXPECT_DOUBLE_EQ(ev.spad_words_req, 4096.0 + 896.0);
}

TEST(Fig3Example, DramTrafficMatchesPaperAnnotations)
{
    Layer l = fig3Layer();
    RefEval ev = referenceEval(l, fig3Mapping(),
            HardwareConfig{64, 64, 64});
    auto at = [](Tensor t) { return size_t(static_cast<int>(t)); };
    // Fig. 3 DRAM: Weights 4096, Inputs 200704, Outputs 200704.
    EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Weight)], 4096.0);
    EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Input)], 200704.0);
    EXPECT_DOUBLE_EQ(ev.updates[kDram], 200704.0);
    // Outputs never bounce: each is written exactly once.
    EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Output)], 0.0);
}

TEST(Fig3Example, InnermostTrafficFollowsMacs)
{
    Layer l = fig3Layer();
    RefEval ev = referenceEval(l, fig3Mapping(),
            HardwareConfig{64, 64, 64});
    auto at = [](Tensor t) { return size_t(static_cast<int>(t)); };
    double macs = l.macs();
    EXPECT_DOUBLE_EQ(ev.reads[kRegisters][at(Tensor::Weight)], macs);
    // Inputs broadcast across the 64 K-columns.
    EXPECT_DOUBLE_EQ(ev.reads[kScratchpad][at(Tensor::Input)],
            macs / 64.0);
    // Partial sums reduce across the 64 C-rows before updating.
    EXPECT_DOUBLE_EQ(ev.updates[kAccumulator], macs / 64.0);
}

// ---------------------------------------------------------------------
// Cross-validation: the templated analytical model and the separately
// coded reference model must agree exactly on integer mappings, except
// for DRAM block quantization.

class CrossValidation : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CrossValidation, AnalyticalEqualsReferenceModuloDramBlocks)
{
    Rng rng(GetParam());
    std::vector<Layer> pool = uniqueTrainingLayers();
    HardwareConfig hw{16, 256, 512};
    for (int trial = 0; trial < 25; ++trial) {
        const Layer &l = pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
        Mapping m = randomMapping(l, rng, hw.pe_dim);
        RefEval ref = referenceEval(l, m, hw);

        Factors<double> f = m.continuousFactors();
        LayerCounts<double> c = computeCounts(l, f, m.order);
        // On-chip access totals agree exactly.
        for (int lvl = 0; lvl < kDram; ++lvl)
            EXPECT_NEAR(c.accesses[size_t(lvl)],
                    ref.accesses[size_t(lvl)],
                    1e-6 * ref.accesses[size_t(lvl)] + 1e-9)
                    << l.str() << " level " << lvl;
        // Raw DRAM bytes agree; quantized bytes round up per stream.
        EXPECT_NEAR(c.dram_bytes, ref.dram_bytes,
                1e-6 * ref.dram_bytes + 1e-9);
        EXPECT_GE(ref.dram_bytes_quant, ref.dram_bytes - 1e-9);
        EXPECT_LE(ref.dram_bytes_quant,
                ref.dram_bytes + 3.0 * kDramBlockBytes);
        // Capacity requirements agree.
        EXPECT_DOUBLE_EQ(c.accum_words_req, ref.accum_words_req);
        EXPECT_DOUBLE_EQ(c.spad_words_req, ref.spad_words_req);

        // Perf: identical up to the DRAM quantization delta.
        LayerPerf<double> perf =
                computePerf(c, hwScalars<double>(hw));
        double dram_delta_bytes =
                ref.dram_bytes_quant - ref.dram_bytes;
        double energy_delta_uj =
                dram_delta_bytes * EnergyModel::kEpaDram * 1e-6;
        EXPECT_NEAR(perf.energy_uj, ref.energy_uj - energy_delta_uj,
                1e-9 * ref.energy_uj + 1e-12);
        EXPECT_LE(perf.latency, ref.latency + 1e-9);
        EXPECT_GE(perf.latency,
                ref.latency - dram_delta_bytes / 8.0 - 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
        ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------
// Conservation and consistency invariants on random mappings.

class TrafficInvariants : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TrafficInvariants, HoldOnRandomMappings)
{
    Rng rng(GetParam());
    std::vector<Layer> pool = uniqueTrainingLayers();
    HardwareConfig hw{32, 512, 1024};
    auto at = [](Tensor t) { return size_t(static_cast<int>(t)); };
    for (int trial = 0; trial < 25; ++trial) {
        const Layer &l = pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
        Mapping m = randomMapping(l, rng, hw.pe_dim);
        RefEval ev = referenceEval(l, m, hw);
        double macs = l.macs();
        double sc = static_cast<double>(m.factors.spatial_c);
        double sk = static_cast<double>(m.factors.spatial_k);

        // Every MAC reads one weight from the registers.
        EXPECT_DOUBLE_EQ(ev.reads[kRegisters][at(Tensor::Weight)],
                macs);
        // Input reads from the scratchpad: one per MAC after K-fanout.
        EXPECT_DOUBLE_EQ(ev.reads[kScratchpad][at(Tensor::Input)],
                macs / sk);
        // Output updates: one per MAC after the C-reduction.
        EXPECT_DOUBLE_EQ(ev.updates[kAccumulator], macs / sc);

        // Flow conservation: DRAM reads feed the writes of the next
        // inner level that holds the tensor.
        EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Weight)],
                ev.writes[kScratchpad][at(Tensor::Weight)]);
        EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Input)],
                ev.writes[kScratchpad][at(Tensor::Input)]);
        // Scratchpad weight reads feed register writes.
        EXPECT_DOUBLE_EQ(ev.reads[kScratchpad][at(Tensor::Weight)],
                ev.writes[kRegisters][at(Tensor::Weight)]);

        // Minimum-traffic lower bounds: every tensor word must move
        // at least once.
        EXPECT_GE(ev.writes[kScratchpad][at(Tensor::Weight)],
                l.tensorWords(Tensor::Weight) - 1e-6);
        EXPECT_GE(ev.updates[kDram],
                l.tensorWords(Tensor::Output) - 1e-6);
        // Output DRAM reads exclude the first (zero-init) fill.
        EXPECT_GE(ev.reads[kDram][at(Tensor::Output)], 0.0);
        EXPECT_DOUBLE_EQ(ev.reads[kDram][at(Tensor::Output)],
                ev.writes[kAccumulator][at(Tensor::Output)] -
                l.tensorWords(Tensor::Output));

        // Latency is bounded below by the compute roofline.
        EXPECT_GE(ev.latency, macs / (sc * sk) - 1e-6);
        EXPECT_GT(ev.energy_uj, 0.0);
        EXPECT_DOUBLE_EQ(ev.edp, ev.energy_uj * ev.latency);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficInvariants,
        ::testing::Values(11, 22, 33, 44, 55));

TEST(Model, BetterOrderingNeverHurtsStationaryTensor)
{
    // Weight traffic under WS ordering is minimal among the three
    // orderings (that is its definition).
    Rng rng(77);
    std::vector<Layer> pool = uniqueTrainingLayers();
    auto at = [](Tensor t) { return size_t(static_cast<int>(t)); };
    HardwareConfig hw{16, 256, 512};
    for (int trial = 0; trial < 15; ++trial) {
        const Layer &l = pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
        Mapping m = randomMapping(l, rng, hw.pe_dim);
        double w_traffic[kNumOrders];
        for (int o = 0; o < kNumOrders; ++o) {
            m.order = uniformOrder(static_cast<LoopOrder>(o));
            RefEval ev = referenceEval(l, m, hw);
            w_traffic[o] = ev.writes[kRegisters][at(Tensor::Weight)] +
                    ev.writes[kScratchpad][at(Tensor::Weight)];
        }
        EXPECT_LE(w_traffic[0], w_traffic[1] + 1e-6) << l.str();
        EXPECT_LE(w_traffic[0], w_traffic[2] + 1e-6) << l.str();
    }
}

TEST(Model, MinimalHwInferenceCoversAllMappings)
{
    Rng rng(88);
    Network net = resnet50();
    std::vector<Mapping> maps;
    for (const Layer &l : net.layers)
        maps.push_back(randomMapping(l, rng, 32));
    HardwareConfig hw = inferMinimalHw(net.layers, maps);
    for (size_t i = 0; i < maps.size(); ++i) {
        RefEval ev = referenceEval(net.layers[i], maps[i], hw);
        EXPECT_TRUE(ev.fits) << net.layers[i].str();
    }
}

TEST(Model, ReferenceFitsEqualsReferenceEvalFits)
{
    // Random (layer, mapping, hw) triples. Mappings may use up to
    // 128x128 PEs while the array is drawn from 4..128, and buffers
    // span small to large, so both verdicts occur often.
    static const int64_t pe_options[] = {4, 8, 16, 32, 64, 128};
    std::vector<Layer> layers;
    for (const Network &net : {resnet50(), bertBase(), unet()})
        layers.insert(layers.end(), net.layers.begin(), net.layers.end());
    Rng rng(1313);
    int fits = 0, misfits = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const Layer &l = layers[size_t(rng.uniformInt(0,
                static_cast<int64_t>(layers.size()) - 1))];
        HardwareConfig hw;
        hw.pe_dim = pe_options[rng.uniformInt(0, 5)];
        hw.accum_kib = static_cast<int64_t>(
                std::llround(rng.logUniform(1.0, 512.0)));
        hw.spad_kib = static_cast<int64_t>(
                std::llround(rng.logUniform(1.0, 1024.0)));
        Mapping m = randomMapping(l, rng, 128);
        const bool expect = referenceEval(l, m, hw).fits;
        ASSERT_EQ(referenceFits(l, m, hw), expect)
                << l.str() << " on " << hw.str() << ": " << m.str();
        (expect ? fits : misfits) += 1;
    }
    EXPECT_GT(fits, 100);
    EXPECT_GT(misfits, 100);
}

TEST(Model, NetworkEvalWeightsByLayerCount)
{
    Layer a = Layer::conv("a", 1, 8, 16, 16);
    a.count = 3;
    HardwareConfig hw{8, 64, 64};
    Rng rng(5);
    Mapping m = randomMapping(a, rng, hw.pe_dim);
    // Rejection-free: evaluate directly.
    RefEval single = referenceEval(a, m, hw);
    NetworkEval net = referenceNetworkEval({a}, {m}, hw);
    EXPECT_NEAR(net.energy_uj, 3.0 * single.energy_uj, 1e-9);
    EXPECT_NEAR(net.latency, 3.0 * single.latency, 1e-9);
    EXPECT_NEAR(net.edp, 9.0 * single.edp, 1e-6 * net.edp);
}

// ---------------------------------------------------------------------
// Differentiability: gradients of the full per-layer EDP with respect
// to every tiling factor match central finite differences.

TEST(ModelGradients, FullModelMatchesFiniteDifference)
{
    Layer l = Layer::conv("g", 3, 14, 32, 64);
    Mapping m0;
    m0.factors.t(kRegisters, Dim::Q) = 7;
    m0.factors.spatial_c = 8;
    m0.factors.spatial_k = 8;
    m0.factors.t(kAccumulator, Dim::C) = 2;
    m0.factors.t(kScratchpad, Dim::K) = 4;
    m0.factors.t(kDram, Dim::P) = 14;
    m0.factors.t(kDram, Dim::Q) = 2;
    m0.factors.t(kDram, Dim::C) = 2;
    m0.factors.t(kDram, Dim::K) = 2;
    m0.factors.t(kDram, Dim::R) = 3;
    m0.factors.t(kDram, Dim::S) = 3;
    ASSERT_TRUE(m0.complete(l));
    OrderVec order = uniformOrder(LoopOrder::WS);

    // EDP as a function of a multiplicative perturbation of factor
    // (lvl, dim); hardware derived from the mapping (min-HW mode).
    auto edp_at = [&](int lvl, Dim d, double scale) {
        Factors<double> f = m0.continuousFactors();
        f.t(lvl, d) *= scale;
        LayerCounts<double> c = computeCounts(l, f, order);
        HwScalars<double> hw;
        double pe = std::max(f.spatial_c, f.spatial_k);
        hw.cpe = pe * pe;
        hw.accum_words = std::max(1.0, c.accum_words_req);
        hw.spad_words = std::max(1.0, c.spad_words_req);
        LayerPerf<double> perf = computePerf(c, hw);
        return perf.energy_uj * perf.latency;
    };

    // AD gradient through the same construction.
    Tape tape;
    Factors<Var> fv;
    std::vector<std::pair<std::pair<int, Dim>, Var>> leaves;
    for (int lvl = 0; lvl < kNumLevels; ++lvl) {
        for (Dim d : kAllDims) {
            Var leaf(tape, static_cast<double>(m0.factors.t(lvl, d)));
            fv.t(lvl, d) = leaf;
            leaves.push_back({{lvl, d}, leaf});
        }
    }
    fv.spatial_c = Var(tape,
            static_cast<double>(m0.factors.spatial_c));
    fv.spatial_k = Var(tape,
            static_cast<double>(m0.factors.spatial_k));
    LayerCounts<Var> cv = computeCounts(l, fv, order);
    HwScalars<Var> hwv;
    Var pe = max(fv.spatial_c, fv.spatial_k);
    hwv.cpe = pe * pe;
    hwv.accum_words = max(cv.accum_words_req, Var(1.0));
    hwv.spad_words = max(cv.spad_words_req, Var(1.0));
    LayerPerf<Var> perfv = computePerf(cv, hwv);
    Var edp = perfv.energy_uj * perfv.latency;
    auto adj = tape.gradient(edp.id());

    double eps = 1e-5;
    int checked = 0;
    for (const auto &[key, leaf] : leaves) {
        auto [lvl, d] = key;
        double f0 = static_cast<double>(m0.factors.t(lvl, d));
        // Factors at exactly 1 or 2 sit on kinks of the gated refetch
        // rule (gate = clamp(f-1, 0, 1)); FD straddles the kink there
        // while AD takes a one-sided subgradient.
        if (f0 == 1.0 || f0 == 2.0)
            continue;
        // FD in the multiplicative direction: df = f0 * dscale.
        double fd = (edp_at(lvl, d, 1.0 + eps) -
                     edp_at(lvl, d, 1.0 - eps)) / (2.0 * eps * f0);
        double g_ad = adj[size_t(leaf.id())];
        if (std::abs(fd) < 1e-12 && std::abs(g_ad) < 1e-12)
            continue;
        EXPECT_NEAR(g_ad, fd,
                2e-3 * std::max(std::abs(fd), std::abs(g_ad)))
                << "factor level=" << lvl << " dim=" << dimName(d);
        ++checked;
    }
    EXPECT_GE(checked, 5); // enough informative coordinates exercised
}

TEST(ModelGradients, EnergyDecreasesWithMoreSpatialReuse)
{
    // Increasing the spatial K factor (holding others fixed) must not
    // increase input scratchpad reads — the broadcast discount grows.
    Layer l = Layer::conv("b", 1, 16, 64, 64);
    Factors<double> f;
    for (Dim d : kAllDims)
        f.t(kDram, d) = static_cast<double>(l.size(d));
    f.t(kDram, Dim::K) = 16.0;
    f.spatial_k = 4.0;
    OrderVec order = uniformOrder(LoopOrder::WS);
    LayerCounts<double> a = computeCounts(l, f, order);
    f.spatial_k = 8.0;
    f.t(kDram, Dim::K) = 8.0;
    LayerCounts<double> b = computeCounts(l, f, order);
    EXPECT_LT(b.accesses[kScratchpad], a.accesses[kScratchpad]);
}

TEST(Model, OrderPermutationsAreCompletePermutations)
{
    for (LoopOrder o : {LoopOrder::WS, LoopOrder::IS, LoopOrder::OS}) {
        const auto &perm = orderPermutation(o);
        std::array<bool, kNumDims> seen{};
        for (Dim d : perm)
            seen[size_t(static_cast<int>(d))] = true;
        for (bool s : seen)
            EXPECT_TRUE(s) << orderName(o);
        // The stationary tensor's irrelevant dims sit innermost.
        Tensor t = stationaryTensor(o);
        bool hit_relevant = false;
        for (int i = kNumDims - 1; i >= 0; --i) {
            if (dimRelevant(t, perm[size_t(i)]))
                hit_relevant = true;
            else
                EXPECT_FALSE(hit_relevant)
                        << orderName(o) << ": irrelevant dim outside "
                        << "a relevant one";
        }
    }
}

} // namespace
} // namespace dosa
