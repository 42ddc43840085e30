/**
 * @file
 * Cross-cutting sweep tests: every zoo network mapped onto every
 * expert baseline with both mappers, full-system invariants checked at
 * each point. These catch integration regressions that unit tests of
 * individual modules cannot (e.g. a mapper emitting factors a model
 * mishandles for some layer shape).
 */

#include <gtest/gtest.h>

#include "arch/baselines.hh"
#include "model/reference.hh"
#include "rtl/gemmini_rtl.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

struct SweepCase
{
    const char *network;
    int baseline_index;
};

// Names the case by value; gtest's default byte dump would print the
// string pointer, which changes from run to run under ASLR.
void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.network << "_baseline" << c.baseline_index;
}

class NetworkBaselineSweep
    : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(NetworkBaselineSweep, EveryLayerEvaluatesConsistently)
{
    SweepCase c = GetParam();
    Network net = networkByName(c.network);
    HardwareConfig hw =
            allBaselines()[size_t(c.baseline_index)].config;
    Rng rng(uint64_t(c.baseline_index) * 1000 + 1);

    for (const Layer &l : net.layers) {
        for (int mapper = 0; mapper < 2; ++mapper) {
            Mapping m = mapper == 0 ? cosaMap(l, hw)
                                    : randomValidMapping(l, hw, rng);
            RefEval ev = referenceEval(l, m, hw);
            // System invariants.
            EXPECT_TRUE(ev.fits) << l.str() << " on " << hw.str();
            EXPECT_GT(ev.latency, 0.0);
            EXPECT_GT(ev.energy_uj, 0.0);
            EXPECT_GE(ev.latency,
                    l.macs() / hw.cpe() - 1e-6) << l.str();
            // Energy floor: every MAC costs at least the PE energy
            // plus one register read.
            double floor_uj = l.macs() *
                    (EnergyModel::kEpaMac +
                     EnergyModel::kEpaRegister) * 1e-6;
            EXPECT_GE(ev.energy_uj, floor_uj * 0.999) << l.str();
            // Quantized DRAM traffic dominates raw traffic.
            EXPECT_GE(ev.dram_bytes_quant, ev.dram_bytes - 1e-9);
            // RTL latency dominates the idealized model.
            EXPECT_GE(rtlLatency(l, m, hw), ev.latency * 0.999)
                    << l.str();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ZooTimesBaselines, NetworkBaselineSweep,
        ::testing::Values(
                SweepCase{"resnet50", 0}, SweepCase{"resnet50", 2},
                SweepCase{"bert", 1}, SweepCase{"bert", 3},
                SweepCase{"unet", 0}, SweepCase{"unet", 3},
                SweepCase{"retinanet", 2}, SweepCase{"retinanet", 1},
                SweepCase{"alexnet", 3}, SweepCase{"vgg16", 2},
                SweepCase{"resnext50", 3}, SweepCase{"deepbench", 2}));

TEST(SystemSweep, MoreHardwareNeverHurtsCosaMappings)
{
    // Under the CoSA-substitute mapper, strictly more hardware
    // resources must not worsen any layer's latency (energy can grow
    // with capacity-dependent EPA, latency cannot: the mapper can
    // always fall back to the smaller design's mapping).
    HardwareConfig small{8, 16, 64};
    HardwareConfig large{32, 256, 1024};
    for (const Layer &l : resnet50().layers) {
        double lat_small =
                referenceEval(l, cosaMap(l, small), small).latency;
        double lat_large =
                referenceEval(l, cosaMap(l, large), large).latency;
        EXPECT_LE(lat_large, lat_small * 1.001) << l.str();
    }
}

TEST(SystemSweep, NetworkEdpComposesFromLayerSums)
{
    // Eq 14: EDP(model) = (sum E)(sum L), not sum(E*L).
    Network net = bertBase();
    HardwareConfig hw = gemminiDefault().config;
    std::vector<Mapping> maps;
    double e = 0.0, lat = 0.0, sum_edp = 0.0;
    for (const Layer &l : net.layers) {
        maps.push_back(cosaMap(l, hw));
        RefEval ev = referenceEval(l, maps.back(), hw);
        double cnt = static_cast<double>(l.count);
        e += cnt * ev.energy_uj;
        lat += cnt * ev.latency;
        sum_edp += cnt * ev.edp;
    }
    NetworkEval ne = referenceNetworkEval(net.layers, maps, hw);
    EXPECT_NEAR(ne.edp, e * lat, 1e-6 * ne.edp);
    // The Eq 14 product is always >= the per-layer EDP sum.
    EXPECT_GE(ne.edp, sum_edp);
}

} // namespace
} // namespace dosa
