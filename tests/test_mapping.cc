/**
 * @file
 * Unit and property tests for mappings: completeness, random
 * generation (draw for draw against the per-factor-lookup algorithm),
 * divisor-quota rounding and ordering semantics.
 */

#include <gtest/gtest.h>

#include "mapping/mapping.hh"
#include "mapping/rounding.hh"
#include "model/reference.hh"
#include "search/search_common.hh"
#include "util/divisors.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"
#include "workload/workload_registry.hh"

namespace dosa {
namespace {

Layer
smallLayer()
{
    return Layer::conv("small", 3, 8, 16, 32, 1);
}

TEST(Mapping, DefaultIsAllOnes)
{
    Mapping m;
    for (Dim d : kAllDims)
        EXPECT_EQ(m.dimProduct(d), 1);
    EXPECT_TRUE(m.positive());
}

TEST(Mapping, CompleteChecksEveryDim)
{
    Layer l = smallLayer();
    Mapping m;
    for (Dim d : kAllDims)
        m.factors.t(kDram, d) = l.size(d);
    EXPECT_TRUE(m.complete(l));
    m.factors.t(kDram, Dim::C) = 8; // 8 != 16
    EXPECT_FALSE(m.complete(l));
}

TEST(Mapping, SpatialFactorsCountTowardProducts)
{
    Layer l = smallLayer();
    Mapping m;
    for (Dim d : kAllDims)
        m.factors.t(kDram, d) = l.size(d);
    m.factors.t(kDram, Dim::C) = 4;
    m.factors.spatial_c = 4;
    m.factors.t(kDram, Dim::K) = 8;
    m.factors.spatial_k = 4;
    EXPECT_TRUE(m.complete(l));
    EXPECT_EQ(m.dimProduct(Dim::C), 16);
    EXPECT_EQ(m.dimProduct(Dim::K), 32);
}

TEST(Mapping, ContinuousFactorsRoundTrip)
{
    Layer l = smallLayer();
    Rng rng(3);
    Mapping m = randomMapping(l, rng);
    Factors<double> f = m.continuousFactors();
    for (int lvl = 0; lvl < kNumLevels; ++lvl)
        for (Dim d : kAllDims)
            EXPECT_DOUBLE_EQ(f.t(lvl, d),
                    static_cast<double>(m.factors.t(lvl, d)));
    EXPECT_DOUBLE_EQ(f.spatial_c,
            static_cast<double>(m.factors.spatial_c));
}

TEST(Mapping, StrMentionsNonUnitFactors)
{
    Layer l = smallLayer();
    Mapping m;
    for (Dim d : kAllDims)
        m.factors.t(kDram, d) = l.size(d);
    std::string s = m.str();
    EXPECT_NE(s.find("C=16"), std::string::npos);
    EXPECT_NE(s.find("DRAM"), std::string::npos);
}

TEST(Ordering, UniformOrderKeepsRegistersWs)
{
    OrderVec v = uniformOrder(LoopOrder::OS);
    EXPECT_EQ(v[kRegisters], LoopOrder::WS);
    EXPECT_EQ(v[kAccumulator], LoopOrder::OS);
    EXPECT_EQ(v[kDram], LoopOrder::OS);
}

TEST(Ordering, StationaryTensors)
{
    EXPECT_EQ(stationaryTensor(LoopOrder::WS), Tensor::Weight);
    EXPECT_EQ(stationaryTensor(LoopOrder::IS), Tensor::Input);
    EXPECT_EQ(stationaryTensor(LoopOrder::OS), Tensor::Output);
}

TEST(Ordering, RefetchSetsMatchStationarity)
{
    // Under WS, weights are refetched only by weight dims; every other
    // tensor is refetched by all dims.
    EXPECT_TRUE(dimMultipliesRefetch(LoopOrder::WS, Tensor::Weight,
            Dim::C));
    EXPECT_FALSE(dimMultipliesRefetch(LoopOrder::WS, Tensor::Weight,
            Dim::P));
    EXPECT_TRUE(dimMultipliesRefetch(LoopOrder::WS, Tensor::Output,
            Dim::C));
    // Under OS, outputs escape the reduction dims.
    EXPECT_FALSE(dimMultipliesRefetch(LoopOrder::OS, Tensor::Output,
            Dim::C));
    EXPECT_TRUE(dimMultipliesRefetch(LoopOrder::OS, Tensor::Output,
            Dim::K));
}

struct RandomMappingCase
{
    const char *net;
    uint64_t seed;
};

// Names the case by value; gtest's default byte dump would print the
// string pointer, which changes from run to run under ASLR.
void
PrintTo(const RandomMappingCase &c, std::ostream *os)
{
    *os << c.net << "_seed" << c.seed;
}

class RandomMappingProperty
    : public ::testing::TestWithParam<RandomMappingCase>
{
};

TEST_P(RandomMappingProperty, AlwaysCompletePositiveAndCapped)
{
    auto param = GetParam();
    Network net = networkByName(param.net);
    Rng rng(param.seed);
    for (const Layer &l : net.layers) {
        for (int trial = 0; trial < 5; ++trial) {
            Mapping m = randomMapping(l, rng, 32);
            EXPECT_TRUE(m.complete(l)) << l.str();
            EXPECT_TRUE(m.positive()) << l.str();
            EXPECT_LE(m.factors.spatial_c, 32);
            EXPECT_LE(m.factors.spatial_k, 32);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Networks, RandomMappingProperty,
        ::testing::Values(RandomMappingCase{"resnet50", 1},
                          RandomMappingCase{"bert", 2},
                          RandomMappingCase{"unet", 3},
                          RandomMappingCase{"retinanet", 4},
                          RandomMappingCase{"deepbench", 5}));

/**
 * Reference draw that looks every divisor list up by value: spatial
 * factors picked from a filtered copy of divisorsOf, and each temporal
 * factor from divisorsOf of the quota still left. randomMapping, which
 * walks divisor lattices instead, must equal it draw for draw.
 */
Mapping
perFactorLookupMapping(const Layer &layer, Rng &rng, int64_t pe_cap)
{
    Mapping m;
    auto spatial = [&](int64_t n) {
        std::vector<int64_t> ok;
        for (int64_t d : divisorsOf(n))
            if (d <= pe_cap)
                ok.push_back(d);
        return ok[size_t(rng.uniformInt(0, int64_t(ok.size()) - 1))];
    };
    m.factors.spatial_c = spatial(layer.c);
    m.factors.spatial_k = spatial(layer.k);
    for (Dim d : kAllDims) {
        int64_t remaining = layer.size(d);
        if (d == Dim::C)
            remaining /= m.factors.spatial_c;
        if (d == Dim::K)
            remaining /= m.factors.spatial_k;
        for (int lvl = 0; lvl + 1 < kNumLevels; ++lvl) {
            const std::vector<int64_t> &divs = divisorsOf(remaining);
            const int64_t pick = divs[size_t(rng.uniformInt(0,
                    int64_t(divs.size()) - 1))];
            m.factors.t(lvl, d) = pick;
            remaining /= pick;
        }
        m.factors.t(kNumLevels - 1, d) = remaining;
    }
    for (int lvl = kAccumulator; lvl < kNumLevels; ++lvl)
        m.order[size_t(lvl)] =
                static_cast<LoopOrder>(rng.uniformInt(0, kNumOrders - 1));
    return m;
}

TEST(RandomMapping, EqualsPerFactorLookupDrawOnEveryRegisteredLayer)
{
    // Every layer of every registered workload (the zoo, deepbench and
    // the LLM built-ins), four PE caps, several seeds: the same
    // mappings and the same next raw draw. randomValidMapping must
    // equal the same rejection loop over the reference draw; the small
    // buffers make it reject often.
    size_t layers = 0;
    for (const std::string &name : Workloads::names()) {
        for (const Layer &layer : Workloads::find(name)->layers) {
            ++layers;
            for (int64_t pe_cap : {1, 4, 16, 128}) {
                const HardwareConfig hw{pe_cap, 8, 16};
                for (uint64_t seed = 0; seed < 12; ++seed) {
                    Rng rng = Rng::stream(seed, layers);
                    Rng reference = rng;
                    for (int draw = 0; draw < 3; ++draw)
                        ASSERT_EQ(randomMapping(layer, rng, pe_cap),
                                perFactorLookupMapping(layer, reference,
                                        pe_cap))
                                << name << " " << layer.str() << " cap "
                                << pe_cap << " seed " << seed;
                    Mapping expected = minimalMapping(layer);
                    for (int i = 0; i < 64; ++i) {
                        Mapping m = perFactorLookupMapping(layer,
                                reference, pe_cap);
                        if (referenceFits(layer, m, hw)) {
                            expected = m;
                            break;
                        }
                    }
                    ASSERT_EQ(randomValidMapping(layer, hw, rng), expected)
                            << name << " " << layer.str() << " cap "
                            << pe_cap << " seed " << seed;
                    ASSERT_EQ(rng.engine()(), reference.engine()())
                            << name << " " << layer.str();
                }
            }
        }
    }
    EXPECT_GT(layers, 100u);
}

TEST(RandomMappingDeathTest, PeCapBelowOneIsFatal)
{
    Rng rng(1);
    EXPECT_DEATH(randomMapping(smallLayer(), rng, 0), "pe_cap");
}

TEST(Rounding, ExactFactorsPassThrough)
{
    Layer l = smallLayer();
    Factors<double> f;
    f.t(kRegisters, Dim::Q) = 4.0;
    f.spatial_c = 4.0;
    f.spatial_k = 8.0;
    f.t(kAccumulator, Dim::C) = 2.0;
    Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::WS));
    EXPECT_TRUE(m.complete(l));
    EXPECT_EQ(m.factors.t(kRegisters, Dim::Q), 4);
    EXPECT_EQ(m.factors.spatial_c, 4);
    EXPECT_EQ(m.factors.spatial_k, 8);
    EXPECT_EQ(m.factors.t(kAccumulator, Dim::C), 2);
    // DRAM absorbs the residue: C = 16/(4*2) = 2.
    EXPECT_EQ(m.factors.t(kDram, Dim::C), 2);
}

TEST(Rounding, NonDivisorSnapsToNearest)
{
    Layer l;
    l.name = "p56";
    l.p = 56;
    Factors<double> f;
    f.t(kRegisters, Dim::P) = 13.0; // divisors of 56: ...8, 14...
    Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::WS));
    EXPECT_EQ(m.factors.t(kRegisters, Dim::P), 14);
    EXPECT_EQ(m.factors.t(kDram, Dim::P), 4);
    EXPECT_TRUE(m.complete(l));
}

TEST(Rounding, QuotaPreventsOverflow)
{
    Layer l;
    l.name = "p12";
    l.p = 12;
    Factors<double> f;
    f.t(kRegisters, Dim::P) = 6.0;
    f.t(kAccumulator, Dim::P) = 4.0; // 6*4=24 > 12: quota forces 2
    Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::WS));
    EXPECT_TRUE(m.complete(l));
    EXPECT_EQ(m.factors.t(kRegisters, Dim::P), 6);
    EXPECT_EQ(m.factors.t(kAccumulator, Dim::P), 2);
}

TEST(Rounding, RespectsPeCap)
{
    Layer l;
    l.name = "c64";
    l.c = 64;
    l.k = 64;
    Factors<double> f;
    f.spatial_c = 64.0;
    f.spatial_k = 64.0;
    Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::WS), 16);
    EXPECT_LE(m.factors.spatial_c, 16);
    EXPECT_LE(m.factors.spatial_k, 16);
    EXPECT_TRUE(m.complete(l));
}

TEST(Rounding, AttachesRequestedOrder)
{
    Layer l = smallLayer();
    Factors<double> f;
    Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::IS));
    EXPECT_EQ(m.order[kScratchpad], LoopOrder::IS);
    EXPECT_EQ(m.order[kRegisters], LoopOrder::WS);
}

class RoundingFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RoundingFuzz, RandomContinuousFactorsAlwaysRoundValid)
{
    Rng rng(GetParam());
    std::vector<Layer> pool = uniqueTrainingLayers();
    for (int trial = 0; trial < 40; ++trial) {
        const Layer &l = pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
        Factors<double> f;
        for (int lvl = 0; lvl < kDram; ++lvl)
            for (Dim d : kAllDims)
                f.t(lvl, d) = rng.logUniform(0.3,
                        static_cast<double>(l.size(d)) + 2.0);
        f.spatial_c = rng.logUniform(0.5, 200.0);
        f.spatial_k = rng.logUniform(0.5, 200.0);
        Mapping m = roundToValid(f, l, uniformOrder(LoopOrder::WS));
        EXPECT_TRUE(m.complete(l)) << l.str();
        EXPECT_TRUE(m.positive()) << l.str();
        EXPECT_LE(m.factors.spatial_c, kMaxPeDim);
        EXPECT_LE(m.factors.spatial_k, kMaxPeDim);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingFuzz,
        ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace dosa
