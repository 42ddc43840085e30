/**
 * @file
 * Timeloop-substitute reference model: integer-exact traffic, latency and energy for concrete mappings.
 */
#include "model/reference.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "model/analytical.hh" // orderPermutation only
#include "util/logging.hh"

namespace dosa {

namespace {

/** One temporal loop of the concrete nest. */
struct LoopEntry
{
    int level;
    Dim dim;
    int64_t bound;
};

/** Temporal nest, outermost first, covering levels >= from_level. */
std::vector<LoopEntry>
buildNest(const Mapping &m, int from_level)
{
    std::vector<LoopEntry> nest;
    nest.reserve(size_t(kNumDims * (kNumLevels - from_level)));
    for (int lvl = kNumLevels - 1; lvl >= from_level; --lvl) {
        const auto &perm = orderPermutation(m.order[size_t(lvl)]);
        for (Dim d : perm)
            nest.push_back({lvl, d, m.factors.t(lvl, d)});
    }
    return nest;
}

/**
 * Times the tile of tensor t at from_level is (re)fetched: the product
 * of all loop bounds outer to, and including, the innermost relevant
 * loop whose bound exceeds 1.
 */
double
refetchCount(const Mapping &m, int from_level, Tensor t)
{
    std::vector<LoopEntry> nest = buildNest(m, from_level);
    int innermost_rel = -1;
    for (int i = static_cast<int>(nest.size()) - 1; i >= 0; --i) {
        if (dimRelevant(t, nest[size_t(i)].dim) &&
            nest[size_t(i)].bound > 1) {
            innermost_rel = i;
            break;
        }
    }
    if (innermost_rel < 0)
        return 1.0;
    double prod = 1.0;
    for (int i = 0; i <= innermost_rel; ++i)
        prod *= static_cast<double>(nest[size_t(i)].bound);
    return prod;
}

/** Integer tile footprint (words) of tensor t at a level. */
double
tileFootprint(const Layer &layer, const Mapping &m, int level, Tensor t)
{
    const Factors<int64_t> &f = m.factors;
    if (t == Tensor::Input) {
        int64_t cn = 1, ip = 1, iq = 1, ir = 1, is = 1;
        for (int j = 0; j < level; ++j) {
            cn *= f.t(j, Dim::C) * f.t(j, Dim::N);
            ip *= f.t(j, Dim::P);
            iq *= f.t(j, Dim::Q);
            ir *= f.t(j, Dim::R);
            is *= f.t(j, Dim::S);
        }
        cn *= f.spatial_c;
        double h = static_cast<double>(layer.stride * (ip - 1) + ir);
        double w = static_cast<double>(layer.stride * (iq - 1) + is);
        return static_cast<double>(cn) * h * w;
    }
    int64_t prod = 1;
    for (int j = 0; j < level; ++j)
        for (Dim d : kAllDims)
            if (dimRelevant(t, d))
                prod *= f.t(j, d);
    if (dimRelevant(t, Dim::C))
        prod *= f.spatial_c;
    if (dimRelevant(t, Dim::K))
        prod *= f.spatial_k;
    return static_cast<double>(prod);
}

/** Spatial broadcast/reduction discount at a level for tensor t. */
double
discount(const Mapping &m, int level, Tensor t)
{
    double d = 1.0;
    if (level == kAccumulator && !dimRelevant(t, Dim::C))
        d *= static_cast<double>(m.factors.spatial_c);
    if (level == kScratchpad && !dimRelevant(t, Dim::K))
        d *= static_cast<double>(m.factors.spatial_k);
    return d;
}

/** Round bytes up to whole DRAM blocks (Timeloop-style accounting). */
double
quantizeToBlocks(double bytes)
{
    if (bytes <= 0.0)
        return 0.0;
    return std::ceil(bytes / kDramBlockBytes) * kDramBlockBytes;
}

void
requireValid(const char *who, const Layer &layer, const Mapping &mapping)
{
    if (!mapping.complete(layer) || !mapping.positive())
        panic(std::string(who) + ": mapping is not a valid complete "
              "mapping for layer " + layer.str());
}

} // namespace

bool
referenceFits(const Layer &layer, const Mapping &mapping,
              const HardwareConfig &hw)
{
    requireValid("referenceFits", layer, mapping);
    const Factors<int64_t> &f = mapping.factors;
    return static_cast<double>(std::max(f.spatial_c, f.spatial_k)) <=
                   static_cast<double>(hw.pe_dim) &&
           tileFootprint(layer, mapping, kAccumulator, Tensor::Output) <=
                   hw.accumWords() &&
           tileFootprint(layer, mapping, kScratchpad, Tensor::Weight) +
                           tileFootprint(layer, mapping, kScratchpad,
                                   Tensor::Input) <=
                   hw.spadWords();
}

RefEval
referenceEval(const Layer &layer, const Mapping &mapping,
              const HardwareConfig &hw)
{
    requireValid("referenceEval", layer, mapping);

    RefEval ev;
    const double macs = layer.macs();
    auto at = [](Tensor t) { return size_t(static_cast<int>(t)); };

    // Writes into on-chip levels.
    for (Tensor t : kAllTensors) {
        for (int i = 0; i < kDram; ++i) {
            if (!levelHoldsTensor(i, t))
                continue;
            ev.writes[size_t(i)][at(t)] =
                    tileFootprint(layer, mapping, i, t) *
                    refetchCount(mapping, i, t);
        }
    }

    // Reads.
    for (Tensor t : kAllTensors) {
        for (int i = 0; i < kNumLevels; ++i) {
            if (!levelHoldsTensor(i, t))
                continue;
            if (i == innermostLevel(t)) {
                ev.reads[size_t(i)][at(t)] =
                        macs / discount(mapping, i, t);
            } else if (i > innermostLevel(t)) {
                int inner = nextInnerLevel(i, t);
                ev.reads[size_t(i)][at(t)] =
                        ev.writes[size_t(inner)][at(t)] /
                        discount(mapping, i, t);
            }
        }
    }
    // First output fill is a zero-init, not a DRAM read.
    ev.reads[size_t(kDram)][at(Tensor::Output)] = std::max(0.0,
            ev.reads[size_t(kDram)][at(Tensor::Output)] -
            layer.tensorWords(Tensor::Output));

    // Updates.
    ev.updates[size_t(kAccumulator)] =
            macs / discount(mapping, kAccumulator, Tensor::Output);
    ev.updates[size_t(kDram)] =
            ev.writes[size_t(kAccumulator)][at(Tensor::Output)] /
            discount(mapping, kDram, Tensor::Output);

    // Per-level access totals.
    for (int i = 0; i < kNumLevels; ++i) {
        double acc = ev.updates[size_t(i)];
        for (Tensor t : kAllTensors) {
            acc += ev.reads[size_t(i)][at(t)];
            if (i < kDram)
                acc += ev.writes[size_t(i)][at(t)];
        }
        ev.accesses[size_t(i)] = acc;
    }

    // DRAM bytes, raw and block-quantized per tensor stream.
    double w_bytes = ev.reads[size_t(kDram)][at(Tensor::Weight)] *
                     wordBytes(Tensor::Weight);
    double i_bytes = ev.reads[size_t(kDram)][at(Tensor::Input)] *
                     wordBytes(Tensor::Input);
    double o_bytes = (ev.reads[size_t(kDram)][at(Tensor::Output)] +
                      ev.updates[size_t(kDram)]) *
                     wordBytes(Tensor::Output);
    ev.dram_bytes = w_bytes + i_bytes + o_bytes;
    ev.dram_bytes_quant = quantizeToBlocks(w_bytes) +
                          quantizeToBlocks(i_bytes) +
                          quantizeToBlocks(o_bytes);

    // Hardware requirements.
    ev.pe_dim_req = static_cast<double>(std::max(
            mapping.factors.spatial_c, mapping.factors.spatial_k));
    ev.accum_words_req =
            tileFootprint(layer, mapping, kAccumulator, Tensor::Output);
    ev.spad_w_tile_words =
            tileFootprint(layer, mapping, kScratchpad, Tensor::Weight);
    ev.spad_i_tile_words =
            tileFootprint(layer, mapping, kScratchpad, Tensor::Input);
    ev.spad_words_req = ev.spad_w_tile_words + ev.spad_i_tile_words;
    ev.fits = referenceFits(layer, mapping, hw);

    // Latency: roofline over compute and every memory level (Eq 12),
    // with block-quantized DRAM traffic.
    double cpe = hw.cpe();
    double spatial = static_cast<double>(mapping.factors.spatial_c) *
                     static_cast<double>(mapping.factors.spatial_k);
    double lat = macs / spatial;
    lat = std::max(lat, ev.accesses[size_t(kRegisters)] / (2.0 * cpe));
    double sram_bw = 2.0 * std::sqrt(cpe);
    lat = std::max(lat, ev.accesses[size_t(kAccumulator)] / sram_bw);
    lat = std::max(lat, ev.accesses[size_t(kScratchpad)] / sram_bw);
    lat = std::max(lat,
            ev.dram_bytes_quant / EnergyModel::kDramBandwidth);
    ev.latency = lat;

    // Energy (Eq 13), with block-quantized DRAM traffic.
    double energy_pj =
            macs * EnergyModel::kEpaMac +
            ev.accesses[size_t(kRegisters)] * EnergyModel::kEpaRegister +
            ev.accesses[size_t(kAccumulator)] *
                    EnergyModel::accumEpa(hw.accumWords(), cpe) +
            ev.accesses[size_t(kScratchpad)] *
                    EnergyModel::spadEpa(hw.spadWords(), cpe) +
            ev.dram_bytes_quant * EnergyModel::kEpaDram;
    ev.energy_uj = energy_pj * 1e-6;
    ev.edp = ev.energy_uj * ev.latency;
    return ev;
}

HardwareConfig
inferMinimalHw(const std::vector<Layer> &layers,
               const std::vector<Mapping> &mappings)
{
    if (layers.size() != mappings.size())
        panic("inferMinimalHw: layer/mapping count mismatch");
    double pe = 1.0, accum = 1.0, spad = 1.0;
    for (size_t i = 0; i < layers.size(); ++i) {
        const Mapping &m = mappings[i];
        pe = std::max(pe, static_cast<double>(std::max(
                m.factors.spatial_c, m.factors.spatial_k)));
        accum = std::max(accum, tileFootprint(layers[i], m,
                kAccumulator, Tensor::Output));
        spad = std::max(spad,
                tileFootprint(layers[i], m, kScratchpad,
                              Tensor::Weight) +
                tileFootprint(layers[i], m, kScratchpad,
                              Tensor::Input));
    }
    return quantizeConfig(pe, accum, spad);
}

RefEval
scoredEval(const Layer &layer, const Mapping &mapping,
           const HardwareConfig &hw, const LatencyScorer &scorer)
{
    RefEval ev = referenceEval(layer, mapping, hw);
    if (scorer) {
        ev.latency = scorer(layer, mapping, hw);
        ev.edp = ev.energy_uj * ev.latency;
    }
    return ev;
}

NetworkEval
referenceNetworkEval(const std::vector<Layer> &layers,
                     const std::vector<Mapping> &mappings,
                     const HardwareConfig &hw, const LatencyScorer &scorer)
{
    if (layers.size() != mappings.size())
        panic("referenceNetworkEval: layer/mapping count mismatch");
    NetworkEval out;
    for (size_t i = 0; i < layers.size(); ++i) {
        RefEval ev = scoredEval(layers[i], mappings[i], hw, scorer);
        double cnt = static_cast<double>(layers[i].count);
        out.energy_uj += cnt * ev.energy_uj;
        out.latency += cnt * ev.latency;
        out.fits = out.fits && ev.fits;
    }
    out.edp = out.energy_uj * out.latency;
    return out;
}

} // namespace dosa
