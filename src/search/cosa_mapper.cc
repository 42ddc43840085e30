/**
 * @file
 * CoSA-substitute greedy constructive mapper: spatial utilization first, then buffer utilization.
 */
#include "search/cosa_mapper.hh"

#include <algorithm>

#include "model/reference.hh"
#include "util/divisors.hh"
#include "util/logging.hh"

namespace dosa {

namespace {

/**
 * Build one candidate mapping given the degrees of freedom the greedy
 * pass has settled on. Level 0 grows the accumulator output tile
 * (Q, P, N), level 1 holds the R/S/C loops that enlarge scratchpad
 * tiles without touching the accumulator, everything else spills to
 * DRAM.
 */
Mapping
buildCandidate(const Layer &layer, const HardwareConfig &hw,
               bool keep_rs_inner, bool use_spatial)
{
    Mapping m;
    int64_t pe = use_spatial ? hw.pe_dim : 1;
    m.factors.spatial_c = largestDivisorAtMost(layer.c, pe);
    m.factors.spatial_k = largestDivisorAtMost(layer.k, pe);
    const int64_t sc = m.factors.spatial_c;
    const int64_t sk = m.factors.spatial_k;

    // Accumulator budget: output tile q0*p0*n0*sk words.
    const int64_t accum_budget = static_cast<int64_t>(hw.accumWords());
    int64_t q0 = largestDivisorAtMost(layer.q,
            std::max<int64_t>(1, accum_budget / sk));
    int64_t p0 = largestDivisorAtMost(layer.p,
            std::max<int64_t>(1, accum_budget / (sk * q0)));
    int64_t n0 = largestDivisorAtMost(layer.n,
            std::max<int64_t>(1, accum_budget / (sk * q0 * p0)));
    m.factors.t(kRegisters, Dim::Q) = q0;
    m.factors.t(kRegisters, Dim::P) = p0;
    m.factors.t(kRegisters, Dim::N) = n0;

    // Level-1 loops feeding the scratchpad tiles. CoSA partitions the
    // scratchpad equally between weights and inputs (Section 6.1).
    int64_t r1 = keep_rs_inner ? layer.r : 1;
    int64_t s1 = keep_rs_inner ? layer.s : 1;
    m.factors.t(kAccumulator, Dim::R) = r1;
    m.factors.t(kAccumulator, Dim::S) = s1;

    const int64_t w_budget = static_cast<int64_t>(hw.spadWords()) / 2;
    const int64_t i_budget = w_budget;
    const int64_t c_residual = layer.c / sc;
    int64_t input_h = layer.stride * (p0 - 1) + r1;
    int64_t input_w = layer.stride * (q0 - 1) + s1;
    int64_t c1 = 1;
    for (int64_t d : divisorsOf(c_residual)) {
        int64_t w_tile = sc * sk * r1 * s1 * d;
        int64_t i_tile = sc * d * n0 * input_h * input_w;
        if (w_tile <= w_budget && i_tile <= i_budget)
            c1 = std::max(c1, d);
    }
    m.factors.t(kAccumulator, Dim::C) = c1;

    // Everything remaining iterates at DRAM.
    for (Dim d : kAllDims) {
        int64_t prod = 1;
        for (int lvl = 0; lvl < kDram; ++lvl) {
            prod *= m.factors.t(lvl, d);
            prod *= m.factors.spatialAt(lvl, d);
        }
        m.factors.t(kDram, d) = layer.size(d) / prod;
    }
    m.order = uniformOrder(LoopOrder::WS);
    return m;
}

} // namespace

Mapping
cosaMap(const Layer &layer, const HardwareConfig &hw)
{
    // Candidates from richest to safest; return the first that fits.
    const bool opts[][2] = {
        {true, true}, {false, true}, {true, false}, {false, false},
    };
    for (const auto &o : opts) {
        Mapping m = buildCandidate(layer, hw, o[0], o[1]);
        if (!m.complete(layer) || !m.positive())
            panic("cosaMap produced an incomplete mapping");
        if (referenceFits(layer, m, hw))
            return m;
    }
    // Unit tiles fit any hardware.
    Mapping m;
    for (Dim d : kAllDims)
        m.factors.t(kDram, d) = layer.size(d);
    return m;
}

} // namespace dosa
