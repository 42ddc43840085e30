/**
 * @file
 * DOSA's closed-form differentiable performance model (Section 4).
 *
 * Every quantity — tile capacities (Eq 2-5), per-level traffic
 * (Eq 6-11), roofline latency (Eq 12) and event-based energy (Eq 13) —
 * is written as a template over the scalar type, so the identical code
 * evaluates with plain doubles (fast point evaluation) or with
 * ad::Var (gradient descent over the tiling factors).
 *
 * Modelling interpretation choices:
 *  - Tile capacities include the temporal factors strictly inside the
 *    level plus the relevant *spatial* factors of all levels, matching
 *    the worked example of paper Fig. 3 (the PE-array fanout sits below
 *    every SRAM, so a shared SRAM holds the whole array's tiles).
 *  - Refetch multipliers follow the paper's "factors outer to the
 *    innermost relevant loop with bound > 1" rule, evaluated over the
 *    canonical per-level permutations implied by the WS/IS/OS
 *    orderings. The rule is piecewise smooth: the active set is chosen
 *    from current values, then differentiated within the piece
 *    (identical to what PyTorch autograd does for data-dependent
 *    control flow).
 *  - DRAM originates weights/inputs, so it receives no "writes";
 *    outputs cost an update per accumulator write-back and a read per
 *    partial-sum refill beyond the first (zero-initialized) fill.
 */

#ifndef DOSA_MODEL_ANALYTICAL_HH
#define DOSA_MODEL_ANALYTICAL_HH

#include <algorithm>
#include <array>
#include <cmath>

#include "arch/hardware_config.hh"
#include "autodiff/var.hh"
#include "mapping/mapping.hh"
#include "util/scalar_ops.hh"
#include "workload/layer.hh"

namespace dosa {

/**
 * Canonical loop permutation (outermost first) of an ordering.
 * Dimensions irrelevant to the stationary tensor are placed innermost
 * so that tensor is refetched only when its own dims advance.
 */
const std::array<Dim, kNumDims> &orderPermutation(LoopOrder o);

/** Per-level per-tensor traffic in native words. */
template <class S>
struct Traffic
{
    /** reads[level][tensor]: words leaving the level downward. */
    std::array<std::array<S, kNumTensors>, kNumLevels> reads{};
    /** writes[level][tensor]: words arriving from the backing store. */
    std::array<std::array<S, kNumTensors>, kNumLevels> writes{};
    /** updates[level]: output/partial-sum words arriving from below. */
    std::array<S, kNumLevels> updates{};

    const S &
    read(int level, Tensor t) const
    {
        return reads[size_t(level)][size_t(static_cast<int>(t))];
    }
    const S &
    write(int level, Tensor t) const
    {
        return writes[size_t(level)][size_t(static_cast<int>(t))];
    }
};

/** Mapping-derived, hardware-independent quantities of one layer. */
template <class S>
struct LayerCounts
{
    double macs = 0.0;      ///< total MAC operations (Eq 7), constant
    S pe_dim_req;           ///< required PE-array side, max(sC, sK)
    S accum_words_req;      ///< required accumulator capacity (words)
    S spad_words_req;       ///< required scratchpad capacity (words)
    S spatial_product;      ///< utilized PEs, sC * sK
    std::array<S, kNumLevels> accesses; ///< total word accesses per level
    S dram_bytes;           ///< DRAM traffic in bytes (mixed word sizes)
};

/** Hardware parameters as scalars (differentiable in min-HW mode). */
template <class S>
struct HwScalars
{
    S cpe;          ///< total PEs (Eq 1)
    S accum_words;  ///< accumulator capacity in 4-byte words
    S spad_words;   ///< scratchpad capacity in 1-byte words
};

/** Latency (cycles) and energy (uJ) of one layer instance. */
template <class S>
struct LayerPerf
{
    S latency;
    S energy_uj;
};

/**
 * Tile footprint of tensor t held at `level`, in words (Eq 2-4 with the
 * spatial treatment described in the file header). Inputs account for
 * convolution halo via stride: (stride*(P-1)+R) x (stride*(Q-1)+S).
 */
template <class S>
S
tileWords(const Layer &layer, const Factors<S> &f, int level, Tensor t)
{
    if (t == Tensor::Input) {
        S cn = S(1);
        for (int j = 0; j < level; ++j)
            cn = cn * f.t(j, Dim::C) * f.t(j, Dim::N);
        cn = cn * f.spatial_c; // spatial C is input-relevant
        S inner_p = S(1), inner_q = S(1), inner_r = S(1), inner_s = S(1);
        for (int j = 0; j < level; ++j) {
            inner_p = inner_p * f.t(j, Dim::P);
            inner_q = inner_q * f.t(j, Dim::Q);
            inner_r = inner_r * f.t(j, Dim::R);
            inner_s = inner_s * f.t(j, Dim::S);
        }
        double stride = static_cast<double>(layer.stride);
        S h = S(stride) * (inner_p - S(1)) + inner_r;
        S w = S(stride) * (inner_q - S(1)) + inner_s;
        return cn * h * w;
    }
    S prod = S(1);
    for (int j = 0; j < level; ++j)
        for (Dim d : kAllDims)
            if (dimRelevant(t, d))
                prod = prod * f.t(j, d);
    if (dimRelevant(t, Dim::C))
        prod = prod * f.spatial_c;
    if (dimRelevant(t, Dim::K))
        prod = prod * f.spatial_k;
    return prod;
}

/**
 * Refetch multiplier for tensor t's tile at `from_level` (Eq 6's
 * outer product): the product of all temporal loop bounds outer to
 * (and including) the innermost loop relevant to t with bound > 1,
 * scanning the nest from the loops at `from_level` outward to DRAM.
 *
 * Implemented in a gated form that is exact at integer mappings and
 * continuous everywhere: for each relevant loop r, the candidate
 * refetch count is P(r) = prod of all bounds outer-to-and-including
 * r, blended by a gate clamp(f_r - 1, 0, 1); the multiplier is the
 * max over candidates. At integer points the gate is 0 for unit
 * bounds and 1 otherwise, reproducing the discrete rule; in between,
 * activating a loop ramps its (potentially large) refetch cost in
 * smoothly instead of jumping, which is what lets gradient descent
 * leave a rounded point without falling off a cliff.
 */
template <class S>
S
refetchMultiplier(const Factors<S> &f, const OrderVec &order,
                  int from_level, Tensor t)
{
    using std::max;
    S best(1.0);
    S outer_prod(1.0);
    for (int j = kNumLevels - 1; j >= from_level; --j) {
        const auto &perm = orderPermutation(order[size_t(j)]);
        for (Dim d : perm) { // outermost loop first
            const S &fv = f.t(j, d);
            outer_prod = outer_prod * fv;
            if (dimRelevant(t, d))
                best = max(best, ramp(fv, outer_prod));
        }
    }
    return best;
}

/**
 * Spatial discount F_S,t(level) (Eq 8/10): spatial fanout at `level`
 * over dims irrelevant to t (broadcast for reads, in-network reduction
 * for output updates).
 */
template <class S>
S
spatialDiscount(const Factors<S> &f, int level, Tensor t)
{
    S prod = S(1);
    if (level == kAccumulator && !dimRelevant(t, Dim::C))
        prod = prod * f.spatial_c;
    if (level == kScratchpad && !dimRelevant(t, Dim::K))
        prod = prod * f.spatial_k;
    return prod;
}

/** Full traffic computation (Eq 6-11). */
template <class S>
Traffic<S>
computeTraffic(const Layer &layer, const Factors<S> &f,
               const OrderVec &order)
{
    Traffic<S> tr;
    const double macs = layer.macs();

    // Writes (Eq 6): tile footprint times refetch multiplier, for every
    // on-chip level holding the tensor. DRAM originates W/I.
    for (Tensor t : kAllTensors) {
        for (int i = 0; i < kDram; ++i) {
            if (!levelHoldsTensor(i, t))
                continue;
            tr.writes[size_t(i)][size_t(static_cast<int>(t))] =
                    tileWords(layer, f, i, t) *
                    refetchMultiplier(f, order, i, t);
        }
    }

    // Reads (Eq 10-11): at a tensor's innermost level every MAC pulls a
    // word (discounted by broadcast); outer levels source the writes of
    // the next inner level holding the tensor.
    for (Tensor t : kAllTensors) {
        for (int i = 0; i < kNumLevels; ++i) {
            if (!levelHoldsTensor(i, t))
                continue;
            S &dst = tr.reads[size_t(i)][size_t(static_cast<int>(t))];
            if (i == innermostLevel(t)) {
                dst = S(macs) / spatialDiscount(f, i, t);
            } else if (i > innermostLevel(t)) {
                int inner = nextInnerLevel(i, t);
                dst = tr.writes[size_t(inner)]
                               [size_t(static_cast<int>(t))] /
                      spatialDiscount(f, i, t);
            }
        }
    }
    // DRAM reads of outputs fetch only genuine partial-sum refills;
    // the first fill of each output word is a zero-init, not a read.
    {
        S &o_reads = tr.reads[size_t(kDram)]
                             [size_t(static_cast<int>(Tensor::Output))];
        o_reads = relu(o_reads - S(layer.tensorWords(Tensor::Output)));
    }

    // Updates (Eq 9): MACs reach the innermost output level after
    // in-network spatial reduction; outer output levels absorb the
    // write-backs of the level below.
    tr.updates[size_t(kAccumulator)] =
            S(macs) / spatialDiscount(f, kAccumulator, Tensor::Output);
    tr.updates[size_t(kDram)] =
            tr.write(kAccumulator, Tensor::Output) /
            spatialDiscount(f, kDram, Tensor::Output);
    return tr;
}

/** Derive the per-layer counts consumed by the performance equations. */
template <class S>
LayerCounts<S>
computeCounts(const Layer &layer, const Factors<S> &f,
              const OrderVec &order)
{
    using std::max;
    LayerCounts<S> c;
    c.macs = layer.macs();
    c.pe_dim_req = max(f.spatial_c, f.spatial_k);
    c.accum_words_req = tileWords(layer, f, kAccumulator, Tensor::Output);
    c.spad_words_req =
            tileWords(layer, f, kScratchpad, Tensor::Weight) +
            tileWords(layer, f, kScratchpad, Tensor::Input);
    c.spatial_product = f.spatial_c * f.spatial_k;

    Traffic<S> tr = computeTraffic(layer, f, order);
    for (int i = 0; i < kNumLevels; ++i) {
        S acc = tr.updates[size_t(i)];
        for (Tensor t : kAllTensors) {
            acc = acc + tr.read(i, t);
            if (i < kDram)
                acc = acc + tr.write(i, t);
        }
        c.accesses[size_t(i)] = acc;
    }
    c.dram_bytes =
            (tr.read(kDram, Tensor::Weight) +
             tr.read(kDram, Tensor::Input)) * S(1.0) +
            (tr.read(kDram, Tensor::Output) +
             tr.updates[size_t(kDram)]) * S(4.0);
    return c;
}

/**
 * Roofline latency (Eq 12) and event energy (Eq 13) given shared
 * hardware scalars (which, in min-HW mode, are the differentiable max
 * over all layers' requirements).
 */
template <class S>
LayerPerf<S>
computePerf(const LayerCounts<S> &c, const HwScalars<S> &hw)
{
    using std::max;
    using std::sqrt;

    S compute_lat = S(c.macs) / c.spatial_product;
    S lat = compute_lat;
    lat = max(lat, c.accesses[size_t(kRegisters)] / (S(2.0) * hw.cpe));
    S sram_bw = S(2.0) * sqrt(hw.cpe);
    lat = max(lat, c.accesses[size_t(kAccumulator)] / sram_bw);
    lat = max(lat, c.accesses[size_t(kScratchpad)] / sram_bw);
    lat = max(lat, c.dram_bytes / S(EnergyModel::kDramBandwidth));

    S energy_pj =
            S(c.macs) * S(EnergyModel::kEpaMac) +
            c.accesses[size_t(kRegisters)] *
                    S(EnergyModel::kEpaRegister) +
            c.accesses[size_t(kAccumulator)] *
                    EnergyModel::accumEpa(hw.accum_words, hw.cpe) +
            c.accesses[size_t(kScratchpad)] *
                    EnergyModel::spadEpa(hw.spad_words, hw.cpe) +
            c.dram_bytes * S(EnergyModel::kEpaDram);

    LayerPerf<S> perf;
    perf.latency = lat;
    perf.energy_uj = energy_pj * S(1e-6);
    return perf;
}

/** Hardware scalars for a fixed configuration. */
template <class S>
HwScalars<S>
hwScalars(const HardwareConfig &cfg)
{
    return HwScalars<S>{S(cfg.cpe()), S(cfg.accumWords()),
                        S(cfg.spadWords())};
}

} // namespace dosa

#endif // DOSA_MODEL_ANALYTICAL_HH
