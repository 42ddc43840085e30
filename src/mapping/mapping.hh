/**
 * @file
 * Mapping representation: spatial/temporal tiling factors and per-level
 * loop orderings (Section 3.1.2).
 *
 * A mapping assigns, for every memory level i and problem dimension d,
 * a temporal tiling factor f_T,i,d, plus the two Gemmini-WS spatial
 * factors (C across PE rows at the accumulator level, K across PE
 * columns at the scratchpad level). For each dimension the product of
 * all factors must equal the layer's problem size.
 *
 * Loop ordering is expressed per level as one of the three canonical
 * stationarities of Section 5.2 (WS / IS / OS); ordering X places the
 * dimensions irrelevant to tensor X innermost, so tensor X's tile is
 * refetched only when one of its own dimensions advances.
 */

#ifndef DOSA_MAPPING_MAPPING_HH
#define DOSA_MAPPING_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>

#include "arch/hardware_config.hh"
#include "workload/layer.hh"

namespace dosa {

class DivisorLattice;
class Rng;

/** Canonical per-level loop orderings (Section 5.2). */
enum class LoopOrder : int { WS = 0, IS = 1, OS = 2 };

/** Number of ordering choices. */
constexpr int kNumOrders = 3;

/** Name of an ordering ("WS"...). */
const char *orderName(LoopOrder o);

/** The tensor kept stationary by an ordering. */
constexpr Tensor
stationaryTensor(LoopOrder o)
{
    switch (o) {
      case LoopOrder::WS: return Tensor::Weight;
      case LoopOrder::IS: return Tensor::Input;
      case LoopOrder::OS: return Tensor::Output;
    }
    return Tensor::Weight;
}

/**
 * Whether dimension d contributes to tensor t's refetch multiplier at a
 * level ordered by `o`. Under ordering X, tensor X's irrelevant dims
 * sit innermost, so only X-relevant dims force refetches of X; every
 * other tensor has some relevant dim inside the full permutation and is
 * refetched by all loops at the level. Factors of 1 multiply harmlessly,
 * keeping this position-based rule smooth for gradient descent.
 */
constexpr bool
dimMultipliesRefetch(LoopOrder o, Tensor t, Dim d)
{
    if (stationaryTensor(o) == t)
        return dimRelevant(t, d);
    return true;
}

/** Per-level loop-ordering assignment. Level 0 is fixed WS (hardware). */
using OrderVec = std::array<LoopOrder, kNumLevels>;

/** Ordering vector with every level set to `o` (level 0 forced WS). */
OrderVec uniformOrder(LoopOrder o);

/**
 * Continuous (or integer) tiling-factor assignment, templated on the
 * scalar so the same structure carries doubles during gradient descent
 * and autodiff variables inside the objective graph.
 */
template <class S>
struct Factors
{
    /** Temporal factor per level (0..3) per dimension. */
    std::array<std::array<S, kNumDims>, kNumLevels> temporal;
    /** Spatial C factor (PE rows), logically at the accumulator level. */
    S spatial_c;
    /** Spatial K factor (PE columns), logically at the scratchpad level. */
    S spatial_k;

    Factors()
    {
        for (auto &lvl : temporal)
            lvl.fill(S(1));
        spatial_c = S(1);
        spatial_k = S(1);
    }

    const S &t(int level, Dim d) const
    {
        return temporal[size_t(level)][size_t(static_cast<int>(d))];
    }
    S &t(int level, Dim d)
    {
        return temporal[size_t(level)][size_t(static_cast<int>(d))];
    }

    /** Spatial factor of dimension d at `level`, or 1. */
    S
    spatialAt(int level, Dim d) const
    {
        if (level == kAccumulator && d == Dim::C)
            return spatial_c;
        if (level == kScratchpad && d == Dim::K)
            return spatial_k;
        return S(1);
    }

    bool operator==(const Factors &o) const
    {
        return temporal == o.temporal && spatial_c == o.spatial_c &&
               spatial_k == o.spatial_k;
    }
};

/**
 * A concrete integer mapping: factors plus loop orderings. This is the
 * unit that gets evaluated by the reference model, the RTL simulator
 * and the searchers.
 */
struct Mapping
{
    Factors<int64_t> factors;
    OrderVec order = uniformOrder(LoopOrder::WS);

    /** Product of all factors (spatial+temporal) for dimension d. */
    int64_t dimProduct(Dim d) const;

    /** True iff every dimension's factor product equals the layer size. */
    bool complete(const Layer &layer) const;

    /** True iff every factor is >= 1. */
    bool positive() const;

    /** Copy of the factors widened to double. */
    Factors<double> continuousFactors() const;

    /** One-line description (loop nest summary). */
    std::string str() const;

    bool operator==(const Mapping &o) const = default;
};

/**
 * The divisor lattices of a layer's seven dimension sizes, indexed by
 * Dim, borrowed from the calling thread's divisor memo: like the memo's
 * entries they must stay on that thread.
 */
using LayerLattices = std::array<DivisorLattice *, kNumDims>;

/** Look up a layer's lattices: one memo probe per dimension. */
LayerLattices layerLattices(const Layer &layer);

/**
 * Generate an unconstrained random complete mapping for a layer: every
 * dimension's size is randomly factor-split across the levels, spatial
 * factors are random divisors bounded by `pe_cap` (>= 1), and each
 * level gets a random ordering.
 */
Mapping randomMapping(const Layer &layer, Rng &rng,
                      int64_t pe_cap = kMaxPeDim);

/**
 * As above over the layer's already looked-up lattices, so a
 * rejection loop probes the memo once per layer rather than once per
 * draw. Allocates nothing once the lattice rows it walks are built.
 */
Mapping randomMapping(const LayerLattices &lattices, Rng &rng,
                      int64_t pe_cap);

/** Total temporal+spatial factor count used as the GD variable count. */
constexpr int kFactorsPerLayer = kNumDims * (kNumLevels - 1) + 2;

} // namespace dosa

#endif // DOSA_MAPPING_MAPPING_HH
