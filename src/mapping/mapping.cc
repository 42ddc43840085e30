/**
 * @file
 * Mapping representation: factor products, validation and pretty-printing.
 */
#include "mapping/mapping.hh"

#include <algorithm>
#include <sstream>

#include "util/divisors.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace dosa {

const char *
orderName(LoopOrder o)
{
    switch (o) {
      case LoopOrder::WS: return "WS";
      case LoopOrder::IS: return "IS";
      case LoopOrder::OS: return "OS";
    }
    return "?";
}

OrderVec
uniformOrder(LoopOrder o)
{
    OrderVec v;
    v.fill(o);
    v[kRegisters] = LoopOrder::WS;
    return v;
}

int64_t
Mapping::dimProduct(Dim d) const
{
    int64_t prod = 1;
    for (int lvl = 0; lvl < kNumLevels; ++lvl) {
        prod *= factors.t(lvl, d);
        prod *= factors.spatialAt(lvl, d);
    }
    return prod;
}

bool
Mapping::complete(const Layer &layer) const
{
    for (Dim d : kAllDims)
        if (dimProduct(d) != layer.size(d))
            return false;
    return true;
}

bool
Mapping::positive() const
{
    for (int lvl = 0; lvl < kNumLevels; ++lvl)
        for (Dim d : kAllDims)
            if (factors.t(lvl, d) < 1)
                return false;
    return factors.spatial_c >= 1 && factors.spatial_k >= 1;
}

Factors<double>
Mapping::continuousFactors() const
{
    Factors<double> f;
    for (int lvl = 0; lvl < kNumLevels; ++lvl)
        for (Dim d : kAllDims)
            f.t(lvl, d) = static_cast<double>(factors.t(lvl, d));
    f.spatial_c = static_cast<double>(factors.spatial_c);
    f.spatial_k = static_cast<double>(factors.spatial_k);
    return f;
}

std::string
Mapping::str() const
{
    std::ostringstream os;
    for (int lvl = kNumLevels - 1; lvl >= 0; --lvl) {
        os << levelName(lvl) << "[" << orderName(order[size_t(lvl)])
           << "]:";
        if (lvl == kScratchpad && factors.spatial_k > 1)
            os << " sK=" << factors.spatial_k;
        if (lvl == kAccumulator && factors.spatial_c > 1)
            os << " sC=" << factors.spatial_c;
        for (Dim d : kAllDims) {
            int64_t f = factors.t(lvl, d);
            if (f > 1)
                os << " " << dimName(d) << "=" << f;
        }
        if (lvl > 0)
            os << " | ";
    }
    return os.str();
}

LayerLattices
layerLattices(const Layer &layer)
{
    LayerLattices out;
    for (Dim d : kAllDims)
        out[size_t(d)] = &divisorLattice(layer.size(d));
    return out;
}

Mapping
randomMapping(const Layer &layer, Rng &rng, int64_t pe_cap)
{
    return randomMapping(layerLattices(layer), rng, pe_cap);
}

Mapping
randomMapping(const LayerLattices &lattices, Rng &rng, int64_t pe_cap)
{
    if (pe_cap < 1)
        panic("randomMapping: pe_cap must be >= 1");
    Mapping m;
    // Where each dimension's temporal split starts: the lattice row of
    // its size divided by its spatial factor (the top row, n itself,
    // when it has none).
    std::array<size_t, kNumDims> residual_row;
    for (Dim d : kAllDims)
        residual_row[size_t(d)] =
                lattices[size_t(d)]->divisors().size() - 1;
    // Spatial factors: a random divisor bounded by the PE cap, drawn as
    // an index into the sorted list's `<= pe_cap` prefix. Divisors pair
    // up, so n / divisors[i] sits at row size - 1 - i.
    auto spatial = [&](Dim d) {
        const std::vector<int64_t> &divs = lattices[size_t(d)]->divisors();
        const int64_t fits =
                std::upper_bound(divs.begin(), divs.end(), pe_cap) -
                divs.begin();
        const size_t i = size_t(rng.uniformInt(0, fits - 1));
        residual_row[size_t(d)] -= i;
        return divs[i];
    };
    m.factors.spatial_c = spatial(Dim::C);
    m.factors.spatial_k = spatial(Dim::K);
    // Temporal factors: split the residual of each dimension across the
    // four levels.
    std::array<int64_t, kNumLevels> split;
    for (Dim d : kAllDims) {
        randomFactorSplit(*lattices[size_t(d)], residual_row[size_t(d)],
                split, rng);
        for (int lvl = 0; lvl < kNumLevels; ++lvl)
            m.factors.t(lvl, d) = split[size_t(lvl)];
    }
    // Random ordering per level above the registers.
    for (int lvl = kAccumulator; lvl < kNumLevels; ++lvl)
        m.order[size_t(lvl)] =
                static_cast<LoopOrder>(rng.uniformInt(0, kNumOrders - 1));
    return m;
}

} // namespace dosa
