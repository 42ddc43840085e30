/**
 * @file
 * Shared DSE infrastructure: traces, random hardware/mapping sampling and surrogate feature encoding.
 */
#include "search/search_common.hh"

#include <algorithm>
#include <cmath>

#include "model/reference.hh"
#include "util/logging.hh"

namespace dosa {

void
SearchResult::record(double edp)
{
    // Samples after a hard stop (cancellation / exhausted budget)
    // are dropped so the trace and the observer sample count end at
    // the trigger; an expired deadline only stops compute, so
    // already-computed samples still land here.
    if (control != nullptr && control->recordingStopped())
        return;
    bool improved = edp < best_edp;
    if (improved)
        best_edp = edp;
    trace.push_back(best_edp);
    if (control != nullptr)
        control->onRecord(edp, best_edp, improved);
}

void
SearchResult::mergeOutcome(std::span<const double> samples,
                           double unit_best_edp,
                           const HardwareConfig &hw,
                           const std::vector<Mapping> &mappings,
                           std::span<const ParetoCandidate>
                                   frontier_candidates)
{
    double before = best_edp;
    size_t ci = 0;
    for (size_t si = 0; si < samples.size(); ++si) {
        const size_t len_before = trace.size();
        record(samples[si]);
        const bool landed = trace.size() > len_before;
        // Re-offer this sample's frontier candidate (if any) to the
        // global front. A unit filters against its *local* frontier
        // history, so a candidate here may still be dominated by a
        // point another unit merged earlier — and by transitivity,
        // every sample the unit filtered out is dominated globally
        // too, which is what makes this stream identical to the
        // serial single-threaded one.
        while (ci < frontier_candidates.size() &&
               frontier_candidates[ci].sample_offset == si) {
            if (landed) {
                ParetoPoint point = frontier_candidates[ci].point;
                point.sample_index = trace.size() - 1;
                if (frontier.consider(std::move(point)) &&
                    control != nullptr)
                    control->frontier(frontier.points().back(),
                            frontier.size());
            }
            ++ci;
        }
    }
    if (best_edp == before)
        return; // no recorded improvement; keep the current design
    if (unit_best_edp < before && best_edp == unit_best_edp) {
        best_hw = hw;
        best_mappings = mappings;
    } else {
        // The recorded best improved past the installed design, but
        // the improving sample's design was not the unit's winner
        // (a hard stop dropped the winning sample mid-unit) — clear
        // the stale design instead of pairing it with a best_edp it
        // does not score.
        best_hw = HardwareConfig{};
        best_mappings.clear();
    }
}

void
SearchResult::reserveTrace(size_t planned)
{
    if (control != nullptr && control->maxSamples() != 0)
        planned = std::min(planned, control->maxSamples());
    trace.reserve(planned);
}

HardwareConfig
randomHardware(Rng &rng)
{
    static const int64_t pe_options[] = {4, 8, 16, 32, 64, 128};
    HardwareConfig hw;
    hw.pe_dim = pe_options[rng.uniformInt(0, 5)];
    hw.accum_kib = static_cast<int64_t>(
            std::llround(rng.logUniform(8.0, 512.0)));
    hw.spad_kib = static_cast<int64_t>(
            std::llround(rng.logUniform(16.0, 1024.0)));
    return hw;
}

Mapping
minimalMapping(const Layer &layer)
{
    Mapping m;
    for (Dim d : kAllDims)
        m.factors.t(kDram, d) = layer.size(d);
    return m;
}

Mapping
randomValidMapping(const Layer &layer, const HardwareConfig &hw, Rng &rng,
                   int max_tries)
{
    const LayerLattices lattices = layerLattices(layer);
    for (int i = 0; i < max_tries; ++i) {
        Mapping m = randomMapping(lattices, rng, hw.pe_dim);
        if (referenceFits(layer, m, hw))
            return m;
    }
    return minimalMapping(layer);
}

std::vector<double>
encodeFeatures(const Layer &layer, const Mapping &mapping,
               const HardwareConfig &hw)
{
    std::vector<double> f = encodeFeaturesT<double>(layer,
            mapping.continuousFactors(), mapping.order,
            static_cast<double>(hw.pe_dim),
            static_cast<double>(hw.accum_kib),
            static_cast<double>(hw.spad_kib));
    if (static_cast<int>(f.size()) != kFeatureSize)
        panic("encodeFeatures: feature size drift");
    return f;
}

} // namespace dosa
