/**
 * @file
 * Random-search co-design baseline and the fixed-hardware random mapper.
 *
 * Parallel structure: randomness is split into one independent stream
 * per unit of work (per hardware design for the co-search, per sample
 * for the fixed-hardware mapper) before dispatch, so any jobs value
 * reproduces the same samples; reductions then run serially in work
 * order, keeping traces byte-identical to the jobs=1 path.
 */
#include "search/random_search.hh"

#include <algorithm>

#include "arch/area_model.hh"
#include "exec/thread_pool.hh"
#include "model/reference.hh"
#include "util/logging.hh"

namespace dosa {

namespace {

/** Per-hardware-design outcome of the random co-search. */
struct HwOutcome
{
    HardwareConfig hw;
    /** Network EDP after each sample (incumbent per-layer mappings). */
    std::vector<double> sample_edp;
    std::vector<Mapping> best;
    double best_edp = std::numeric_limits<double>::infinity();
    /**
     * Samples that entered this design's *local* Pareto front
     * (multi-objective runs only), keyed by offset into
     * `sample_edp`; the serial merge re-checks them globally.
     */
    std::vector<ParetoCandidate> candidates;
};

/**
 * Sample `samples` random mappings per layer on one hardware design,
 * tracking the incumbent best mapping per layer by per-layer EDP.
 */
HwOutcome
sampleHardware(const std::vector<Layer> &layers, const HardwareConfig &hw,
               int samples, Rng rng, const LatencyScorer &scorer,
               const SearchControl &control,
               const ParetoObjectives &pareto)
{
    HwOutcome out;
    out.hw = hw;
    out.sample_edp.reserve(static_cast<size_t>(samples));
    // Local frontier filter for multi-objective runs: a sample the
    // design's own history dominates is dominated globally too, so
    // only local front entries travel to the merge.
    ParetoFront local;
    const double area_mm2 = pareto.active() ? configAreaMm2(hw) : 0.0;
    if (pareto.active())
        local.configure(pareto);
    std::vector<Mapping> incumbent(layers.size());
    std::vector<double> best_layer_edp(layers.size(),
            std::numeric_limits<double>::infinity());
    std::vector<double> best_energy(layers.size(), 0.0);
    std::vector<double> best_latency(layers.size(), 0.0);
    std::vector<Mapping> maps(layers.size());

    for (int s = 0; s < samples; ++s) {
        // Cooperative cancellation/deadline poll, once per sample.
        if (control.stopRequested())
            break;
        // One sample: a fresh mapping per layer (drawn before any
        // evaluation; the draw order defines the RNG stream).
        for (size_t li = 0; li < layers.size(); ++li)
            maps[li] = randomValidMapping(layers[li], hw, rng);
        for (size_t li = 0; li < layers.size(); ++li) {
            RefEval ev = referenceEval(layers[li], maps[li], hw);
            double lat = scorer ? scorer(layers[li], maps[li], hw)
                                : ev.latency;
            double layer_edp = ev.energy_uj * lat;
            if (layer_edp < best_layer_edp[li]) {
                best_layer_edp[li] = layer_edp;
                incumbent[li] = maps[li];
                best_energy[li] = ev.energy_uj;
                best_latency[li] = lat;
            }
        }
        // Network EDP with the incumbent per-layer mappings. Not
        // monotone (a per-layer EDP win can trade energy against
        // latency), so the best design is snapshotted at the minimum.
        double e = 0.0, l = 0.0;
        for (size_t li = 0; li < layers.size(); ++li) {
            double cnt = static_cast<double>(layers[li].count);
            e += cnt * best_energy[li];
            l += cnt * best_latency[li];
        }
        double edp = e * l;
        if (edp < out.best_edp) {
            out.best_edp = edp;
            out.best = incumbent;
        }
        if (pareto.active() && l > 0.0) {
            ParetoPoint point;
            point.edp = edp;
            point.area_mm2 = area_mm2;
            point.power_w = e / l * 1000.0;
            point.hw = hw;
            if (local.wouldAccept(point.edp, point.area_mm2,
                        point.power_w)) {
                point.mappings = incumbent;
                out.candidates.push_back(
                        {out.sample_edp.size(), point});
                local.consider(std::move(point));
            }
        }
        out.sample_edp.push_back(edp);
    }
    return out;
}

} // namespace

SearchResult
detail::randomSearchImpl(const std::vector<Layer> &layers,
                         const RandomSearchConfig &cfg,
                         SearchControl &control)
{
    SearchResult result;
    result.control = &control;
    if (cfg.pareto.active())
        result.frontier.configure(cfg.pareto);
    result.reserveTrace(static_cast<size_t>(cfg.hw_designs) *
            static_cast<size_t>(cfg.mappings_per_hw));
    ThreadPool pool(cfg.jobs);

    // Hardware design h draws everything (its own config plus all of
    // its mapping samples) from stream (seed, h).
    control.phase("sampling");
    auto outcomes = pool.parallelMap(
            static_cast<size_t>(cfg.hw_designs), [&](size_t h) {
        Rng rng = Rng::stream(cfg.seed, h);
        HardwareConfig hw = randomHardware(rng);
        return sampleHardware(layers, hw, cfg.mappings_per_hw,
                std::move(rng), cfg.scorer, control, cfg.pareto);
    });

    // Serial merge in design order (trace convention; mergeOutcome
    // keeps strict-< tie-breaking and design/trace consistency).
    control.phase("merge");
    for (const HwOutcome &o : outcomes) {
        // Hard stop only: a deadline hit during the fan-out must not
        // discard the samples the designs already computed.
        if (control.recordingStopped())
            break;
        result.mergeOutcome(o.sample_edp, o.best_edp, o.hw, o.best,
                o.candidates);
    }
    return result;
}

SearchResult
detail::randomMapperSearchImpl(const std::vector<Layer> &layers,
                               const HardwareConfig &hw,
                               const MapperConfig &cfg,
                               SearchControl &control)
{
    SearchResult result;
    result.control = &control;
    if (cfg.pareto.active())
        result.frontier.configure(cfg.pareto);
    const double area_mm2 = cfg.pareto.active() ? configAreaMm2(hw) : 0.0;
    result.reserveTrace(static_cast<size_t>(cfg.samples));
    ThreadPool pool(cfg.jobs);
    control.phase("sampling");

    /** One sample: a mapping per layer plus its evaluation. */
    struct Sample
    {
        std::vector<Mapping> maps;
        std::vector<double> edp, energy, latency;
    };

    // Fan out in fixed-size chunks so the in-flight working set stays
    // bounded (a --full run is 10k samples; materializing them all
    // would hold ~100 MB of mappings). Sample s always draws from
    // stream (seed, s) regardless of its chunk, so chunking does not
    // affect results.
    constexpr size_t kChunk = 256;
    std::vector<Mapping> best(layers.size());
    std::vector<double> best_layer_edp(layers.size(),
            std::numeric_limits<double>::infinity());
    std::vector<double> best_energy(layers.size(), 0.0);
    std::vector<double> best_latency(layers.size(), 0.0);

    for (size_t chunk = 0; chunk < static_cast<size_t>(cfg.samples);
         chunk += kChunk) {
        if (control.stopRequested())
            break;
        size_t n = std::min(kChunk,
                static_cast<size_t>(cfg.samples) - chunk);
        auto drawn = pool.parallelMap(n, [&](size_t i) {
            Rng rng = Rng::stream(cfg.seed, chunk + i);
            Sample out;
            out.maps.reserve(layers.size());
            for (const Layer &layer : layers)
                out.maps.push_back(randomValidMapping(layer, hw, rng));
            for (size_t li = 0; li < layers.size(); ++li) {
                const Mapping &m = out.maps[li];
                RefEval ev = referenceEval(layers[li], m, hw);
                double lat = cfg.scorer ? cfg.scorer(layers[li], m, hw)
                                        : ev.latency;
                out.edp.push_back(ev.energy_uj * lat);
                out.energy.push_back(ev.energy_uj);
                out.latency.push_back(lat);
            }
            return out;
        });

        // Serial incumbent reduction in sample order (hard stop
        // only: computed samples survive an expired deadline).
        for (Sample &sample : drawn) {
            if (control.recordingStopped())
                break;
            for (size_t li = 0; li < layers.size(); ++li) {
                if (sample.edp[li] < best_layer_edp[li]) {
                    best_layer_edp[li] = sample.edp[li];
                    best[li] = std::move(sample.maps[li]);
                    best_energy[li] = sample.energy[li];
                    best_latency[li] = sample.latency[li];
                }
            }
            double e = 0.0, l = 0.0;
            for (size_t li = 0; li < layers.size(); ++li) {
                double cnt = static_cast<double>(layers[li].count);
                e += cnt * best_energy[li];
                l += cnt * best_latency[li];
            }
            double edp = e * l;
            // Merges run one sample at a time, so the global front
            // *is* the local history: pre-filtering against it keeps
            // the mapping-snapshot copy off the dominated path.
            ParetoCandidate candidate;
            std::span<const ParetoCandidate> candidates;
            if (cfg.pareto.active() && l > 0.0 &&
                result.frontier.wouldAccept(edp, area_mm2,
                        e / l * 1000.0)) {
                candidate.point.edp = edp;
                candidate.point.area_mm2 = area_mm2;
                candidate.point.power_w = e / l * 1000.0;
                candidate.point.hw = hw;
                candidate.point.mappings = best;
                candidates = std::span<const ParetoCandidate>(
                        &candidate, 1);
            }
            result.mergeOutcome(std::span<const double>(&edp, 1),
                    edp, hw, best, candidates);
        }
    }
    return result;
}

} // namespace dosa
