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
#include <utility>

#include "exec/thread_pool.hh"
#include "model/reference.hh"

namespace dosa {

namespace {

/** A layer's scored mapping, reduced to what the incumbent choice reads. */
struct LayerScore
{
    double edp = std::numeric_limits<double>::infinity();
    double energy_uj = 0.0;
    double latency = 0.0;
};

LayerScore
scoreLayer(const Layer &layer, const Mapping &mapping,
           const HardwareConfig &hw, const LatencyScorer &scorer)
{
    RefEval ev = scoredEval(layer, mapping, hw, scorer);
    return {ev.edp, ev.energy_uj, ev.latency};
}

/**
 * The best mapping per layer by per-layer EDP (strict <, so the
 * earliest of equal mappings stays) and the network evaluation those
 * incumbents compose to. Not monotone in samples: a per-layer EDP win
 * can trade energy against latency.
 */
struct LayerIncumbents
{
    std::vector<Mapping> mappings;
    std::vector<LayerScore> scores;

    explicit LayerIncumbents(size_t layers)
        : mappings(layers), scores(layers)
    {
    }

    /** Keep `mapping` for layer `li` if it scores a strictly lower EDP. */
    template <class M>
    void
    offer(size_t li, const LayerScore &score, M &&mapping)
    {
        if (score.edp < scores[li].edp) {
            scores[li] = score;
            mappings[li] = std::forward<M>(mapping);
        }
    }

    /** Eq 14 over the incumbents. */
    NetworkEval
    network(const std::vector<Layer> &layers) const
    {
        NetworkEval net;
        for (size_t li = 0; li < layers.size(); ++li) {
            double cnt = static_cast<double>(layers[li].count);
            net.energy_uj += cnt * scores[li].energy_uj;
            net.latency += cnt * scores[li].latency;
        }
        net.edp = net.energy_uj * net.latency;
        return net;
    }
};

/**
 * Sample `samples` random mappings per layer on one hardware design;
 * each sample is the design with the incumbent mapping per layer.
 */
UnitRecord
sampleHardware(const std::vector<Layer> &layers, const HardwareConfig &hw,
               int samples, Rng rng, const RandomSearchConfig &cfg,
               const SearchControl &control)
{
    UnitRecord unit;
    unit.samples.reserve(static_cast<size_t>(samples));
    if (cfg.pareto.active())
        unit.local.configure(cfg.pareto);
    LayerIncumbents incumbents(layers.size());
    std::vector<Mapping> maps(layers.size());

    for (int s = 0; s < samples; ++s) {
        // Cooperative cancellation/deadline poll, once per sample.
        if (control.stopRequested())
            break;
        // One sample: a fresh mapping per layer (drawn before any
        // evaluation; the draw order defines the RNG stream).
        for (size_t li = 0; li < layers.size(); ++li)
            maps[li] = randomValidMapping(layers[li], hw, rng);
        for (size_t li = 0; li < layers.size(); ++li)
            incumbents.offer(li,
                    scoreLayer(layers[li], maps[li], hw, cfg.scorer),
                    maps[li]);
        unit.recordDesign(incumbents.network(layers), hw,
                incumbents.mappings);
    }
    return unit;
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
    auto units = pool.parallelMap(
            static_cast<size_t>(cfg.hw_designs), [&](size_t h) {
        Rng rng = Rng::stream(cfg.seed, h);
        HardwareConfig hw = randomHardware(rng);
        return sampleHardware(layers, hw, cfg.mappings_per_hw,
                std::move(rng), cfg, control);
    });

    // Serial merge in design order (trace convention; merge keeps
    // strict-< tie-breaking and design/trace consistency).
    control.phase("merge");
    for (const UnitRecord &unit : units) {
        // Hard stop only: a deadline hit during the fan-out must not
        // discard the samples the designs already computed.
        if (control.recordingStopped())
            break;
        result.merge(unit);
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
    result.reserveTrace(static_cast<size_t>(cfg.samples));
    ThreadPool pool(cfg.jobs);
    control.phase("sampling");

    /** One sample: a mapping per layer plus its score. */
    struct Sample
    {
        std::vector<Mapping> maps;
        std::vector<LayerScore> scores;
    };

    // Fan out in fixed-size chunks so the in-flight working set stays
    // bounded (a --full run is 10k samples; materializing them all
    // would hold ~100 MB of mappings). Sample s always draws from
    // stream (seed, s) regardless of its chunk, so chunking does not
    // affect results.
    constexpr size_t kChunk = 256;
    LayerIncumbents incumbents(layers.size());

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
            out.scores.reserve(layers.size());
            for (size_t li = 0; li < layers.size(); ++li)
                out.scores.push_back(scoreLayer(layers[li],
                        out.maps[li], hw, cfg.scorer));
            return out;
        });

        // Serial incumbent reduction in sample order (hard stop
        // only: computed samples survive an expired deadline).
        for (Sample &sample : drawn) {
            if (control.recordingStopped())
                break;
            for (size_t li = 0; li < layers.size(); ++li)
                incumbents.offer(li, sample.scores[li],
                        std::move(sample.maps[li]));
            result.recordDesign(incumbents.network(layers), hw,
                    incumbents.mappings);
        }
    }
    return result;
}

} // namespace dosa
