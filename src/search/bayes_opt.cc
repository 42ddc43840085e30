/**
 * @file
 * Two-loop Bayesian-optimization co-search baseline over GP posterior LCB.
 */
#include "search/bayes_opt.hh"

#include <algorithm>
#include <cmath>

#include "arch/area_model.hh"
#include "exec/thread_pool.hh"
#include "gp/gaussian_process.hh"
#include "model/reference.hh"
#include "util/logging.hh"

namespace dosa {

namespace {

/** Rolling GP training set with a size cap (keeps the newest points). */
struct TrainSet
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    size_t cap;

    explicit TrainSet(size_t cap_) : cap(cap_) {}

    void
    add(std::vector<double> features, double target)
    {
        if (x.size() >= cap) {
            // Drop the oldest half to amortize erase cost.
            size_t keep = cap / 2;
            x.erase(x.begin(), x.end() - static_cast<long>(keep));
            y.erase(y.begin(), y.end() - static_cast<long>(keep));
        }
        x.push_back(std::move(features));
        y.push_back(target);
    }
};

} // namespace

SearchResult
detail::bayesOptSearchImpl(const std::vector<Layer> &layers,
                           const BayesOptConfig &cfg,
                           SearchControl &control)
{
    Rng rng(cfg.seed);
    SearchResult result;
    result.control = &control;
    if (cfg.pareto.active())
        result.frontier.configure(cfg.pareto);
    result.reserveTrace(static_cast<size_t>(cfg.total_samples));
    ThreadPool pool(cfg.jobs);
    TrainSet train(static_cast<size_t>(cfg.max_train_points));
    GpParams gp_params;
    gp_params.length_scale = 3.0;
    gp_params.signal_var = 4.0;
    gp_params.noise_var = 1e-2;
    GaussianProcess gp(gp_params);
    bool gp_ready = false;

    auto evaluate_design = [&](const HardwareConfig &hw,
                               const std::vector<Mapping> &maps) {
        double e = 0.0, l = 0.0;
        for (size_t li = 0; li < layers.size(); ++li) {
            RefEval ev = referenceEval(layers[li], maps[li], hw);
            double lat = cfg.scorer ? cfg.scorer(layers[li], maps[li], hw)
                                    : ev.latency;
            double cnt = static_cast<double>(layers[li].count);
            e += cnt * ev.energy_uj;
            l += cnt * lat;
            double layer_edp = ev.energy_uj * lat;
            train.add(encodeFeatures(layers[li], maps[li], hw),
                      std::log(std::max(layer_edp, 1e-30)));
        }
        double edp = e * l;
        // Serial searcher: merges run one sample at a time, so the
        // global front is the local history and pre-filtering against
        // it skips the mapping-snapshot copy for dominated samples.
        ParetoCandidate candidate;
        std::span<const ParetoCandidate> candidates;
        if (cfg.pareto.active() && l > 0.0 &&
            result.frontier.wouldAccept(edp, configAreaMm2(hw),
                    e / l * 1000.0)) {
            candidate.point.edp = edp;
            candidate.point.area_mm2 = configAreaMm2(hw);
            candidate.point.power_w = e / l * 1000.0;
            candidate.point.hw = hw;
            candidate.point.mappings = maps;
            candidates = std::span<const ParetoCandidate>(
                    &candidate, 1);
        }
        result.mergeOutcome(std::span<const double>(&edp, 1), edp, hw,
                maps, candidates);
        return edp;
    };

    control.phase("warmup");
    for (int sample = 0; sample < cfg.total_samples; ++sample) {
        // Cooperative cancellation/deadline poll, once per sample.
        if (control.stopRequested())
            break;
        if (sample == cfg.warmup_samples)
            control.phase("guided");
        HardwareConfig hw;
        std::vector<Mapping> maps(layers.size());

        if (sample < cfg.warmup_samples || !gp_ready) {
            hw = randomHardware(rng);
            for (size_t li = 0; li < layers.size(); ++li)
                maps[li] = randomValidMapping(layers[li], hw, rng);
        } else {
            // Inner loop: per candidate hardware, pick the LCB-best
            // mapping per layer; outer loop: pick the hardware whose
            // predicted network score is best. Hardware proposals stay
            // on the main stream (serial, cheap). Each (hardware x
            // layer) slice draws its map_candidates from its own
            // stream, in parallel, so any jobs value reproduces the
            // same pool; the stream order is the selection order. The
            // round's whole pool is then scored with one lcbBatch.
            const size_t n_layers = layers.size();
            std::vector<HardwareConfig> cand_hws(
                    static_cast<size_t>(cfg.hw_candidates));
            for (HardwareConfig &cand : cand_hws)
                cand = randomHardware(rng);

            const size_t per_slice =
                    static_cast<size_t>(cfg.map_candidates);
            const size_t n_slices = cand_hws.size() * n_layers;
            std::vector<Mapping> cands(n_slices * per_slice);
            std::vector<double> rows(cands.size() * kFeatureSize);
            pool.parallelFor(n_slices, [&](size_t t) {
                size_t hc = t / n_layers;
                size_t li = t % n_layers;
                uint64_t sid = (static_cast<uint64_t>(sample) *
                        cand_hws.size() + hc) * n_layers + li;
                Rng srng = Rng::stream(cfg.seed, sid);
                for (size_t mc = t * per_slice; mc < (t + 1) * per_slice;
                     ++mc) {
                    cands[mc] = randomValidMapping(layers[li],
                            cand_hws[hc], srng, 16);
                    std::vector<double> f = encodeFeatures(layers[li],
                            cands[mc], cand_hws[hc]);
                    std::copy(f.begin(), f.end(),
                            rows.data() + mc * kFeatureSize);
                }
            });
            std::vector<double> lcbs(cands.size());
            gp.lcbBatch(rows, cfg.lcb_kappa, lcbs, &pool);

            // Per slice, the strict-< argmin in candidate order.
            std::vector<double> slice_lcb(n_slices,
                    std::numeric_limits<double>::infinity());
            std::vector<size_t> slice_pick(n_slices, 0);
            for (size_t mc = 0; mc < cands.size(); ++mc) {
                const size_t t = mc / per_slice;
                if (lcbs[mc] < slice_lcb[t]) {
                    slice_lcb[t] = lcbs[mc];
                    slice_pick[t] = mc;
                }
            }

            double best_score =
                    std::numeric_limits<double>::infinity();
            for (size_t hc = 0; hc < cand_hws.size(); ++hc) {
                // Sum of per-layer log-EDP LCBs scores the design.
                double score = 0.0;
                for (size_t li = 0; li < n_layers; ++li)
                    score += slice_lcb[hc * n_layers + li] *
                            static_cast<double>(layers[li].count);
                if (score < best_score) {
                    best_score = score;
                    hw = cand_hws[hc];
                    for (size_t li = 0; li < n_layers; ++li)
                        maps[li] = cands[slice_pick[hc * n_layers + li]];
                }
            }
        }

        evaluate_design(hw, maps);

        bool refit_now = (sample + 1 == cfg.warmup_samples) ||
                (gp_ready && (sample % cfg.refit_every == 0));
        if (refit_now && !train.x.empty()) {
            gp.fit(train.x, train.y);
            gp_ready = true;
        }
    }
    return result;
}

} // namespace dosa
