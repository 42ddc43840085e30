/**
 * @file
 * Two-loop Bayesian-optimization co-search baseline over GP posterior LCB.
 */
#include "search/bayes_opt.hh"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.hh"
#include "gp/gaussian_process.hh"
#include "model/reference.hh"
#include "obs/metrics.hh"
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
    // Guided-round candidates and how many of them got an exact LCB;
    // flushed to the metrics registry once, when the search ends.
    uint64_t candidates = 0, lcb_exact = 0;

    // Scores one design for real: one sample, plus a log-EDP training
    // target per layer.
    auto evaluate_design = [&](const HardwareConfig &hw,
                               const std::vector<Mapping> &maps) {
        NetworkEval net;
        for (size_t li = 0; li < layers.size(); ++li) {
            RefEval ev = scoredEval(layers[li], maps[li], hw, cfg.scorer);
            double cnt = static_cast<double>(layers[li].count);
            net.energy_uj += cnt * ev.energy_uj;
            net.latency += cnt * ev.latency;
            train.add(encodeFeatures(layers[li], maps[li], hw),
                      std::log(std::max(ev.edp, 1e-30)));
        }
        net.edp = net.energy_uj * net.latency;
        result.recordDesign(net, hw, maps);
    };

    control.phase("warmup");
    bool guided = false;
    for (int sample = 0; sample < cfg.total_samples; ++sample) {
        // Cooperative cancellation/deadline poll, once per sample.
        if (control.stopRequested())
            break;
        if (!guided && gp_ready && sample >= cfg.warmup_samples) {
            guided = true;
            control.phase("guided");
        }
        HardwareConfig hw;
        std::vector<Mapping> maps(layers.size());

        if (!guided) {
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
            // round's whole pool then goes to one lcbArgmin, which
            // gives an exact LCB only to candidates that can still win.
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
            // Per slice, the strict-< LCB argmin in candidate order; a
            // slice none of whose LCBs is below +inf picks its first.
            std::vector<double> slice_lcb(n_slices);
            std::vector<size_t> slice_pick(n_slices);
            lcb_exact += gp.lcbArgmin(rows, per_slice, cfg.lcb_kappa,
                    slice_lcb, slice_pick, &pool);
            candidates += cands.size();

            // The hardware whose summed per-layer log-EDP LCBs score
            // strictly lowest; candidate 0 when none scores below +inf
            // (a scorer that returns NaN or +inf).
            double best_score =
                    std::numeric_limits<double>::infinity();
            size_t best_hc = 0;
            for (size_t hc = 0; hc < cand_hws.size(); ++hc) {
                double score = 0.0;
                for (size_t li = 0; li < n_layers; ++li)
                    score += slice_lcb[hc * n_layers + li] *
                            static_cast<double>(layers[li].count);
                if (score < best_score) {
                    best_score = score;
                    best_hc = hc;
                }
            }
            hw = cand_hws[best_hc];
            for (size_t li = 0; li < n_layers; ++li)
                maps[li] = cands[slice_pick[best_hc * n_layers + li]];
        }

        evaluate_design(hw, maps);

        // The first fit follows the last warmup sample (the first
        // sample when there is no warmup); refits follow on schedule.
        bool refit_now = gp_ready ? sample % cfg.refit_every == 0
                                  : sample + 1 >= cfg.warmup_samples;
        if (refit_now && !train.x.empty()) {
            gp.fit(train.x, train.y);
            gp_ready = true;
        }
    }
    if (candidates > 0) {
        static struct
        {
            obs::Counter &candidates = obs::counter("bayesopt.candidates");
            obs::Counter &lcb_exact = obs::counter("bayesopt.lcb_exact");
        } counters;
        counters.candidates.add(candidates);
        counters.lcb_exact.add(lcb_exact);
    }
    return result;
}

} // namespace dosa
