/**
 * @file
 * Per-layer probes of the repository benchmark. Each probe times one
 * public call of a layer on inputs drawn from the workload that just
 * ran (its networks and its recorded trace; the GP sizes are fig7's
 * BB-BO options everywhere), from outside the library: nothing here
 * reaches into `src/` internals.
 *
 * Every probe reports the median over a few batches of the per-call
 * time, so one preempted batch cannot move it.
 */

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "driver.hh"

#include "core/objective.hh"
#include "gp/gaussian_process.hh"
#include "linalg/cholesky.hh"
#include "mapping/rounding.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "service/wire.hh"
#include "stats/stats.hh"
#include "util/divisors.hh"
#include "util/rng.hh"

using namespace dosa;

namespace perfbench {

namespace {

constexpr int kBatches = 5;
// fig7's BB-BO options (max_train_points, map_candidates): the GP
// sizes the probes use on every workload.
constexpr size_t kTrainPoints = 300;
constexpr size_t kMapCandidates = 8;

/** Keeps probed results observable so no call can be elided. */
std::atomic<double> g_sink{0.0};

void
sink(double v)
{
    g_sink.store(g_sink.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
}

/** Median over kBatches of the per-call seconds of `calls` calls. */
template <class F>
double
perCall(int calls, F &&fn)
{
    std::vector<double> per;
    for (int b = 0; b < kBatches; ++b) {
        const double t0 = nowS();
        for (int i = 0; i < calls; ++i)
            fn(static_cast<size_t>(i));
        per.push_back((nowS() - t0) / calls);
    }
    return median(per);
}

/** One concrete design point of a workload layer. */
struct Design
{
    const Layer *layer;
    HardwareConfig hw;
    Mapping mapping;
};

std::vector<Design>
randomDesigns(const std::vector<Layer> &layers, size_t count, Rng &rng)
{
    std::vector<Design> out;
    for (size_t i = 0; i < count; ++i) {
        const Layer &l = layers[i % layers.size()];
        HardwareConfig hw = randomHardware(rng);
        out.push_back({&l, hw, randomValidMapping(l, hw, rng)});
    }
    return out;
}

/** Per-lookup nanoseconds of divisorsOf over `dims` on `threads`
 *  threads started together (the mean over threads). */
double
divisorLookupNs(const std::vector<int64_t> &dims, int threads)
{
    constexpr size_t kLookups = 200000;
    std::vector<double> per;
    for (int b = 0; b < kBatches; ++b) {
        std::atomic<int> ready{0};
        std::vector<double> elapsed(static_cast<size_t>(threads));
        auto body = [&](size_t t) {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            const double t0 = nowS();
            size_t acc = 0;
            for (size_t i = 0; i < kLookups; ++i)
                acc += divisorsOf(dims[(i + t) % dims.size()]).size();
            elapsed[t] = nowS() - t0;
            sink(static_cast<double>(acc));
        };
        std::vector<std::thread> pool;
        for (int t = 1; t < threads; ++t)
            pool.emplace_back(body, static_cast<size_t>(t));
        body(0);
        for (std::thread &th : pool)
            th.join();
        per.push_back(mean(elapsed) / kLookups * 1e9);
    }
    return median(per);
}

} // namespace

json::Value
runProbes(const ProbeInputs &in)
{
    Rng rng(in.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<Layer> layers;
    for (const std::vector<Layer> &net : in.nets)
        layers.insert(layers.end(), net.begin(), net.end());
    json::Value out = json::Value::object();

    // search: one random valid mapping, the random/BB-BO sampling step.
    {
        std::vector<HardwareConfig> hws;
        for (int i = 0; i < 64; ++i)
            hws.push_back(randomHardware(rng));
        out.set("search.random_mapping_us", json::Value::number(
                1e6 * perCall(2000, [&](size_t i) {
                    const Layer &l = layers[i % layers.size()];
                    sink(static_cast<double>(randomValidMapping(l,
                            hws[i % hws.size()], rng).factors.spatial_c));
                })));
    }

    // gp + linalg: BB-BO's surrogate at fig7's training-set size, with
    // BB-BO's kernel parameters.
    {
        const std::vector<Design> train =
                randomDesigns(layers, kTrainPoints, rng);
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (const Design &d : train) {
            x.push_back(encodeFeatures(*d.layer, d.mapping, d.hw));
            y.push_back(std::log(std::max(referenceEval(*d.layer,
                    d.mapping, d.hw).edp, 1e-30)));
        }
        std::vector<std::vector<double>> queries;
        for (const Design &d : randomDesigns(layers,
                 kMapCandidates * layers.size(), rng))
            queries.push_back(encodeFeatures(*d.layer, d.mapping, d.hw));

        GpParams params;
        params.length_scale = 3.0;
        params.signal_var = 4.0;
        params.noise_var = 1e-2;
        GaussianProcess gp(params);
        out.set("gp.fit_ms", json::Value::number(1e3 * perCall(1,
                [&](size_t) { gp.fit(x, y); })));
        out.set("gp.lcb_us", json::Value::number(1e6 * perCall(500,
                [&](size_t i) {
                    sink(gp.lcb(queries[i % queries.size()], 1.0));
                })));

        auto kernel = [&](const std::vector<double> &a,
                          const std::vector<double> &b) {
            double d2 = 0.0;
            for (size_t i = 0; i < a.size(); ++i)
                d2 += (a[i] - b[i]) * (a[i] - b[i]);
            return params.signal_var * std::exp(-0.5 * d2 /
                    (params.length_scale * params.length_scale));
        };
        Matrix k(x.size(), x.size());
        for (size_t i = 0; i < x.size(); ++i)
            for (size_t j = 0; j < x.size(); ++j)
                k(i, j) = kernel(x[i], x[j]);
        k.addDiagonal(params.noise_var);
        const Cholesky chol(k);
        std::vector<std::vector<double>> kstars;
        for (const std::vector<double> &q : queries) {
            std::vector<double> ks;
            for (const std::vector<double> &xi : x)
                ks.push_back(kernel(q, xi));
            kstars.push_back(std::move(ks));
        }
        out.set("linalg.solve_lower_us", json::Value::number(
                1e6 * perCall(500, [&](size_t i) {
                    sink(chol.solveLower(kstars[i % kstars.size()])[0]);
                })));
    }

    // util.divisors: the shared memo, alone and under 4-way contention.
    {
        std::vector<int64_t> dims;
        for (const Layer &l : layers)
            for (Dim d : kAllDims)
                dims.push_back(l.size(d));
        out.set("util.divisors.lookup_ns_1t",
                json::Value::number(divisorLookupNs(dims, 1)));
        out.set("util.divisors.lookup_ns_4t",
                json::Value::number(divisorLookupNs(dims, 4)));
    }

    // core + autodiff: one replayed objective evaluation (and one
    // 8-candidate batched sweep) per network from its CoSA start, the
    // mean over the workload's networks.
    {
        std::vector<double> eval_us, batch_us;
        const HardwareConfig start_hw{16, 32, 128};
        for (const std::vector<Layer> &net : in.nets) {
            std::vector<double> x0;
            std::vector<OrderVec> orders;
            for (const Layer &l : net) {
                const Mapping m = cosaMap(l, start_hw);
                const std::vector<double> xl = packMapping(m);
                x0.insert(x0.end(), xl.begin(), xl.end());
                orders.push_back(m.order);
            }
            std::vector<std::vector<double>> xs(8, x0);
            for (size_t c = 1; c < xs.size(); ++c)
                for (double &v : xs[c])
                    v += rng.uniformReal(-0.1, 0.1);
            const ObjectiveMode mode;
            ObjectiveEngine engine;
            eval_us.push_back(1e6 * perCall(100, [&](size_t i) {
                sink(engine.eval(net, xs[i % xs.size()], orders,
                        OrderStrategy::Iterate, mode).loss);
            }));
            batch_us.push_back(1e6 * perCall(20, [&](size_t) {
                sink(engine.evalBatch(net, xs, orders,
                        OrderStrategy::Iterate, mode)[0].loss);
            }));
        }
        out.set("core.objective.eval_us",
                json::Value::number(mean(eval_us)));
        out.set("core.objective.eval_batch_us",
                json::Value::number(mean(batch_us)));
    }

    // model + mapping: reference evaluation and divisor-chain rounding
    // of random designs of the workload's layers.
    {
        const std::vector<Design> designs = randomDesigns(layers, 64, rng);
        out.set("model.reference_eval_us", json::Value::number(
                1e6 * perCall(2000, [&](size_t i) {
                    const Design &d = designs[i % designs.size()];
                    sink(referenceEval(*d.layer, d.mapping, d.hw).edp);
                })));
        std::vector<Factors<double>> jittered;
        for (const Design &d : designs) {
            // Off-grid factors, as gradient descent leaves them.
            Factors<double> f = d.mapping.continuousFactors();
            for (auto &level : f.temporal)
                for (double &v : level)
                    v *= std::exp(rng.uniformReal(-0.5, 0.5));
            f.spatial_c *= std::exp(rng.uniformReal(-0.5, 0.5));
            f.spatial_k *= std::exp(rng.uniformReal(-0.5, 0.5));
            jittered.push_back(f);
        }
        out.set("mapping.round_us", json::Value::number(
                1e6 * perCall(2000, [&](size_t i) {
                    const Design &d = designs[i % designs.size()];
                    sink(static_cast<double>(roundToValid(
                            jittered[i % jittered.size()], *d.layer,
                            d.mapping.order).factors.spatial_k));
                })));
    }

    // service.wire: one sample frame of the workload's own trace,
    // encoded and decoded (a search streams one per sample).
    {
        std::vector<SampleEvent> events;
        std::vector<std::string> lines;
        for (size_t i = 0; i < in.trace.size() && i < 2000; ++i) {
            events.push_back({i, in.trace[i], in.trace[i],
                    i == 0 || in.trace[i] < in.trace[i - 1]});
            lines.push_back(service::sampleFrame("c0.0", events.back()));
        }
        out.set("service.wire.encode_us", json::Value::number(
                1e6 * perCall(2000, [&](size_t i) {
                    sink(static_cast<double>(service::sampleFrame("c0.0",
                            events[i % events.size()]).size()));
                })));
        out.set("service.wire.decode_us", json::Value::number(
                1e6 * perCall(2000, [&](size_t i) {
                    service::Frame frame;
                    std::string error;
                    sink(service::decodeFrame(lines[i % lines.size()],
                            frame, error) ? frame.sample.edp : 0.0);
                })));
    }
    return out;
}

} // namespace perfbench
