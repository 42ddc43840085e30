/**
 * @file
 * Differentiable DOSA objective: log-space tiling parameters, log-EDP loss and the Eq 18 validity penalty.
 *
 * The graph is recorded through ObjectiveEngine, which reuses its
 * arena Tape across descent steps: evaluations under an unchanged
 * context run as a fused replay instead of a rebuild.
 */
#include "core/objective.hh"

#include <cmath>

#include "arch/area_model.hh"
#include "autodiff/var.hh"
#include "model/analytical.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dosa {

using ad::Tape;
using ad::Var;

const char *
strategyName(OrderStrategy s)
{
    switch (s) {
      case OrderStrategy::Fixed: return "Baseline";
      case OrderStrategy::Iterate: return "Iterate";
      case OrderStrategy::Softmax: return "Softmax";
    }
    return "?";
}

std::vector<double>
packMapping(const Mapping &m)
{
    std::vector<double> x;
    x.reserve(kVarsPerLayer);
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            x.push_back(std::log(
                    static_cast<double>(m.factors.t(lvl, d))));
    x.push_back(std::log(static_cast<double>(m.factors.spatial_c)));
    x.push_back(std::log(static_cast<double>(m.factors.spatial_k)));
    return x;
}

Factors<double>
unpackFactors(const std::vector<double> &x, size_t layer_index)
{
    Factors<double> f;
    size_t base = layer_index * kVarsPerLayer;
    size_t idx = 0;
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            f.t(lvl, d) = std::exp(x[base + idx++]);
    f.spatial_c = std::exp(x[base + idx++]);
    f.spatial_k = std::exp(x[base + idx++]);
    // DRAM entries are inferred downstream; leave them neutral.
    return f;
}

namespace {

/** The three uniform orderings blended by the Softmax strategy. */
const OrderVec kUniformOrders[kNumOrders] = {
    uniformOrder(LoopOrder::WS),
    uniformOrder(LoopOrder::IS),
    uniformOrder(LoopOrder::OS),
};

/** Equality of the mode fields that shape the objective graph. */
bool
modeEquals(const ObjectiveMode &a, const ObjectiveMode &b)
{
    return a.fix_pe == b.fix_pe && a.pe_dim == b.pe_dim &&
           a.penalty_weight == b.penalty_weight &&
           a.max_area_mm2 == b.max_area_mm2 &&
           a.latency_model == b.latency_model &&
           a.layer_weights == b.layer_weights &&
           a.pareto == b.pareto;
}

} // namespace

bool
ObjectiveEngine::contextMatches(const std::vector<Layer> &layers,
                                const std::vector<OrderVec> &orders,
                                OrderStrategy strategy,
                                const ObjectiveMode &mode) const
{
    if (!has_context_ || strategy != strategy_ ||
        layers.size() != layers_.size() ||
        !modeEquals(mode, mode_))
        return false;
    for (size_t li = 0; li < layers.size(); ++li)
        if (!layers[li].sameShape(layers_[li]) ||
            layers[li].count != layers_[li].count)
            return false;
    // The Softmax strategy ignores the orders argument entirely.
    if (strategy != OrderStrategy::Softmax && orders != orders_)
        return false;
    return true;
}

void
ObjectiveEngine::build(const std::vector<Layer> &layers,
                       const std::vector<double> &x,
                       const std::vector<OrderVec> &orders,
                       OrderStrategy strategy, const ObjectiveMode &mode)
{
    const size_t num_layers = layers.size();
    Tape &tape = tape_;
    tape.reset();
    // About what one build records: 408-414 nodes per layer, 1,035-1,041
    // under Softmax. DOSA keeps every start's engine alive through the
    // descent, and reserving ten times the tape left the allocator
    // holding the gaps, which raised peak RSS (bench/PERF.md).
    tape.reserve(num_layers *
            (strategy == OrderStrategy::Softmax ? 1088 : 448));

    // Reconstruct per-layer factors on the tape; infer DRAM residuals.
    std::vector<Factors<Var>> factors(num_layers);
    Var penalty(0.0);
    const double cap = static_cast<double>(mode.peCap());

    for (size_t li = 0; li < num_layers; ++li) {
        size_t base = li * kVarsPerLayer;
        size_t idx = 0;
        Factors<Var> &f = factors[li];
        for (int lvl = 0; lvl < kDram; ++lvl) {
            for (Dim d : kAllDims) {
                Var leaf(tape, x[base + idx]);
                f.t(lvl, d) = exp(leaf);
                ++idx;
            }
        }
        Var leaf_sc(tape, x[base + idx]);
        f.spatial_c = exp(leaf_sc);
        ++idx;
        Var leaf_sk(tape, x[base + idx]);
        f.spatial_k = exp(leaf_sk);
        ++idx;

        for (Dim d : kAllDims) {
            Var inner(1.0);
            for (int lvl = 0; lvl < kDram; ++lvl) {
                inner = inner * f.t(lvl, d);
                inner = inner * f.spatialAt(lvl, d);
            }
            f.t(kDram, d) =
                    Var(static_cast<double>(layers[li].size(d))) / inner;
        }

        // Eq 18 validity penalty over every factor (including the
        // inferred DRAM residuals), plus normalized spatial-cap hinges.
        for (int lvl = 0; lvl < kNumLevels; ++lvl)
            for (Dim d : kAllDims)
                penalty = hingeAcc(penalty, f.t(lvl, d));
        penalty = hingeAcc(hingeAcc(penalty, f.spatial_c), f.spatial_k);
        penalty = penalty + relu(f.spatial_c / Var(cap) - Var(1.0)) +
                  relu(f.spatial_k / Var(cap) - Var(1.0));
    }

    // Which orderings each layer needs.
    auto layer_orders = [&](size_t li) -> std::vector<OrderVec> {
        if (strategy == OrderStrategy::Softmax)
            return {kUniformOrders[0], kUniformOrders[1],
                    kUniformOrders[2]};
        return {orders[li]};
    };

    // Counts per layer per ordering. Capacity fields are
    // ordering-independent, so the first entry serves hardware
    // inference.
    std::vector<std::vector<LayerCounts<Var>>> counts(num_layers);
    for (size_t li = 0; li < num_layers; ++li)
        for (const OrderVec &ov : layer_orders(li))
            counts[li].push_back(
                    computeCounts(layers[li], factors[li], ov));

    // Shared hardware scalars: fixed C_PE (Fig. 12 mode) or the
    // differentiable max over layers (Eq 1 + Section 4.5).
    HwScalars<Var> hw;
    if (mode.fix_pe) {
        double pd = static_cast<double>(mode.pe_dim);
        hw.cpe = Var(pd * pd);
    } else {
        Var pe_req = counts[0][0].pe_dim_req;
        for (size_t li = 1; li < num_layers; ++li)
            pe_req = max(pe_req, counts[li][0].pe_dim_req);
        hw.cpe = pe_req * pe_req;
    }
    hw.accum_words = counts[0][0].accum_words_req;
    hw.spad_words = counts[0][0].spad_words_req;
    for (size_t li = 1; li < num_layers; ++li) {
        hw.accum_words = max(hw.accum_words,
                counts[li][0].accum_words_req);
        hw.spad_words = max(hw.spad_words,
                counts[li][0].spad_words_req);
    }
    hw.accum_words = max(hw.accum_words, Var(1.0));
    hw.spad_words = max(hw.spad_words, Var(1.0));

    // Per-layer energy/latency, blended across orderings for Softmax
    // (Eq 15-17, with the inverse-EDP scores normalized by the best
    // option so the softmax operates on O(1) values; the best-EDP
    // normalizer stays on the tape so the graph shape is independent
    // of which ordering currently wins).
    Var total_energy(0.0), total_latency(0.0);
    for (size_t li = 0; li < num_layers; ++li) {
        double cnt = static_cast<double>(layers[li].count);
        if (!mode.layer_weights.empty())
            cnt *= mode.layer_weights[li];
        std::vector<OrderVec> l_orders = layer_orders(li);
        std::vector<LayerPerf<Var>> perfs;
        for (size_t oi = 0; oi < counts[li].size(); ++oi) {
            LayerPerf<Var> p = computePerf(counts[li][oi], hw);
            if (mode.latency_model) {
                p.latency = mode.latency_model->latency(layers[li],
                        factors[li], l_orders[oi], p.latency, hw);
            }
            perfs.push_back(p);
        }

        Var e_l, l_l;
        if (perfs.size() == 1) {
            e_l = perfs[0].energy_uj;
            l_l = perfs[0].latency;
        } else {
            std::vector<Var> edps;
            edps.reserve(perfs.size());
            for (const auto &p : perfs)
                edps.push_back(p.energy_uj * p.latency);
            Var best_edp = edps[0];
            for (size_t oi = 1; oi < edps.size(); ++oi)
                best_edp = min(best_edp, edps[oi]);
            std::vector<Var> scores;
            scores.reserve(edps.size());
            for (const Var &edp : edps)
                scores.push_back(best_edp / edp);
            std::vector<Var> w = ad::softmax(scores);
            e_l = Var(0.0);
            l_l = Var(0.0);
            for (size_t oi = 0; oi < perfs.size(); ++oi) {
                e_l = e_l + w[oi] * perfs[oi].energy_uj;
                l_l = l_l + w[oi] * perfs[oi].latency;
            }
        }
        total_energy = total_energy + Var(cnt) * e_l;
        total_latency = total_latency + Var(cnt) * l_l;
    }

    if (!mode.pareto.active()) {
        // Single-objective path: the exact node sequence the golden
        // traces pin — no Pareto machinery touches the tape here.
        Var loss = log(total_energy) + log(total_latency) +
                   Var(mode.penalty_weight) * penalty;
        if (mode.max_area_mm2 > 0.0) {
            Var area = AreaModel::areaMm2(hw.cpe, hw.accum_words,
                    hw.spad_words);
            loss = loss + Var(mode.penalty_weight) *
                    relu(area / Var(mode.max_area_mm2) - Var(1.0));
        }
        loss_id_ = loss.id();
        area_id_ = ad::kNoParent;
        power_id_ = ad::kNoParent;
    } else {
        // Multi-objective path: every enabled axis is a head on the
        // same tape (one replay values them all), and the descent
        // follows the weighted sum of log-metrics — with one axis at
        // weight 1 this degenerates to the single-objective loss.
        // Power is the 1 GHz proxy W = uJ * 1e-6 / (cycles * 1e-9).
        Var area = AreaModel::areaMm2(hw.cpe, hw.accum_words,
                hw.spad_words);
        Var power = total_energy / total_latency * Var(1000.0);
        Var loss = Var(mode.penalty_weight) * penalty;
        if (mode.pareto.edp.enabled)
            loss = loss + Var(mode.pareto.edp.weight) *
                    (log(total_energy) + log(total_latency));
        if (mode.pareto.area.enabled)
            loss = loss + Var(mode.pareto.area.weight) * log(area);
        if (mode.pareto.power.enabled)
            loss = loss + Var(mode.pareto.power.weight) * log(power);
        if (mode.max_area_mm2 > 0.0)
            loss = loss + Var(mode.penalty_weight) *
                    relu(area / Var(mode.max_area_mm2) - Var(1.0));
        loss_id_ = loss.id();
        area_id_ = area.id();
        power_id_ = power.id();
    }
    energy_id_ = total_energy.id();
    latency_id_ = total_latency.id();
    penalty_id_ = penalty.id();

    // Capture the context signature guarding future replays.
    layers_ = layers;
    orders_ = strategy == OrderStrategy::Softmax
                      ? std::vector<OrderVec>{}
                      : orders;
    strategy_ = strategy;
    mode_ = mode;
    has_context_ = true;
}

void
ObjectiveEngine::extract(const std::vector<double> &x)
{
    out_.loss = tape_.value(loss_id_);
    out_.energy_uj = tape_.value(energy_id_);
    out_.latency = tape_.value(latency_id_);
    out_.penalty = tape_.value(penalty_id_);
    out_.edp = out_.energy_uj * out_.latency;
    out_.area_mm2 =
            area_id_ == ad::kNoParent ? 0.0 : tape_.value(area_id_);
    out_.power_w =
            power_id_ == ad::kNoParent ? 0.0 : tape_.value(power_id_);
    tape_.gradientInto(loss_id_, adj_);
    out_.grad.resize(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out_.grad[i] = adj_[size_t(tape_.leaf(i))];
}

ObjectiveEngine::~ObjectiveEngine()
{
    // Engines are short-lived (one per start point / task): flushing
    // the lifetime totals here keeps the eval/replay hot paths free of
    // shared-counter traffic while the global registry still sees
    // every engine's work.
    if (builds_ == 0 && replays_ == 0)
        return;
    static struct
    {
        obs::Counter &builds = obs::counter("objective.builds");
        obs::Counter &replays = obs::counter("objective.replays");
    } counters;
    counters.builds.add(builds_);
    counters.replays.add(replays_);
}

const ObjectiveEval &
ObjectiveEngine::eval(const std::vector<Layer> &layers,
                      const std::vector<double> &x,
                      const std::vector<OrderVec> &orders,
                      OrderStrategy strategy, const ObjectiveMode &mode)
{
    if (x.size() != layers.size() * kVarsPerLayer)
        panic("evalObjective: variable vector size mismatch");
    if (strategy != OrderStrategy::Softmax &&
        orders.size() != layers.size())
        panic("evalObjective: orders size mismatch");
    if (!mode.layer_weights.empty() &&
        mode.layer_weights.size() != layers.size())
        panic("evalObjective: layer_weights size mismatch");

    if (contextMatches(layers, orders, strategy, mode)) {
        tape_.replay(x);
        ++replays_;
    } else {
        build(layers, x, orders, strategy, mode);
        ++builds_;
    }
    extract(x);
    return out_;
}

const std::vector<ObjectiveEval> &
ObjectiveEngine::evalBatch(const std::vector<Layer> &layers,
                           std::span<const std::vector<double>> xs,
                           const std::vector<OrderVec> &orders,
                           OrderStrategy strategy,
                           const ObjectiveMode &mode)
{
    if (xs.empty())
        panic("evalBatch: empty candidate batch");
    batch_out_.resize(xs.size());
    for (size_t k = 0; k < xs.size(); ++k)
        batch_out_[k] = eval(layers, xs[k], orders, strategy, mode);
    return batch_out_;
}

ObjectiveEval
evalObjective(const std::vector<Layer> &layers,
              const std::vector<double> &x,
              const std::vector<OrderVec> &orders, OrderStrategy strategy,
              const ObjectiveMode &mode)
{
    ObjectiveEngine engine;
    return engine.eval(layers, x, orders, strategy, mode);
}

} // namespace dosa
