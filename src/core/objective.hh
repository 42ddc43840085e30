/**
 * @file
 * The differentiable DOSA objective (Sections 4.5, 5.1-5.3).
 *
 * Tiling factors are optimized in log-space (f = exp(x)), a better
 * conditioned but otherwise equivalent parameterization of the paper's
 * raw factors. The loss is log(total energy) + log(total latency)
 * plus the Eq 18 validity penalty — the log transform keeps the hinge
 * penalty on a comparable scale with the EDP term while preserving
 * the EDP minimizers.
 *
 * DRAM temporal factors are never free variables: they are inferred by
 * dividing the problem size by the inner-factor product (Section 5.3.3)
 * and penalized when they fall below 1.
 */

#ifndef DOSA_CORE_OBJECTIVE_HH
#define DOSA_CORE_OBJECTIVE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arch/hardware_config.hh"
#include "autodiff/tape.hh"
#include "mapping/mapping.hh"
#include "model/analytical.hh"
#include "workload/layer.hh"

namespace dosa {

/**
 * Pluggable differentiable latency model (Section 6.5): replaces or
 * augments the analytical latency inside the gradient-descent
 * objective. Implementations receive the analytical prediction plus
 * the full mapping context on the autodiff tape.
 */
class DiffLatencyModel
{
  public:
    virtual ~DiffLatencyModel() = default;

    /** Adjusted latency for one layer/ordering on the tape. */
    virtual ad::Var latency(const Layer &layer,
                            const Factors<ad::Var> &factors,
                            const OrderVec &order,
                            const ad::Var &analytical_latency,
                            const HwScalars<ad::Var> &hw) const = 0;
};

/** Loop-ordering search strategies (Section 5.2 / Fig. 6). */
enum class OrderStrategy
{
    Fixed,   ///< "Baseline": weight-stationary everywhere
    Iterate, ///< re-select the best ordering at each rounding
    Softmax, ///< blend orderings with softmax weights every step
};

/** Name of a strategy ("Baseline", "Iterate", "Softmax"). */
const char *strategyName(OrderStrategy s);

/** One axis of the multi-objective set: enabled + descent weight. */
struct ParetoAxis
{
    bool enabled = false;
    /** Weight of this axis' log-metric term in the scalarized loss
     *  the gradient descent follows (ignored when disabled). */
    double weight = 1.0;

    bool
    operator==(const ParetoAxis &o) const
    {
        return enabled == o.enabled && weight == o.weight;
    }
};

/**
 * The multi-objective (Pareto) objective set: which of {EDP, area,
 * power} the search minimizes and how the differentiable loss weighs
 * them. EDP defaults on; enabling area or power switches the search
 * into multi-objective mode — `ObjectiveEngine` values every enabled
 * axis in the same tape replay, and the searchers maintain a
 * non-dominated `ParetoFront` over the enabled axes in addition to
 * the scalar best-EDP incumbent. With only EDP enabled the mode is
 * inert: the loss, trace and every recorded byte are identical to a
 * default-mode run.
 */
struct ParetoObjectives
{
    ParetoAxis edp{true, 1.0};
    ParetoAxis area;  ///< silicon area in mm^2 (AreaModel)
    ParetoAxis power; ///< average power in W at the 1 GHz clock
    /** True when any axis beyond plain EDP participates. */
    bool
    active() const
    {
        return area.enabled || power.enabled;
    }

    bool
    operator==(const ParetoObjectives &o) const
    {
        return edp == o.edp && area == o.area && power == o.power;
    }
};

/** Objective-evaluation mode. */
struct ObjectiveMode
{
    /**
     * When true the PE array is frozen to `pe_dim` (Fig. 12: buffer
     * sizes and mappings are searched for a fixed 16x16 Gemmini);
     * otherwise C_PE is derived from the spatial factors (Eq 1).
     */
    bool fix_pe = false;
    int64_t pe_dim = 16;

    /** Weight of the Eq 18 validity penalty in the loss. */
    double penalty_weight = 100.0;

    /**
     * Optional silicon-area budget in mm^2 (0 = unconstrained); the
     * Section 6.5.3 "area as a third objective" extension. Inside the
     * loss this adds a hinge on the differentiable area estimate;
     * concrete designs over budget are rejected by the driver.
     */
    double max_area_mm2 = 0.0;

    /**
     * Optional learned/augmented latency model applied inside the
     * objective (nullptr = pure analytical latency). Not owned.
     */
    const DiffLatencyModel *latency_model = nullptr;

    /**
     * Optional per-layer loss weights (Section 4.5's noted extension:
     * "the flexibility of the GD loss function also enables the user
     * to weight layers differently"). When set, layer l's energy and
     * latency contributions are scaled by layer_weights[l] on top of
     * its repeat count. Empty = uniform weighting.
     */
    std::vector<double> layer_weights;

    /**
     * Multi-objective axis set. Default ({EDP}) keeps every
     * single-objective code path bitwise-unchanged; see
     * `ParetoObjectives`.
     */
    ParetoObjectives pareto;

    /** Spatial cap used for penalties and rounding. */
    int64_t peCap() const { return fix_pe ? pe_dim : kMaxPeDim; }
};

/** Per-layer variable layout: 21 temporal logs + log sC + log sK. */
constexpr int kVarsPerLayer = kFactorsPerLayer;

/** Value-and-gradient of one objective evaluation. */
struct ObjectiveEval
{
    double loss = 0.0;
    double energy_uj = 0.0;
    double latency = 0.0;
    double edp = 0.0;
    double penalty = 0.0;
    /** Differentiable area estimate in mm^2; valued only when
     *  `mode.pareto.active()` (0.0 otherwise). */
    double area_mm2 = 0.0;
    /** Average power in W (energy/latency at 1 GHz); valued only
     *  when `mode.pareto.active()` (0.0 otherwise). */
    double power_w = 0.0;
    std::vector<double> grad; ///< d loss / d x, same layout as x
};

/** Pack a concrete mapping into log-space variables (per layer). */
std::vector<double> packMapping(const Mapping &m);

/** Unpack per-layer log variables into continuous factors. */
Factors<double> unpackFactors(const std::vector<double> &x,
                              size_t layer_index);

/**
 * Arena-reusing evaluator of the differentiable objective.
 *
 * The objective graph has an identical shape for a fixed context
 * (layer shapes/counts, orderings, strategy, mode), so across the
 * descent steps of one start point only the leaf values x change.
 * The engine records the graph once on an owned Tape, then serves
 * subsequent evaluations with a fused `Tape::replay` (forward
 * re-valuation + partial recomputation) and a reverse sweep into a
 * reused adjoint buffer — no graph reconstruction, no allocation.
 * Context changes (e.g. re-selected orderings after a rounding) are
 * detected automatically and trigger a rebuild; results are
 * bitwise-identical either way.
 *
 * Thread ownership: an engine (like its Tape) must only be used by
 * one thread at a time. Each searcher start point owns one engine.
 * If `mode.latency_model` is set, the model object must not be
 * mutated (e.g. retrained) between evaluations sharing the engine.
 */
class ObjectiveEngine
{
  public:
    ObjectiveEngine() = default;
    // Non-copyable: the destructor flushes this engine's counters into
    // the global metrics registry exactly once (obs/metrics.hh), and
    // the tape/arena state is not meaningfully copyable anyway.
    ObjectiveEngine(const ObjectiveEngine &) = delete;
    ObjectiveEngine &operator=(const ObjectiveEngine &) = delete;
    ~ObjectiveEngine();

    /**
     * Evaluate loss and gradient at x (layers.size()*kVarsPerLayer).
     *
     * @param orders   Per-layer loop orderings (Fixed / Iterate
     *                 modes). Ignored by the Softmax strategy, which
     *                 blends the three uniform orderings (Eq 15-17).
     * @return a reference to engine-owned storage, valid until the
     *         next eval()/evalBatch() call.
     */
    const ObjectiveEval &eval(const std::vector<Layer> &layers,
                              const std::vector<double> &x,
                              const std::vector<OrderVec> &orders,
                              OrderStrategy strategy,
                              const ObjectiveMode &mode);

    /**
     * Evaluate every candidate in `xs` (same layout as eval's x)
     * under one shared context: one eval() per candidate, so
     * candidate k of the result is bitwise-identical to
     * eval(layers, xs[k], ...). Panics on an empty batch.
     *
     * @return a reference to engine-owned storage (one ObjectiveEval
     *         per candidate), valid until the next eval()/evalBatch().
     */
    const std::vector<ObjectiveEval> &
    evalBatch(const std::vector<Layer> &layers,
              std::span<const std::vector<double>> xs,
              const std::vector<OrderVec> &orders,
              OrderStrategy strategy, const ObjectiveMode &mode);

    /** Graph (re)constructions served so far. */
    uint64_t builds() const { return builds_; }

    /** Replay-path evaluations served so far. */
    uint64_t replays() const { return replays_; }

  private:
    bool contextMatches(const std::vector<Layer> &layers,
                        const std::vector<OrderVec> &orders,
                        OrderStrategy strategy,
                        const ObjectiveMode &mode) const;

    void build(const std::vector<Layer> &layers,
               const std::vector<double> &x,
               const std::vector<OrderVec> &orders,
               OrderStrategy strategy, const ObjectiveMode &mode);

    void extract(const std::vector<double> &x);

    ad::Tape tape_;
    std::vector<double> adj_; ///< reused adjoint buffer
    ObjectiveEval out_;       ///< reused result (grad storage)
    std::vector<ObjectiveEval> batch_out_; ///< reused evalBatch result
    ad::NodeId loss_id_ = ad::kNoParent;
    ad::NodeId energy_id_ = ad::kNoParent;
    ad::NodeId latency_id_ = ad::kNoParent;
    ad::NodeId penalty_id_ = ad::kNoParent;
    // Multi-objective heads (kNoParent unless mode.pareto.active()).
    ad::NodeId area_id_ = ad::kNoParent;
    ad::NodeId power_id_ = ad::kNoParent;

    // Cached context signature guarding the replay fast path.
    bool has_context_ = false;
    std::vector<Layer> layers_;
    std::vector<OrderVec> orders_;
    OrderStrategy strategy_ = OrderStrategy::Fixed;
    ObjectiveMode mode_;
    uint64_t builds_ = 0;
    uint64_t replays_ = 0;
};

/**
 * Evaluate loss and gradient at x (size layers.size()*kVarsPerLayer)
 * with a one-shot engine (fresh graph build). Prefer a long-lived
 * ObjectiveEngine in descent loops.
 *
 * @param orders   Per-layer loop orderings (Fixed / Iterate modes).
 *                 Ignored by the Softmax strategy, which blends the
 *                 three uniform orderings per layer (Eq 15-17).
 */
ObjectiveEval evalObjective(const std::vector<Layer> &layers,
                            const std::vector<double> &x,
                            const std::vector<OrderVec> &orders,
                            OrderStrategy strategy,
                            const ObjectiveMode &mode);

} // namespace dosa

#endif // DOSA_CORE_OBJECTIVE_HH
