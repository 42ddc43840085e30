/**
 * @file
 * DOSA one-loop co-search driver: start sampling, Adam descent, rounding schedule, ordering re-selection and minimal-hardware inference.
 */
#include "core/dosa_optimizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "arch/area_model.hh"
#include "core/adam.hh"
#include "exec/thread_pool.hh"
#include "mapping/rounding.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "util/logging.hh"
#include "util/thread_annotations.hh"

namespace dosa {

namespace {

/**
 * The bounds `projectFeasible` projects onto, fixed for a search: the
 * log of every layer's dimension sizes and of the spatial cap.
 */
struct FeasibleBounds
{
    /** log(size(d)) at [layer * kNumDims + d]. */
    std::vector<double> log_size;
    double log_cap;

    FeasibleBounds(const std::vector<Layer> &layers, int64_t pe_cap)
        : log_size(layers.size() * kNumDims),
          log_cap(std::log(static_cast<double>(pe_cap)))
    {
        for (size_t li = 0; li < layers.size(); ++li)
            for (Dim d : kAllDims)
                log_size[li * kNumDims + static_cast<size_t>(d)] =
                        std::log(static_cast<double>(
                                layers[li].size(d)));
    }
};

/**
 * Project the log-space variables onto the feasible region: for every
 * (layer, dimension) whose on-chip factor product exceeds the problem
 * size (inferred DRAM residual below 1), shave the excess evenly off
 * the participating coordinates, and clamp factors to [1, pe-cap for
 * spatial / dim size for temporal].
 *
 * Without this, the Eq 18 penalty acts as a hard wall that blocks the
 * coordinated moves gradient descent needs (e.g. growing a spatial
 * factor while shrinking the same dimension's temporal factor): the
 * hinge gradient pushes every factor of the dimension down the moment
 * any one of them grows. Projection turns those walls into exact
 * exchanges.
 */
void
projectFeasible(std::vector<double> &x, const FeasibleBounds &bounds)
{
    const double log_cap = bounds.log_cap;
    const size_t num_layers = bounds.log_size.size() / kNumDims;
    for (size_t li = 0; li < num_layers; ++li) {
        size_t base = li * kVarsPerLayer;
        double *xl = x.data() + base;
        double *sc = xl + kNumDims * (kNumLevels - 1);
        double *sk = sc + 1;
        // Clamp raw coordinates first.
        for (int i = 0; i < kNumDims * (kNumLevels - 1); ++i)
            xl[i] = std::max(0.0, xl[i]);
        *sc = std::clamp(*sc, 0.0, log_cap);
        *sk = std::clamp(*sk, 0.0, log_cap);
        for (Dim d : kAllDims) {
            double cap = bounds.log_size[li * kNumDims +
                    static_cast<size_t>(d)];
            // Coordinates participating in this dimension.
            double *coords[4];
            int n = 0;
            for (int lvl = 0; lvl < kDram; ++lvl)
                coords[n++] = xl + lvl * kNumDims +
                        static_cast<int>(d);
            if (d == Dim::C)
                coords[n++] = sc;
            if (d == Dim::K)
                coords[n++] = sk;
            for (int iter = 0; iter < 4; ++iter) {
                double total = 0.0;
                for (int i = 0; i < n; ++i)
                    total += *coords[i];
                double excess = total - cap;
                if (excess <= 1e-12)
                    break;
                // Shave evenly off the positive coordinates; repeat
                // in case some clamp at zero.
                int positive = 0;
                for (int i = 0; i < n; ++i)
                    if (*coords[i] > 0.0)
                        ++positive;
                if (positive == 0)
                    break;
                double shave = excess / positive;
                for (int i = 0; i < n; ++i)
                    if (*coords[i] > 0.0)
                        *coords[i] = std::max(0.0,
                                *coords[i] - shave);
            }
        }
    }
}

/** Infer the scoring hardware for a set of mappings under a mode. */
HardwareConfig
scoringHw(const std::vector<Layer> &layers,
          const std::vector<Mapping> &mappings, const ObjectiveMode &mode)
{
    HardwareConfig hw = inferMinimalHw(layers, mappings);
    if (mode.fix_pe)
        hw.pe_dim = mode.pe_dim;
    return hw;
}

/** Whether a concrete design violates the optional area budget. */
bool
overAreaBudget(const HardwareConfig &hw, const ObjectiveMode &mode)
{
    return mode.max_area_mm2 > 0.0 &&
           configAreaMm2(hw) > mode.max_area_mm2;
}

} // namespace

std::vector<OrderVec>
selectOrders(const std::vector<Layer> &layers,
             std::vector<Mapping> &mappings, const HardwareConfig &hw,
             const LatencyScorer &scorer)
{
    const size_t n = layers.size();
    // Per-layer (energy, latency) for each of the 3 uniform orderings.
    std::vector<std::array<double, kNumOrders>> energy(n), latency(n);
    for (size_t li = 0; li < n; ++li) {
        Mapping variant = mappings[li];
        for (int o = 0; o < kNumOrders; ++o) {
            variant.order = uniformOrder(static_cast<LoopOrder>(o));
            RefEval ev = scoredEval(layers[li], variant, hw, scorer);
            double cnt = static_cast<double>(layers[li].count);
            energy[li][size_t(o)] = cnt * ev.energy_uj;
            latency[li][size_t(o)] = cnt * ev.latency;
        }
    }

    // Coordinate-descend on the network EDP (Eq 14 couples layers
    // through the sums) from two starts — the incoming orders (so the
    // selection can never regress the current design) and the
    // per-layer EDP argmin — keeping the better result.
    auto descend = [&](std::vector<int> choice) {
        double e_sum = 0.0, l_sum = 0.0;
        for (size_t li = 0; li < n; ++li) {
            e_sum += energy[li][size_t(choice[li])];
            l_sum += latency[li][size_t(choice[li])];
        }
        for (int pass = 0; pass < 2; ++pass) {
            for (size_t li = 0; li < n; ++li) {
                int cur = choice[li];
                double e_rest = e_sum - energy[li][size_t(cur)];
                double l_rest = l_sum - latency[li][size_t(cur)];
                int best = cur;
                double best_edp = e_sum * l_sum;
                for (int o = 0; o < kNumOrders; ++o) {
                    double edp = (e_rest + energy[li][size_t(o)]) *
                                 (l_rest + latency[li][size_t(o)]);
                    if (edp < best_edp) {
                        best_edp = edp;
                        best = o;
                    }
                }
                if (best != cur) {
                    choice[li] = best;
                    e_sum = e_rest + energy[li][size_t(best)];
                    l_sum = l_rest + latency[li][size_t(best)];
                }
            }
        }
        return std::make_pair(choice, e_sum * l_sum);
    };

    std::vector<int> incoming(n, 0), argmin(n, 0);
    for (size_t li = 0; li < n; ++li) {
        incoming[li] =
                static_cast<int>(mappings[li].order[size_t(kDram)]);
        int best = 0;
        for (int o = 1; o < kNumOrders; ++o)
            if (energy[li][size_t(o)] * latency[li][size_t(o)] <
                energy[li][size_t(best)] * latency[li][size_t(best)])
                best = o;
        argmin[li] = best;
    }
    auto [c_inc, edp_inc] = descend(incoming);
    auto [c_arg, edp_arg] = descend(argmin);
    std::vector<int> choice = edp_inc <= edp_arg ? c_inc : c_arg;

    std::vector<OrderVec> orders(n);
    for (size_t li = 0; li < n; ++li) {
        orders[li] = uniformOrder(static_cast<LoopOrder>(choice[li]));
        mappings[li].order = orders[li];
    }
    return orders;
}

RoundedDesign
roundAndScore(const std::vector<Layer> &layers,
              const std::vector<double> &x,
              const std::vector<OrderVec> &orders,
              const ObjectiveMode &mode, const LatencyScorer &scorer)
{
    RoundedDesign design;
    design.mappings.resize(layers.size());
    for (size_t li = 0; li < layers.size(); ++li) {
        Factors<double> f = unpackFactors(x, li);
        design.mappings[li] = roundToValid(f, layers[li], orders[li],
                mode.peCap());
    }
    design.hw = scoringHw(layers, design.mappings, mode);
    design.eval = referenceNetworkEval(layers, design.mappings,
            design.hw, scorer);
    return design;
}

namespace {

/** One candidate start: hardware, CoSA mappings, packed variables. */
struct StartCandidate
{
    HardwareConfig hw;
    std::vector<Mapping> mappings;
    std::vector<OrderVec> orders;
    std::vector<double> x;
    /** Differentiable-model EDP used by the rejection rule. */
    double model_edp = 0.0;
};

/** One start point's record plus its Fig. 9 start attribution. */
struct StartOutcome
{
    UnitRecord unit;
    /** Concrete start-point score, if the start design is valid. */
    double start_edp = std::numeric_limits<double>::infinity();
    HardwareConfig start_hw;
};

/**
 * Generate one start attempt, drawing from the start's own stream.
 * `model_edp` is left unset: every attempt of a start shares the same
 * objective shape, so the caller scores all of them with one
 * ObjectiveEngine::evalBatch (one build, then replays) after
 * generation.
 */
StartCandidate
makeStartCandidate(const std::vector<Layer> &layers,
                   const DosaConfig &cfg, Rng &rng)
{
    StartCandidate c;
    c.orders.assign(layers.size(), uniformOrder(LoopOrder::WS));
    c.mappings.resize(layers.size());
    c.hw = randomHardware(rng);
    if (cfg.mode.fix_pe)
        c.hw.pe_dim = cfg.mode.pe_dim;
    // Under an area budget, sample start hardware inside it (falling
    // back to the smallest design point).
    if (cfg.mode.max_area_mm2 > 0.0) {
        for (int t = 0; t < 64 && overAreaBudget(c.hw, cfg.mode);
             ++t) {
            c.hw = randomHardware(rng);
            if (cfg.mode.fix_pe)
                c.hw.pe_dim = cfg.mode.pe_dim;
        }
        if (overAreaBudget(c.hw, cfg.mode))
            c.hw = HardwareConfig{cfg.mode.fix_pe ? cfg.mode.pe_dim
                                                  : 4, 8, 16};
    }
    for (size_t li = 0; li < layers.size(); ++li) {
        c.mappings[li] = cosaMap(layers[li], c.hw);
        c.mappings[li].order = c.orders[li];
    }
    for (const Mapping &m : c.mappings) {
        std::vector<double> xl = packMapping(m);
        c.x.insert(c.x.end(), xl.begin(), xl.end());
    }
    return c;
}

/**
 * Gradient descent with periodic rounding from one start point, run a
 * chunk of steps at a time. Each rounding projects onto the divisor
 * grid; descent restarts from the best design seen so far in this
 * start (greedy restart keeps the search anchored while the fresh lr
 * schedule explores). Fully deterministic given the candidate — no RNG
 * draws past this point — so the samples do not depend on which
 * thread runs which chunk.
 */
class StartRun
{
  public:
    StartRun(const std::vector<Layer> &layers, const DosaConfig &cfg,
             const FeasibleBounds &bounds, StartCandidate start)
        : layers_(layers), cfg_(cfg), bounds_(bounds),
          mappings_(std::move(start.mappings)),
          orders_(std::move(start.orders)), x_(std::move(start.x)),
          best_x_(x_), best_orders_(orders_), adam_(x_.size(), cfg.lr)
    {
        out_.unit.samples.reserve(
                static_cast<size_t>(cfg.steps_per_start) + 1);
        if (cfg.mode.pareto.active())
            out_.unit.local.configure(cfg.mode.pareto);
    }

    /**
     * Run the next chunk: up to kStepsPerChunk descent steps, after
     * scoring the concrete start point on the first call. The start
     * finishes after its last step, or at the first step that finds
     * a stop requested.
     */
    void
    advance(const SearchControl &control)
    {
        if (out_.unit.samples.empty())
            scoreStart();
        for (int n = 0; n < detail::kStepsPerChunk &&
                        step_ < cfg_.steps_per_start; ++n) {
            // Cooperative cancellation/deadline poll, once per
            // descent step (each step is a full tape replay over the
            // network, so the clock read is noise).
            if (control.stopRequested()) {
                engine_.reset();
                return;
            }
            descend();
        }
        if (step_ == cfg_.steps_per_start)
            engine_.reset();
    }

    int stepsDone() const { return step_; }

    /** Finishing releases the engine, the bulk of a start's state. */
    bool finished() const { return engine_ == nullptr; }

    const StartOutcome &outcome() const { return out_; }

  private:
    /** Score the concrete start point (one sample). */
    void
    scoreStart()
    {
        HardwareConfig hw0 = scoringHw(layers_, mappings_, cfg_.mode);
        NetworkEval ev0 = referenceNetworkEval(layers_, mappings_, hw0,
                cfg_.scorer);
        if (overAreaBudget(hw0, cfg_.mode)) {
            out_.unit.samples.push_back(kInf);
        } else {
            out_.start_edp = ev0.edp;
            out_.start_hw = hw0;
            out_.unit.recordDesign(ev0, hw0, mappings_);
        }
    }

    /** One descent step, rounding when the schedule says so. */
    void
    descend()
    {
        const int step = ++step_;
        const ObjectiveEval &ev = engine_->eval(layers_, x_, orders_,
                cfg_.strategy, cfg_.mode);
        // Geometric decay within the current rounding segment.
        int seg_pos = (step - 1) % cfg_.round_every;
        double frac = static_cast<double>(seg_pos) /
                static_cast<double>(std::max(1,
                        cfg_.round_every - 1));
        adam_.step(x_, ev.grad, std::pow(cfg_.lr_decay, frac));
        if (cfg_.project_feasible)
            projectFeasible(x_, bounds_);

        bool round_now = (step % cfg_.round_every == 0) ||
                         step == cfg_.steps_per_start;
        if (!round_now) {
            // Model evaluation consumed; no new concrete point.
            out_.unit.samples.push_back(kInf);
            return;
        }

        RoundedDesign design = roundAndScore(layers_, x_, orders_,
                cfg_.mode, cfg_.scorer);
        if (cfg_.strategy != OrderStrategy::Fixed) {
            orders_ = selectOrders(layers_, design.mappings,
                    design.hw, cfg_.scorer);
            design.eval = referenceNetworkEval(layers_,
                    design.mappings, design.hw, cfg_.scorer);
        }
        bool valid = !overAreaBudget(design.hw, cfg_.mode);
        if (valid)
            out_.unit.recordDesign(design.eval, design.hw,
                    design.mappings);
        else
            out_.unit.samples.push_back(kInf);

        // Project the variables onto the rounded point; if this
        // rounding regressed, fall back to the best point of the
        // current start. Either way the moments restart.
        x_.clear();
        for (const Mapping &m : design.mappings) {
            std::vector<double> xl = packMapping(m);
            x_.insert(x_.end(), xl.begin(), xl.end());
        }
        if (valid && design.eval.edp < best_edp_) {
            best_edp_ = design.eval.edp;
            best_x_ = x_;
            best_orders_ = orders_;
        } else if (cfg_.restart_from_best) {
            x_ = best_x_;
            orders_ = best_orders_;
        }
        adam_.reset();
    }

    static constexpr double kInf = std::numeric_limits<double>::infinity();

    const std::vector<Layer> &layers_;
    const DosaConfig &cfg_;
    const FeasibleBounds &bounds_;
    StartOutcome out_;
    /** The start's CoSA mappings, read only by scoreStart(). */
    std::vector<Mapping> mappings_;
    std::vector<OrderVec> orders_;
    std::vector<double> x_;
    double best_edp_ = kInf;
    std::vector<double> best_x_;
    std::vector<OrderVec> best_orders_;
    Adam adam_;
    // Arena-reused objective evaluator: within a rounding segment the
    // context (orders, mode, strategy) is fixed, so every step after
    // the first is a fused tape replay with zero graph construction.
    std::unique_ptr<ObjectiveEngine> engine_ =
            std::make_unique<ObjectiveEngine>();
    int step_ = 0;
};

/**
 * Phase 3's start schedule: least-progress-first list scheduling
 * (Graham 1969). A worker claims the idle unfinished start with the
 * fewest steps done, ties to the lower index, and hands it back after
 * one chunk, so every start progresses at the same pace and all of
 * them finish within about a chunk of each other, whatever the
 * number of workers. A worker that finds no idle unfinished start
 * leaves: the starts still unfinished are then all held, so no more
 * remain than workers still running.
 */
class StartSchedule
{
  public:
    explicit StartSchedule(size_t starts) : slots_(starts) {}

    /** The start to advance next; none while every unfinished start
     *  is held by another worker. */
    std::optional<size_t>
    claim()
    {
        util::MutexLock lock(mtx_);
        std::optional<size_t> pick;
        for (size_t sp = 0; sp < slots_.size(); ++sp) {
            const Slot &s = slots_[sp];
            if (!s.held && !s.finished &&
                (!pick || s.steps < slots_[*pick].steps))
                pick = sp;
        }
        if (pick)
            slots_[*pick].held = true;
        return pick;
    }

    /** Hand a claimed start back with its progress. */
    void
    release(size_t sp, int steps, bool finished)
    {
        util::MutexLock lock(mtx_);
        slots_[sp] = Slot{steps, false, finished};
    }

  private:
    struct Slot
    {
        int steps = 0;
        bool held = false;
        bool finished = false;
    };

    util::Mutex mtx_;
    std::vector<Slot> slots_ GUARDED_BY(mtx_);
};

} // namespace

SearchReport
detail::dosaSearchImpl(const std::vector<Layer> &layers,
                       const DosaConfig &cfg, SearchControl &control)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    SearchReport result;
    result.search.control = &control;
    if (cfg.mode.pareto.active())
        result.search.frontier.configure(cfg.mode.pareto);

    ThreadPool pool(cfg.jobs);
    const size_t num_starts = static_cast<size_t>(cfg.start_points);
    const int tries = std::max(1, cfg.max_start_tries);
    result.search.reserveTrace(num_starts *
            (static_cast<size_t>(cfg.steps_per_start) + 1));
    control.phase("starts");

    // ---- Phase 1 (parallel): candidate attempts per start point.
    // Start sp draws from its own stream (cfg.seed, sp), so attempts
    // are identical for any thread count or scheduling order. All
    // `tries` attempts are generated eagerly because the rejection
    // threshold couples start points; generation is a few model
    // evaluations against thousands of descent steps.
    auto attempts = pool.parallelMap(num_starts, [&](size_t sp) {
        Rng rng = Rng::stream(cfg.seed, sp);
        std::vector<StartCandidate> a;
        a.reserve(static_cast<size_t>(tries));
        std::vector<std::vector<double>> xs;
        xs.reserve(static_cast<size_t>(tries));
        for (int t = 0; t < tries; ++t) {
            a.push_back(makeStartCandidate(layers, cfg, rng));
            xs.push_back(a.back().x);
        }
        // All attempts share one objective shape (WS orders, Fixed
        // strategy): one build plus a replay per further attempt
        // scores every attempt's model EDP.
        ObjectiveEngine engine; // per-task arena
        const std::vector<ObjectiveEval> &evs = engine.evalBatch(
                layers, xs, a[0].orders, OrderStrategy::Fixed,
                cfg.mode);
        for (size_t t = 0; t < a.size(); ++t)
            a[t].model_edp = evs[t].edp;
        return a;
    });

    // ---- Phase 2 (serial, cheap): rejection rule (Section 5.3.1) —
    // accept the first attempt predicted within reject_factor of the
    // best start so far, else keep the last attempt.
    std::vector<StartCandidate> starts;
    starts.reserve(num_starts);
    double best_start_model_edp = kInf;
    for (std::vector<StartCandidate> &a : attempts) {
        size_t chosen = a.size() - 1;
        for (size_t t = 0; t < a.size(); ++t) {
            if (a[t].model_edp <=
                cfg.reject_factor * best_start_model_edp) {
                chosen = t;
                break;
            }
        }
        best_start_model_edp = std::min(best_start_model_edp,
                a[chosen].model_edp);
        starts.push_back(std::move(a[chosen]));
    }

    // ---- Phase 3 (parallel): gradient descent per start point, one
    // chunk of steps at a time. Every pool thread runs the same claim
    // loop (inline at jobs 1), so the starts advance together and
    // finish together; the schedule's lock orders each handoff.
    control.phase("descent");
    const FeasibleBounds bounds(layers, cfg.mode.peCap());
    std::vector<StartRun> runs;
    runs.reserve(starts.size());
    for (StartCandidate &s : starts)
        runs.emplace_back(layers, cfg, bounds, std::move(s));
    StartSchedule schedule(runs.size());
    pool.parallelFor(static_cast<size_t>(pool.size()), [&](size_t) {
        while (std::optional<size_t> sp = schedule.claim()) {
            StartRun &run = runs[*sp];
            run.advance(control);
            schedule.release(*sp, run.stepsDone(), run.finished());
        }
    });

    // ---- Phase 4 (serial): merge in start order. Concatenating the
    // per-start sample records reproduces the serial trace (the Fig. 7
    // sample-order convention) byte for byte; the best-design check
    // runs before this start's samples so strict-< tie-breaking
    // matches the serial stream.
    control.phase("merge");
    for (const StartRun &run : runs) {
        const StartOutcome &o = run.outcome();
        // Hard stop only: a deadline hit during descent must not
        // discard the samples the starts already computed.
        if (control.recordingStopped())
            break;
        if (o.start_edp < result.best_start_edp) {
            result.best_start_edp = o.start_edp;
            result.best_start_hw = o.start_hw;
        }
        // merge keeps the serial-stream strict-< tie-breaking and the
        // design/trace consistency contract under hard stops.
        result.search.merge(o.unit);
    }
    return result;
}

} // namespace dosa
