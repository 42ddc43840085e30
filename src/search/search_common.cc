/**
 * @file
 * Shared DSE infrastructure: run control and sample recording,
 * random hardware/mapping sampling and surrogate feature encoding.
 */
#include "search/search_common.hh"

#include <algorithm>
#include <cmath>

#include "arch/area_model.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace dosa {

namespace {

/**
 * The front point of a scored design: area from its hardware, power
 * as the 1 GHz proxy (uJ / cycles * 1000 = W). False when the
 * latency leaves no power to report.
 */
bool
frontPoint(const NetworkEval &eval, const HardwareConfig &hw,
           ParetoPoint &point)
{
    if (!(eval.latency > 0.0))
        return false;
    point.edp = eval.edp;
    point.area_mm2 = configAreaMm2(hw);
    point.power_w = eval.energy_uj / eval.latency * 1000.0;
    point.hw = hw;
    return true;
}

} // namespace

SearchControl::SearchControl(size_t max_samples, double deadline_s,
                             SearchObserver *observer)
    : max_samples_(max_samples), observer_(observer)
{
    if (deadline_s > 0.0) {
        // The deadline budget is the one sanctioned clock seam in the
        // search layer: it gates *when* a search stops, never *what*
        // it computes, and deadline-limited runs are documented as
        // nondeterministic. The deadline stays a double compared with
        // the elapsed seconds, so one past the clock's range (up to
        // +inf) is never converted and simply never fires.
        deadline_s_ = deadline_s;
        // LINT-ALLOW(wall-clock): deadline seam (see above)
        start_ = std::chrono::steady_clock::now();
    }
}

SearchControl::~SearchControl()
{
    obs::Tracer &tracer = obs::globalTracer();
    if (phase_ != nullptr && tracer.enabled())
        tracer.recordSpan(phase_, "search.phase", phase_start_ns_,
                tracer.nowNs());
}

bool
SearchControl::stopRequested() const
{
    if (stop_.load(std::memory_order_relaxed))
        return true;
    if (deadline_hit_.load(std::memory_order_relaxed))
        return true;
    if (deadline_s_ > 0.0 &&
        std::chrono::duration<double>(
                // Stop timing only, never result data (see above).
                // LINT-ALLOW(wall-clock): deadline poll, same seam
                std::chrono::steady_clock::now() - start_)
                        .count() >= deadline_s_) {
        deadline_hit_.store(true, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
SearchControl::onRecord(double edp, double best_edp, bool improved)
{
    size_t n = samples_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (observer_ != nullptr) {
        SampleEvent event{n - 1, edp, best_edp, improved};
        bool keep_going = observer_->onSample(event);
        if (improved)
            observer_->onImprovement(event);
        if (!keep_going)
            requestStop();
    }
    if (max_samples_ != 0 && n >= max_samples_)
        requestStop();
}

void
SearchControl::frontier(const ParetoPoint &point, size_t front_size)
{
    if (observer_ != nullptr)
        observer_->onFrontier({point.sample_index, point.edp,
                point.area_mm2, point.power_w, front_size});
}

void
SearchControl::phase(const char *name)
{
    // Each announcement closes the previous phase's span and opens
    // this one's.
    obs::Tracer &tracer = obs::globalTracer();
    if (tracer.enabled()) {
        uint64_t now = tracer.nowNs();
        if (phase_ != nullptr)
            tracer.recordSpan(phase_, "search.phase", phase_start_ns_,
                    now);
        phase_ = name;
        phase_start_ns_ = now;
    } else {
        phase_ = nullptr;
    }
    if (observer_ != nullptr)
        observer_->onPhase(name);
}

void
UnitRecord::recordDesign(const NetworkEval &eval,
                         const HardwareConfig &hw,
                         const std::vector<Mapping> &mappings)
{
    if (eval.edp < best_edp) {
        best_edp = eval.edp;
        best_hw = hw;
        best_mappings = mappings;
    }
    ParetoPoint point;
    if (local.axes().active() && frontPoint(eval, hw, point) &&
        local.consider(point)) {
        point.mappings = mappings;
        candidates.push_back({samples.size(), std::move(point)});
    }
    samples.push_back(eval.edp);
}

bool
SearchResult::record(double edp)
{
    // Samples after a hard stop (cancellation / exhausted budget)
    // are dropped so the trace and the observer sample count end at
    // the trigger; an expired deadline only stops compute, so
    // already-computed samples still land here.
    if (control != nullptr && control->recordingStopped())
        return false;
    bool improved = edp < best_edp;
    if (improved)
        best_edp = edp;
    trace.push_back(best_edp);
    if (control != nullptr)
        control->onRecord(edp, best_edp, improved);
    return true;
}

void
SearchResult::offer(ParetoPoint point)
{
    point.sample_index = trace.size() - 1;
    if (frontier.consider(std::move(point)) && control != nullptr)
        control->frontier(frontier.points().back(), frontier.size());
}

void
SearchResult::recordDesign(const NetworkEval &eval,
                           const HardwareConfig &hw,
                           const std::vector<Mapping> &mappings)
{
    const double before = best_edp;
    if (!record(eval.edp))
        return;
    if (best_edp < before) {
        best_hw = hw;
        best_mappings = mappings;
    }
    // Serial searchers merge one sample at a time, so the global
    // front is the local history: checking it first keeps the
    // mapping copy off the dominated path.
    ParetoPoint point;
    if (frontier.axes().active() && frontPoint(eval, hw, point) &&
        frontier.wouldAccept(point.edp, point.area_mm2, point.power_w)) {
        point.mappings = mappings;
        offer(std::move(point));
    }
}

void
SearchResult::merge(const UnitRecord &unit)
{
    const double before = best_edp;
    size_t ci = 0;
    for (size_t si = 0; si < unit.samples.size(); ++si) {
        const bool landed = record(unit.samples[si]);
        // Re-offer this sample's frontier candidate (if any) to the
        // global front. A unit filters against its *local* frontier
        // history, so a candidate here may still be dominated by a
        // point another unit merged earlier — and by transitivity,
        // every sample the unit filtered out is dominated globally
        // too, which is what makes this stream identical to the
        // serial single-threaded one.
        for (; ci < unit.candidates.size() &&
               unit.candidates[ci].sample_offset == si;
             ++ci) {
            if (landed)
                offer(unit.candidates[ci].point);
        }
    }
    if (best_edp == before)
        return; // no recorded improvement; keep the current design
    if (unit.best_edp < before && best_edp == unit.best_edp) {
        best_hw = unit.best_hw;
        best_mappings = unit.best_mappings;
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
