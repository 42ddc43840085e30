/**
 * @file
 * Facade driver: searcher registry storage, spec validation and the
 * `runSearch` lifecycle (SearchControl installation, observer
 * bridging).
 */
#include "api/search_api.hh"

#include <algorithm>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_annotations.hh"
#include "workload/workload_registry.hh"

namespace dosa {

namespace {

/**
 * Turns the phase-callback stream into trace spans: each phase
 * announcement closes the span of the previous phase and opens the
 * next. Phase names are the `const char *` literals the searchers
 * pass (SearchControl contract), so storing the pointer is safe.
 */
class PhaseSpanTracker
{
  public:
    void
    transition(const char *next)
    {
        obs::Tracer &tracer = obs::globalTracer();
        if (!tracer.enabled()) {
            current_ = nullptr;
            return;
        }
        uint64_t now = tracer.nowNs();
        if (current_ != nullptr)
            tracer.recordSpan(current_, "search.phase", start_ns_, now);
        current_ = next;
        start_ns_ = now;
    }

    void
    finish()
    {
        obs::Tracer &tracer = obs::globalTracer();
        if (current_ != nullptr && tracer.enabled())
            tracer.recordSpan(current_, "search.phase", start_ns_,
                              tracer.nowNs());
        current_ = nullptr;
    }

  private:
    const char *current_ = nullptr;
    uint64_t start_ns_ = 0;
};

/** `runSearch`'s instruments, looked up once (registry rule). */
struct ApiMetrics
{
    obs::Counter &searches = obs::counter("api.searches");
    obs::Counter &samples = obs::counter("api.samples");
};

ApiMetrics &
apiMetrics()
{
    static ApiMetrics m;
    return m;
}

/**
 * The searcher registry: entries plus the mutex that guards them,
 * bundled so the lock relationship is visible to the thread-safety
 * analysis. Registration order is deterministic; the mutex guards
 * only against concurrent registration/lookup races.
 */
struct Registry
{
    util::Mutex mtx;
    std::vector<const Searcher *> entries GUARDED_BY(mtx);
};

Registry &
registry()
{
    static Registry r;
    return r;
}

void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] { detail::registerBuiltinSearchers(); });
}

/**
 * Option keys the chosen searcher does not consume, or values outside
 * the range its option declares (NaN included), as an error.
 */
bool
checkOptions(const SearchSpec &spec, const Searcher &searcher,
             std::string &error)
{
    const std::vector<SearcherOption> known = searcher.options();
    for (const std::string &key : spec.options.keys()) {
        auto row = std::find_if(known.begin(), known.end(),
                [&](const SearcherOption &o) { return o.key == key; });
        if (row == known.end()) {
            std::string valid;
            for (const SearcherOption &o : known) {
                if (!valid.empty())
                    valid += ", ";
                valid += o.key;
            }
            error = "unknown option \"" + key +
                    "\" for search algorithm \"" + searcher.name() +
                    "\" (valid: " + valid + ")";
            return false;
        }
        const double value = spec.options.get(key, 0.0);
        if (value >= row->min && value <= row->max)
            continue;
        error = "option \"" + key + "\" must be in [" +
                fmt(row->min, 0) + ", " + fmt(row->max, 0) + "]";
        return false;
    }
    return true;
}

} // namespace

void
detail::appendSearcher(const Searcher *searcher)
{
    if (searcher == nullptr || searcher->name() == nullptr ||
        searcher->name()[0] == '\0')
        panic("Search::registerSearcher: null searcher or empty name");
    Registry &r = registry();
    util::MutexLock lock(r.mtx);
    r.entries.push_back(searcher);
}

void
Search::registerSearcher(const Searcher *searcher)
{
    // Bootstrap the builtins first so this registration lands after
    // them: latest-wins shadowing holds no matter when a caller
    // registers relative to the first find()/algorithms() call.
    ensureBuiltins();
    detail::appendSearcher(searcher);
}

const Searcher *
Search::find(std::string_view name)
{
    ensureBuiltins();
    Registry &r = registry();
    util::MutexLock lock(r.mtx);
    // Latest registration wins, so tests/backends can shadow a name.
    for (auto it = r.entries.rbegin(); it != r.entries.rend(); ++it)
        if (name == (*it)->name())
            return *it;
    return nullptr;
}

std::vector<std::string>
Search::algorithms()
{
    ensureBuiltins();
    Registry &r = registry();
    util::MutexLock lock(r.mtx);
    std::vector<std::string> names;
    for (const Searcher *searcher : r.entries) {
        std::string name = searcher->name();
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(std::move(name));
    }
    return names;
}

std::string
Search::algorithmList()
{
    std::string out;
    for (const std::string &name : algorithms()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

bool
validateSpec(const SearchSpec &spec, std::string &error)
{
    const Searcher *searcher = Search::find(spec.algorithm);
    if (searcher == nullptr) {
        error = "unknown search algorithm \"" + spec.algorithm +
                "\" (available: " + Search::algorithmList() + ")";
        return false;
    }
    if (!checkOptions(spec, *searcher, error))
        return false;
    if (!spec.workload_name.empty()) {
        if (!spec.workload.empty()) {
            error = "search spec sets both workload_name and an "
                    "explicit workload (pick one)";
            return false;
        }
        if (Workloads::find(spec.workload_name) == nullptr) {
            error = "unknown workload \"" + spec.workload_name +
                    "\" (available: " + Workloads::nameList() + ")";
            return false;
        }
    } else if (spec.workload.empty()) {
        error = "search spec has an empty workload";
        return false;
    }
    for (const Layer &layer : spec.workload) {
        if (!layer.valid()) {
            error = "search spec workload layer \"" + layer.name +
                    "\" is ill-formed (every dimension must be >= 1)";
            return false;
        }
    }
    if (spec.budget.max_samples < 0 || spec.budget.deadline_s < 0.0) {
        error = "search budget limits must be non-negative";
        return false;
    }
    // A PE dimension below 1 leaves no spatial factor to draw (the
    // mapper's random draw, DOSA's start mappings), and a capacity
    // below 1 KiB fits no tile.
    const std::pair<const char *, int64_t> hw_sizes[] = {
            {"fixed_hw.pe_dim", spec.fixed_hw.pe_dim},
            {"fixed_hw.accum_kib", spec.fixed_hw.accum_kib},
            {"fixed_hw.spad_kib", spec.fixed_hw.spad_kib}};
    for (const auto &[field, value] : hw_sizes) {
        if (value < 1) {
            error = std::string("search spec ") + field +
                    " must be >= 1 (got " + std::to_string(value) + ")";
            return false;
        }
    }
    if (spec.mode.fix_pe && spec.mode.pe_dim < 1) {
        error = "search spec mode.pe_dim must be >= 1 when mode.fix_pe "
                "is set (got " + std::to_string(spec.mode.pe_dim) + ")";
        return false;
    }
    const ParetoObjectives &pareto = spec.mode.pareto;
    if (!pareto.edp.enabled && !pareto.area.enabled &&
        !pareto.power.enabled) {
        error = "search spec pareto mode disables every objective "
                "axis (enable at least one of edp/area/power)";
        return false;
    }
    auto bad_weight = [](const ParetoAxis &axis) {
        return axis.enabled &&
               !(axis.weight > 0.0 &&
                       axis.weight <=
                               std::numeric_limits<double>::max());
    };
    if (bad_weight(pareto.edp) || bad_weight(pareto.area) ||
        bad_weight(pareto.power)) {
        error = "search spec pareto axis weights must be positive "
                "and finite";
        return false;
    }
    return true;
}

SearchReport
runSearch(const SearchSpec &spec, SearchObserver *observer)
{
    std::string error;
    if (!validateSpec(spec, error))
        fatal(error);
    if (!spec.workload_name.empty()) {
        // Resolve the named workload into its registered layers up
        // front so every searcher (and plannedSamples) sees concrete
        // layers; a by-name run is byte-identical to one whose caller
        // inlined the same layers.
        SearchSpec resolved = spec;
        resolved.workload = Workloads::find(spec.workload_name)->layers;
        resolved.workload_name.clear();
        return runSearch(resolved, observer);
    }
    const Searcher *searcher = Search::find(spec.algorithm);

    obs::TraceSpan run_span("runSearch", "search");
    apiMetrics().searches.add(1);

    // Bridge the observer (and the phase-span tracker) onto the
    // cooperative run control the searchers poll; without an observer
    // the control still enforces the budget and deadline.
    PhaseSpanTracker phases;
    SearchControl::SampleFn on_sample;
    if (observer != nullptr) {
        on_sample = [observer](size_t count, double edp,
                               double best_edp, bool improved) {
            SampleEvent event{count - 1, edp, best_edp, improved};
            bool keep_going = observer->onSample(event);
            if (improved)
                observer->onImprovement(event);
            return keep_going;
        };
    }
    SearchControl::PhaseFn on_phase = [observer,
                                       &phases](const char *phase) {
        phases.transition(phase);
        if (observer != nullptr)
            observer->onPhase(phase);
    };
    SearchControl control(
            static_cast<size_t>(spec.budget.max_samples),
            spec.budget.deadline_s, std::move(on_sample),
            std::move(on_phase));
    if (observer != nullptr && spec.mode.pareto.active()) {
        control.setFrontierCallback(
                [observer](const ParetoPoint &point,
                        size_t front_size) {
                    FrontierEvent event{point.sample_index, point.edp,
                            point.area_mm2, point.power_w,
                            front_size};
                    observer->onFrontier(event);
                });
    }

    control.phase("setup");
    SearchReport report = searcher->run(spec, control);
    control.phase("done");
    phases.finish();
    apiMetrics().samples.add(
            static_cast<uint64_t>(report.search.trace.size()));
    // The result leaves the driver's scope; the control dies here.
    report.search.control = nullptr;
    return report;
}

} // namespace dosa
