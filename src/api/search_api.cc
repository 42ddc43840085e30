/**
 * @file
 * Facade driver: spec validation and the `runSearch` lifecycle
 * (workload resolution, SearchControl installation, dispatch).
 */
#include "api/search_api.hh"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/workload_registry.hh"

namespace dosa {

namespace {

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
    // The DOSA objective weights layer l by layer_weights[l] and
    // panics on any other count than the workload's.
    const std::vector<double> &weights = spec.mode.layer_weights;
    const size_t num_layers = spec.workload_name.empty()
            ? spec.workload.size()
            : Workloads::find(spec.workload_name)->layers.size();
    if (!weights.empty() && weights.size() != num_layers) {
        error = "search spec mode.layer_weights has " +
                std::to_string(weights.size()) + " entries for " +
                std::to_string(num_layers) + " workload layers";
        return false;
    }
    for (size_t l = 0; l < weights.size(); ++l) {
        if (!(weights[l] >= 0.0 &&
                    weights[l] <= std::numeric_limits<double>::max())) {
            error = "search spec mode.layer_weights[" + std::to_string(l) +
                    "] must be finite and non-negative";
            return false;
        }
    }
    if (spec.budget.max_samples < 0 || !(spec.budget.deadline_s >= 0.0)) {
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

    // Without an observer the control still enforces the budget and
    // deadline and records the phase spans.
    SearchControl control(static_cast<size_t>(spec.budget.max_samples),
            spec.budget.deadline_s, observer);
    control.phase("setup");
    SearchReport report = searcher->run(spec, control);
    control.phase("done");
    apiMetrics().samples.add(
            static_cast<uint64_t>(report.search.trace.size()));
    // The result leaves the driver's scope; the control dies here.
    report.search.control = nullptr;
    return report;
}

} // namespace dosa
