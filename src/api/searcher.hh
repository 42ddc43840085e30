/**
 * @file
 * The abstract Searcher interface and the name registry behind the
 * `src/api` facade. Each search algorithm (DOSA one-loop descent,
 * random co-search, fixed-hardware mapper, BB-BO) registers one
 * `Searcher` under a stable name; `runSearch` dispatches specs
 * against the registry, so a new backend (RPC measurement fleet,
 * multi-process sharding, a new algorithm) is one registry entry
 * instead of a cross-cutting edit of every bench and example.
 */

#ifndef DOSA_API_SEARCHER_HH
#define DOSA_API_SEARCHER_HH

#include <string>
#include <string_view>
#include <vector>

#include "api/search_spec.hh"
#include "search/search_common.hh"

namespace dosa {

/**
 * Outcome of one facade run: the shared `SearchResult` (best design
 * + monotone trace) plus the DOSA-only start-point attribution that
 * Fig. 9 reports (left at +inf / default by the other algorithms).
 *
 * Consistency contract: `search.best_edp` always equals the minimum
 * of the recorded trace, and an installed `best_hw`/`best_mappings`
 * always scores exactly `best_edp`. When a run is cancelled (or hits
 * its budget/deadline) before the winning sample is recorded, the
 * design stays empty rather than reporting a design better than the
 * truncated trace claims.
 */
struct SearchReport
{
    SearchResult search;
    /** "dosa" only: reference EDP of the best start point (Fig. 9). */
    double best_start_edp = std::numeric_limits<double>::infinity();
    /** "dosa" only: hardware of the best start point. */
    HardwareConfig best_start_hw;
};

/**
 * One numeric option a searcher consumes: its key in the spec's
 * `OptionBag` and the closed range `validateSpec` accepts for its
 * value.
 */
struct SearcherOption
{
    std::string_view key;
    double min;
    double max;
};

/**
 * One registered search algorithm. Implementations translate a
 * `SearchSpec` into their native configuration (deriving
 * natural-length options from `spec.budget.max_samples` when absent)
 * and run with the driver's `SearchControl` threaded through
 * `SearchResult::record`.
 */
class Searcher
{
  public:
    virtual ~Searcher() = default;

    /** Stable registry name ("dosa", "random", "mapper", "bayesopt"). */
    virtual const char *name() const = 0;

    /** One-line description for listings and `--algo` errors. */
    virtual const char *description() const = 0;

    /**
     * Options this searcher consumes. `validateSpec` rejects a spec
     * whose bag holds any other key, so typos fail loudly, or a value
     * outside its option's range, so no value can crash the run.
     */
    virtual std::vector<SearcherOption> options() const = 0;

    /**
     * Samples the spec implies (its options after budget derivation):
     * used for trace pre-reservation and budget sanity checks.
     */
    virtual size_t plannedSamples(const SearchSpec &spec) const = 0;

    /**
     * Run the search under the driver-installed cooperative run
     * `control` (budget, deadline, cancellation, callbacks).
     */
    virtual SearchReport run(const SearchSpec &spec,
                             SearchControl &control) const = 0;
};

/**
 * The process-wide searcher registry. The four in-tree algorithms
 * self-register on first use (anchored through
 * `registerBuiltinSearchers` so static-library dead-stripping cannot
 * drop them); external backends add themselves with
 * `registerSearcher` at startup and become reachable from every
 * `--algo` flag and `runSearch` call without further plumbing.
 */
class Search
{
  public:
    /**
     * Register a searcher under `searcher->name()`. The object must
     * outlive the process (registrants are typically function-local
     * statics). The builtin bootstrap runs first, so a registration
     * always lands after the builtins: re-registering a name shadows
     * the previous entry (latest wins), letting tests stub a builtin
     * regardless of when they register.
     */
    static void registerSearcher(const Searcher *searcher);

    /** Searcher registered under `name`, or null when unknown. */
    static const Searcher *find(std::string_view name);

    /** All registered algorithm names, in registration order. */
    static std::vector<std::string> algorithms();

    /** `algorithms()` joined with ", " — for error messages. */
    static std::string algorithmList();
};

namespace detail {

/**
 * Internal registry append without the builtin bootstrap — the hook
 * `registerBuiltinSearchers` registers through (calling the public
 * `registerSearcher` there would re-enter the bootstrap). External
 * backends use `Search::registerSearcher`.
 */
void appendSearcher(const Searcher *searcher);

/**
 * Registers the four in-tree searchers; called lazily by the
 * registry so a static-library link cannot dead-strip them.
 */
void registerBuiltinSearchers();

} // namespace detail

} // namespace dosa

#endif // DOSA_API_SEARCHER_HH
