/**
 * @file
 * The abstract Searcher interface and the fixed searcher table behind
 * the `src/api` facade. Each search algorithm (DOSA one-loop descent,
 * random co-search, fixed-hardware mapper, BB-BO) is one `Searcher`
 * adapter under a stable name; `runSearch` dispatches specs against
 * the table. Adding a searcher is one adapter plus one table row in
 * `src/api/searchers_builtin.cc`.
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
 * One search algorithm. Implementations translate a `SearchSpec` into
 * their native configuration (deriving natural-length options from
 * `spec.budget.max_samples` when absent) and run with the driver's
 * `SearchControl` threaded through `SearchResult::record`.
 */
class Searcher
{
  public:
    virtual ~Searcher() = default;

    /** Stable name ("dosa", "random", "mapper", "bayesopt"). */
    virtual const char *name() const = 0;

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
     * `control` (budget, deadline, cancellation, observer streaming).
     */
    virtual SearchReport run(const SearchSpec &spec,
                             SearchControl &control) const = 0;
};

/** Lookup over the fixed table of the four in-tree searchers. */
class Search
{
  public:
    /** Searcher named `name`, or null when unknown. */
    static const Searcher *find(std::string_view name);

    /** Every algorithm name, in table order. */
    static std::vector<std::string> algorithms();

    /** `algorithms()` joined with ", " — for error messages. */
    static std::string algorithmList();
};

} // namespace dosa

#endif // DOSA_API_SEARCHER_HH
