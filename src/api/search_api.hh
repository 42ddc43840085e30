/**
 * @file
 * The public entry point of the search subsystem: build a
 * `SearchSpec`, pick an algorithm, call `runSearch`, and
 * optionally stream progress through a `SearchObserver`.
 *
 * Typical use:
 * @code
 *   SearchSpec spec;
 *   spec.algorithm = "dosa";            // any Search::algorithms()
 *   spec.workload_name = "resnet50";    // any Workloads::names()
 *   spec.budget.max_samples = 10000;    // unified sample budget
 *   spec.seed = 7;
 *   SearchReport report = runSearch(spec);
 * @endcode
 *
 * Workloads come either inline (`spec.workload`, a layer list built
 * in code or loaded from a workload file) or by name
 * (`spec.workload_name`, resolved against the `Workloads` registry
 * before dispatch — see workload/workload_registry.hh).
 */

#ifndef DOSA_API_SEARCH_API_HH
#define DOSA_API_SEARCH_API_HH

#include "api/observer.hh"
#include "api/search_spec.hh"
#include "api/searcher.hh"

namespace dosa {

/**
 * Run the search described by `spec` with the algorithm
 * `spec.algorithm`, streaming progress to `observer` (optional).
 *
 * The driver validates the spec (unknown algorithm, option keys or
 * workload name are fatal configuration errors listing the valid
 * choices), resolves a `spec.workload_name` into its registered
 * layers (a by-name run is byte-identical to inlining those layers),
 * installs a `SearchControl` carrying the budget/deadline and the
 * observer, and dispatches to the searcher (which pre-reserves the
 * result trace from its planned sample count).
 * For a fixed spec the result is bit-identical for any `spec.jobs`
 * value and for the presence/absence of an observer.
 */
SearchReport runSearch(const SearchSpec &spec,
                       SearchObserver *observer = nullptr);

/**
 * Non-fatal validation of everything `runSearch` would reject as a
 * fatal configuration error: unknown algorithm (the message lists
 * the searchers), option keys the chosen searcher does not consume,
 * an empty workload or ill-formed layers, an unknown or ambiguous
 * `workload_name` (the message lists the workload registry),
 * negative or NaN budget limits, and option values outside the
 * range the searcher's `options()` declares for them (NaN included).
 * Returns false and sets `error` instead of exiting — the check a
 * long-running caller (the search service) runs on untrusted specs
 * before dispatching, so a bad request cannot take the process down.
 */
[[nodiscard]] bool validateSpec(const SearchSpec &spec, std::string &error);

} // namespace dosa

#endif // DOSA_API_SEARCH_API_HH
