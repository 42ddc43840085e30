/**
 * @file
 * The four in-tree searcher adapters ("dosa", "random", "mapper",
 * "bayesopt"), the table that lists them and the `Search` lookups
 * over it.
 *
 * Each adapter owns one option table: a row per option key, holding
 * the closed range `validateSpec` accepts and the native config field
 * the value lands in. `Searcher::options()`, the spec -> config read
 * and the range check all derive from that table, so each key is
 * spelled once. The adapter then derives its natural-length option
 * from `budget.max_samples` when the spec leaves it unset and calls
 * the canonical `detail::` implementation with the driver's
 * `SearchControl` installed.
 */
#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <variant>

#include "api/search_api.hh"
#include "core/dosa_optimizer.hh"
#include "search/bayes_opt.hh"
#include "search/random_search.hh"

namespace dosa {

namespace {

/**
 * Upper bound of every count and the magnitude bound of every real:
 * the adapters narrow counts to `int`. Tighter service-side limits
 * belong to an admission policy, not to the searchers.
 */
constexpr double kIntMax = std::numeric_limits<int>::max();

/**
 * One option-table row: the key and its accepted range, plus the
 * `Config` field the value is written to. Integer, flag and enum
 * fields take the value truncated toward zero.
 */
template <class Config>
struct OptionRow
{
    SearcherOption option;
    std::variant<int Config::*, double Config::*, bool Config::*,
            OrderStrategy Config::*>
            field;
};

/** A searcher whose options are one table over its native config. */
template <class Config>
class TableSearcher : public Searcher
{
  public:
    std::vector<SearcherOption>
    options() const override
    {
        std::vector<SearcherOption> out;
        for (const OptionRow<Config> &row : table_)
            out.push_back(row.option);
        return out;
    }

  protected:
    explicit TableSearcher(std::span<const OptionRow<Config>> table)
        : table_(table)
    {
    }

    /** The config defaults with every option the bag sets applied. */
    Config
    readOptions(const OptionBag &bag) const
    {
        Config cfg;
        for (const OptionRow<Config> &row : table_) {
            if (!bag.has(row.option.key))
                continue;
            const double value = bag.get(row.option.key, 0.0);
            std::visit([&](auto field) {
                using T = std::remove_reference_t<decltype(cfg.*field)>;
                if constexpr (std::is_same_v<T, double>)
                    cfg.*field = value;
                else
                    cfg.*field = static_cast<T>(static_cast<int>(value));
            }, row.field);
        }
        return cfg;
    }

    /** Whether the bag sets the option stored in `field`. */
    template <class T>
    bool
    sets(const OptionBag &bag, T Config::*field) const
    {
        for (const OptionRow<Config> &row : table_) {
            const auto *f = std::get_if<T Config::*>(&row.field);
            if (f != nullptr && *f == field)
                return bag.has(row.option.key);
        }
        return false;
    }

  private:
    std::span<const OptionRow<Config>> table_;
};

// Counts that size a loop, an allocation or a modulus start at 1;
// flags are 0/1 and enums span their enumerators.
constexpr OptionRow<DosaConfig> kDosaOptions[] = {
    {{"start_points", 1, kIntMax}, &DosaConfig::start_points},
    {{"steps_per_start", 0, kIntMax}, &DosaConfig::steps_per_start},
    {{"round_every", 1, kIntMax}, &DosaConfig::round_every},
    {{"lr", -kIntMax, kIntMax}, &DosaConfig::lr},
    {{"lr_decay", -kIntMax, kIntMax}, &DosaConfig::lr_decay},
    {{"strategy", 0, 2}, &DosaConfig::strategy},
    {{"reject_factor", -kIntMax, kIntMax}, &DosaConfig::reject_factor},
    {{"max_start_tries", 1, kIntMax}, &DosaConfig::max_start_tries},
    {{"project_feasible", 0, 1}, &DosaConfig::project_feasible},
    {{"restart_from_best", 0, 1}, &DosaConfig::restart_from_best},
};

/** Adapter for the DOSA one-loop gradient-descent co-search. */
class DosaSearcher : public TableSearcher<DosaConfig>
{
  public:
    DosaSearcher() : TableSearcher(kDosaOptions) {}

    const char *name() const override { return "dosa"; }

    /** Spec -> native config (budget-derived steps when absent). */
    DosaConfig
    configFromSpec(const SearchSpec &spec) const
    {
        DosaConfig cfg = readOptions(spec.options);
        cfg.mode = spec.mode;
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        if (spec.budget.max_samples > 0 &&
            !sets(spec.options, &DosaConfig::steps_per_start))
            // One sample per step plus one per start point: spend
            // the unified budget across the starts.
            cfg.steps_per_start = std::max(1,
                    spec.budget.max_samples /
                            std::max(1, cfg.start_points) - 1);
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        DosaConfig cfg = configFromSpec(spec);
        return static_cast<size_t>(cfg.start_points) *
               (static_cast<size_t>(cfg.steps_per_start) + 1);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl &control) const override
    {
        return detail::dosaSearchImpl(spec.workload,
                configFromSpec(spec), control);
    }
};

constexpr OptionRow<RandomSearchConfig> kRandomOptions[] = {
    {{"hw_designs", 1, kIntMax}, &RandomSearchConfig::hw_designs},
    {{"mappings_per_hw", 1, kIntMax},
            &RandomSearchConfig::mappings_per_hw},
};

/** Adapter for the random hardware+mapping co-search baseline. */
class RandomSearcher : public TableSearcher<RandomSearchConfig>
{
  public:
    RandomSearcher() : TableSearcher(kRandomOptions) {}

    const char *name() const override { return "random"; }

    RandomSearchConfig
    configFromSpec(const SearchSpec &spec) const
    {
        RandomSearchConfig cfg = readOptions(spec.options);
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        cfg.pareto = spec.mode.pareto;
        if (spec.budget.max_samples > 0 &&
            !sets(spec.options, &RandomSearchConfig::mappings_per_hw))
            cfg.mappings_per_hw = std::max(1,
                    spec.budget.max_samples /
                            std::max(1, cfg.hw_designs));
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        RandomSearchConfig cfg = configFromSpec(spec);
        return static_cast<size_t>(cfg.hw_designs) *
               static_cast<size_t>(cfg.mappings_per_hw);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl &control) const override
    {
        SearchReport report;
        report.search = detail::randomSearchImpl(spec.workload,
                configFromSpec(spec), control);
        return report;
    }
};

constexpr OptionRow<MapperConfig> kMapperOptions[] = {
    {{"samples", 1, kIntMax}, &MapperConfig::samples},
};

/** Adapter for the fixed-hardware random mapper (Figs. 8 and 9). */
class MapperSearcher : public TableSearcher<MapperConfig>
{
  public:
    MapperSearcher() : TableSearcher(kMapperOptions) {}

    const char *name() const override { return "mapper"; }

    MapperConfig
    configFromSpec(const SearchSpec &spec) const
    {
        MapperConfig cfg = readOptions(spec.options);
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        cfg.pareto = spec.mode.pareto;
        if (spec.budget.max_samples > 0 &&
            !sets(spec.options, &MapperConfig::samples))
            cfg.samples = spec.budget.max_samples;
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        return static_cast<size_t>(configFromSpec(spec).samples);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl &control) const override
    {
        SearchReport report;
        report.search = detail::randomMapperSearchImpl(spec.workload,
                spec.fixed_hw, configFromSpec(spec), control);
        return report;
    }
};

constexpr OptionRow<BayesOptConfig> kBayesOptOptions[] = {
    {{"warmup_samples", 0, kIntMax}, &BayesOptConfig::warmup_samples},
    {{"total_samples", 1, kIntMax}, &BayesOptConfig::total_samples},
    {{"hw_candidates", 1, kIntMax}, &BayesOptConfig::hw_candidates},
    {{"map_candidates", 1, kIntMax}, &BayesOptConfig::map_candidates},
    {{"refit_every", 1, kIntMax}, &BayesOptConfig::refit_every},
    {{"max_train_points", 1, kIntMax},
            &BayesOptConfig::max_train_points},
    {{"lcb_kappa", -kIntMax, kIntMax}, &BayesOptConfig::lcb_kappa},
};

/** Adapter for the two-loop Bayesian-optimization baseline. */
class BayesOptSearcher : public TableSearcher<BayesOptConfig>
{
  public:
    BayesOptSearcher() : TableSearcher(kBayesOptOptions) {}

    const char *name() const override { return "bayesopt"; }

    BayesOptConfig
    configFromSpec(const SearchSpec &spec) const
    {
        BayesOptConfig cfg = readOptions(spec.options);
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        cfg.pareto = spec.mode.pareto;
        if (spec.budget.max_samples > 0 &&
            !sets(spec.options, &BayesOptConfig::total_samples))
            cfg.total_samples = spec.budget.max_samples;
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        return static_cast<size_t>(
                configFromSpec(spec).total_samples);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl &control) const override
    {
        SearchReport report;
        report.search = detail::bayesOptSearchImpl(spec.workload,
                configFromSpec(spec), control);
        return report;
    }
};

/**
 * The searcher table, in listing order. Adding a searcher is one
 * adapter above plus one row here.
 */
std::span<const Searcher *const>
searchers()
{
    static const DosaSearcher dosa;
    static const RandomSearcher random;
    static const MapperSearcher mapper;
    static const BayesOptSearcher bayesopt;
    static const Searcher *const table[] = {&dosa, &random, &mapper,
                                            &bayesopt};
    return table;
}

} // namespace

const Searcher *
Search::find(std::string_view name)
{
    for (const Searcher *searcher : searchers())
        if (name == searcher->name())
            return searcher;
    return nullptr;
}

std::vector<std::string>
Search::algorithms()
{
    std::vector<std::string> names;
    for (const Searcher *searcher : searchers())
        names.emplace_back(searcher->name());
    return names;
}

std::string
Search::algorithmList()
{
    std::string out;
    for (const Searcher *searcher : searchers()) {
        if (!out.empty())
            out += ", ";
        out += searcher->name();
    }
    return out;
}

} // namespace dosa
