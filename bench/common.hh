/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Every bench accepts:
 *   --quick     reduced sample counts (default; CI-friendly)
 *   --full      paper-scale sample counts
 *   --smoke     tiny sample counts (seconds; the CTest smoke runs)
 *   --seed N    base RNG seed (default 1)
 *   --jobs N    worker threads for the workload/run fan-out (default 1;
 *               results are bit-identical for any value)
 *   --algo A / --algos A,B,...  restrict searcher-sweeping benches to
 *               the named registry algorithms ("all" = every entry of
 *               Search::algorithms(); unknown names are fatal, as is
 *               passing the flag to a fixed-algorithm bench)
 *   --workload W / --workloads A,B,...  restrict workload-sweeping
 *               benches to the named entries of the `Workloads`
 *               registry, or to workload files (a token containing
 *               '/' or ending in ".json" is loaded with
 *               `loadWorkloadFile`); "all" = every registry entry.
 *               Unknown names/bad files are fatal, as is passing the
 *               flag to a fixed-workload bench
 *   --trace FILE  record span tracing (src/obs) for the whole run and
 *               dump Chrome trace-event JSON to FILE at the footer
 * and prints the rows/series the corresponding paper figure reports,
 * mirroring them to CSV files in the working directory.
 *
 * The perf footer every bench ends with is one snapshot of the global
 * metrics registry (obs/metrics.hh): wall clock, then every
 * counter/gauge/histogram the run touched. Trajectory benches
 * additionally append one canonical-JSON line (with a
 * `schema` field) to their `BENCH_*.json` file via
 * `appendTrajectoryLine` — the format `bench/check_trajectory` diffs.
 */

#ifndef DOSA_BENCH_COMMON_HH
#define DOSA_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <ctime>
#include <initializer_list>
#include <string>
#include <vector>

#include "api/search_api.hh"
#include "core/objective.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trajectory.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workload/workload_registry.hh"

namespace dosa::bench {

/** Scale selection for a bench run. */
struct Scale
{
    bool full = false;
    bool smoke = false;
    uint64_t seed = 1;
    int jobs = 1;
    /** --algo/--algos selection (validated); empty = bench default. */
    std::vector<std::string> algos;
    /** --workload/--workloads selection; empty = bench default. */
    std::vector<Network> workloads;
    /** --trace FILE: dump Chrome trace JSON here (empty = off). */
    std::string trace_file;

    /** Pick quick or full value (smoke falls back to quick). */
    template <class T>
    T
    pick(T quick_v, T full_v) const
    {
        return full ? full_v : quick_v;
    }

    /** Pick smoke, quick or full value. */
    template <class T>
    T
    pick(T smoke_v, T quick_v, T full_v) const
    {
        if (smoke)
            return smoke_v;
        return full ? full_v : quick_v;
    }

    /** The --algo selection, or the bench's default set if absent. */
    std::vector<std::string>
    algosOr(std::initializer_list<const char *> defaults) const
    {
        if (!algos.empty())
            return algos;
        return {defaults.begin(), defaults.end()};
    }

    /**
     * The --workload selection, or the named registry entries if the
     * flag is absent. Defaults name builtins, so resolution cannot
     * fail for a correctly-written bench.
     */
    std::vector<Network>
    workloadsOr(std::initializer_list<const char *> defaults) const
    {
        if (!workloads.empty())
            return workloads;
        std::vector<Network> nets;
        for (const char *name : defaults) {
            const Network *net = Workloads::find(name);
            if (net == nullptr)
                fatal(std::string("bench default workload \"") + name +
                      "\" is not registered");
            nets.push_back(*net);
        }
        return nets;
    }
};

/**
 * Parse `--algo A` / `--algos A,B,...` and validate every name
 * against the searcher table; an unknown name is fatal and lists
 * `Search::algorithms()`. "all" selects every searcher.
 */
inline std::vector<std::string>
parseAlgos(const Cli &cli)
{
    std::string arg = cli.get("algos", cli.get("algo", ""));
    if (arg.empty())
        return {};
    if (arg == "all")
        return Search::algorithms();
    std::vector<std::string> names;
    size_t start = 0;
    while (start <= arg.size()) {
        size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        std::string name = arg.substr(start, comma - start);
        if (!name.empty())
            names.push_back(std::move(name));
        start = comma + 1;
    }
    for (const std::string &name : names) {
        if (Search::find(name) == nullptr)
            fatal("unknown --algo \"" + name + "\" (available: " +
                  Search::algorithmList() + ")");
    }
    return names;
}

/**
 * Parse `--workload W` / `--workloads A,B,...` into resolved
 * networks. A token containing '/' or ending in ".json" is loaded as
 * a workload file (`loadWorkloadFile`); anything else must name a
 * `Workloads` registry entry. "all" selects the whole registry.
 * Unknown names and unreadable/malformed files are fatal.
 */
inline std::vector<Network>
parseWorkloads(const Cli &cli)
{
    std::string arg = cli.get("workloads", cli.get("workload", ""));
    if (arg.empty())
        return {};
    std::vector<Network> nets;
    if (arg == "all") {
        for (const std::string &name : Workloads::names())
            nets.push_back(*Workloads::find(name));
        return nets;
    }
    size_t start = 0;
    while (start <= arg.size()) {
        size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        std::string token = arg.substr(start, comma - start);
        start = comma + 1;
        if (token.empty())
            continue;
        bool is_file = token.find('/') != std::string::npos ||
                (token.size() > 5 &&
                 token.compare(token.size() - 5, 5, ".json") == 0);
        if (is_file) {
            Network net;
            std::string error;
            if (!loadWorkloadFile(token, net, error))
                fatal("--workload: " + error);
            nets.push_back(std::move(net));
            continue;
        }
        const Network *net = Workloads::find(token);
        if (net == nullptr)
            fatal("unknown --workload \"" + token + "\" (available: " +
                  Workloads::nameList() + "; pass a path or .json "
                  "file name to load a workload file)");
        nets.push_back(*net);
    }
    return nets;
}

/**
 * Parse the shared bench flags. `algo_sweep` declares whether this
 * bench consumes `--algo`/`--algos`, and `workload_sweep` whether it
 * consumes `--workload`/`--workloads`; passing the flags to a bench
 * with a fixed algorithm/workload set is a loud error rather than a
 * validated-then-ignored selection.
 */
inline Scale
parseScale(int argc, const char *const *argv, bool algo_sweep = false,
           bool workload_sweep = false)
{
    Cli cli(argc, argv);
    Scale s;
    s.full = cli.has("full");
    s.smoke = cli.has("smoke");
    s.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    s.jobs = static_cast<int>(cli.getInt("jobs", 1));
    s.algos = parseAlgos(cli);
    s.workloads = parseWorkloads(cli);
    s.trace_file = cli.get("trace", "");
    if (!algo_sweep && !s.algos.empty())
        fatal("--algo/--algos: this bench runs a fixed algorithm "
              "set and does not sweep the registry");
    if (!workload_sweep && !s.workloads.empty())
        fatal("--workload/--workloads: this bench runs a fixed "
              "workload set and does not sweep the registry");
    if (!s.trace_file.empty())
        obs::globalTracer().enable();
    return s;
}

inline const char *
modeName(const Scale &scale)
{
    if (scale.smoke)
        return "smoke";
    return scale.full ? "full" : "quick";
}

inline void
banner(const std::string &title, const Scale &scale)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("mode: %s, seed: %llu, jobs: %d\n", modeName(scale),
            static_cast<unsigned long long>(scale.seed), scale.jobs);
    std::printf("==================================================\n");
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

/** Monotonic wall-clock timer for the perf summaries. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Print the standard perf footer of every figure bench, driven by one
 * snapshot of the global metrics registry: the wall clock first (its
 * wording is load-bearing — CI greps the smoke logs for "wall clock"),
 * then every counter, gauge and duration histogram the run touched.
 *
 * When the run was started with --trace FILE the footer also stops
 * the tracer and dumps the Chrome trace-event JSON.
 */
inline void
perfFooter(const Scale &scale, const WallTimer &timer)
{
    obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();

    std::printf("\nwall clock: %.2f s\n", timer.seconds());

    bool any = false;
    for (const auto &[name, value] : snap.counters) {
        std::printf("%s%s=%llu", any ? " " : "metrics: ",
                name.c_str(),
                static_cast<unsigned long long>(value));
        any = true;
    }
    for (const auto &[name, value] : snap.gauges) {
        std::printf("%s%s=%lld", any ? " " : "metrics: ",
                name.c_str(), static_cast<long long>(value));
        any = true;
    }
    if (any)
        std::printf("\n");
    for (const auto &[name, hist] : snap.histograms)
        std::printf("  %s: %s\n", name.c_str(), hist.str().c_str());

    if (!scale.trace_file.empty()) {
        obs::Tracer &tracer = obs::globalTracer();
        tracer.disable();
        std::string error;
        if (tracer.writeFile(scale.trace_file, error))
            std::printf("trace: %llu events (%llu dropped) -> %s\n",
                    static_cast<unsigned long long>(
                            tracer.eventCount()),
                    static_cast<unsigned long long>(
                            tracer.droppedCount()),
                    scale.trace_file.c_str());
        else
            std::printf("trace: write failed: %s\n", error.c_str());
    }
}

/**
 * Append one canonical-JSON trajectory line to `file` (in the working
 * directory, like the CSVs). Stamps the shared `schema` version and
 * the wall-clock `unix_time` onto `row`; everything else — including
 * the context keys `bench`/`mode` that make lines comparable — is the
 * caller's. `bench/check_trajectory` diffs consecutive lines of these
 * files; see obs/trajectory.hh for the key conventions.
 */
inline void
appendTrajectoryLine(const std::string &file, json::Value row)
{
    row.set("schema", json::Value::number(obs::kTelemetrySchema));
    row.set("unix_time", json::Value::number(
            static_cast<int64_t>(std::time(nullptr))));
    FILE *out = std::fopen(file.c_str(), "ab");
    if (out == nullptr) {
        std::printf("trajectory: cannot append to %s\n", file.c_str());
        return;
    }
    std::string line = row.dump();
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), out);
    std::fclose(out);
    note("trajectory line appended to " + file);
}

} // namespace dosa::bench

#endif // DOSA_BENCH_COMMON_HH
