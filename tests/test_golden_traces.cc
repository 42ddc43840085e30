/**
 * @file
 * Golden-trace regression fixtures: one tiny canonical fixed-seed
 * `runSearch` run per builtin searcher (DOSA, random co-search,
 * fixed-hardware mapper, BB-BO; specs in golden.hh), serialized
 * bit-exactly (hex floats) under `tests/golden/` and diffed against
 * live runs. The point is to freeze searcher *results*, so
 * interpreter rewrites (batched replay, future SIMD work) cannot
 * silently drift traces or selected designs — any intentional
 * behavior change has to regenerate the fixtures and show up in
 * review.
 *
 * The multi-objective runs are pinned the same way: for each of the
 * four `goldenParetoSpecs()`, `tests/golden/pareto.frontier` holds
 * the frontier event stream (trace index, EDP, area and power as hex
 * floats, front size) and the final front's points (trace index and
 * hardware).
 *
 * The differentiable objective is pinned below the searchers too:
 * `tests/golden/objective.grad` holds, for each workload, ordering
 * strategy, objective mode and seeded point, the loss, energy,
 * latency, penalty, area and power as hex floats and an FNV-1a digest
 * of the gradient's bit patterns. A descent that rounds every few
 * steps can absorb a 1-ulp gradient change without moving a traced
 * EDP; this fixture cannot.
 *
 * DOSA runs whose starts span several descent chunks are pinned by
 * `tests/golden/dosa_chunks.digest`: sample count, a bit digest of
 * every sample's EDP, best design, start attribution and front
 * digest of each `goldenDosaChunkSpecs()` run.
 *
 * Regenerate with:  DOSA_REGEN_GOLDEN=1 ./test_golden_traces
 *
 * The fixtures are bit-exact with respect to the libm they were
 * generated against (exp/log/pow are ~0.5 ulp, not formally
 * correctly-rounded); a toolchain/libc jump that moves those last
 * bits is a legitimate reason to regenerate — silent drift from a
 * code change is not.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hh"
#include "golden.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

bool
regenRequested()
{
    const char *env = std::getenv("DOSA_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0;
}

/**
 * Serialize a search result bit-exactly: %a round-trips doubles
 * through strtod without loss, and stays diffable text.
 */
void
writeGolden(const std::string &path, const SearchResult &r)
{
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fprintf(f, "# golden searcher trace; regenerate with "
                    "DOSA_REGEN_GOLDEN=1 ./test_golden_traces\n");
    std::fprintf(f, "trace %zu\n", r.trace.size());
    for (double v : r.trace)
        std::fprintf(f, "%a\n", v);
    std::fprintf(f, "best_edp %a\n", r.best_edp);
    std::fprintf(f, "best_hw %lld %lld %lld\n",
            static_cast<long long>(r.best_hw.pe_dim),
            static_cast<long long>(r.best_hw.accum_kib),
            static_cast<long long>(r.best_hw.spad_kib));
    std::fclose(f);
}

/** Run a golden spec through runSearch, then regenerate or diff. */
void
checkAgainstGolden(const SearchSpec &spec)
{
    const SearchResult r = runSearch(spec).search;
    if (regenRequested()) {
        writeGolden(goldenPath(spec.algorithm), r);
        GTEST_SKIP() << "regenerated " << goldenPath(spec.algorithm);
    }
    Golden g;
    readGolden(spec.algorithm, g);
    if (::testing::Test::HasFatalFailure())
        return;
    expectBitwiseEqual(spec.algorithm, r, g);
}

/**
 * Regenerate the text fixture `tests/golden/<name>` from `live`, or
 * diff `live` against it; %a in the text makes equality bitwise.
 */
void
checkTextFixture(const std::string &name, const std::string &live)
{
    const std::string path =
            std::string(DOSA_SOURCE_DIR) + "/tests/golden/" + name;
    if (regenRequested()) {
        std::ofstream(path) << live;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — run DOSA_REGEN_GOLDEN=1 ./test_golden_traces";
    std::stringstream pinned;
    pinned << in.rdbuf();
    // A drift prints as a line diff of the two texts.
    EXPECT_EQ(live, pinned.str());
}

/** Keeps every frontier event of one run. */
struct FrontierRecorder : SearchObserver
{
    std::vector<FrontierEvent> events;

    void
    onFrontier(const FrontierEvent &event) override
    {
        events.push_back(event);
    }
};

/**
 * The frontier fixture's text for the live runs of every
 * `goldenParetoSpecs()` entry; %a makes text equality bitwise
 * equality.
 */
std::string
liveFrontierText()
{
    std::string out = "# golden multi-objective frontiers; regenerate "
                      "with DOSA_REGEN_GOLDEN=1 ./test_golden_traces\n";
    char line[256];
    for (const SearchSpec &spec : goldenParetoSpecs()) {
        FrontierRecorder recorder;
        const ParetoFront front = runSearch(spec, &recorder).search.frontier;
        std::snprintf(line, sizeof(line), "%s events %zu\n",
                spec.algorithm.c_str(), recorder.events.size());
        out += line;
        for (const FrontierEvent &e : recorder.events) {
            std::snprintf(line, sizeof(line), "%zu %a %a %a %zu\n",
                    e.index, e.edp, e.area_mm2, e.power_w, e.front_size);
            out += line;
        }
        std::snprintf(line, sizeof(line), "%s front %zu\n",
                spec.algorithm.c_str(), front.size());
        out += line;
        for (const ParetoPoint &p : front.points()) {
            std::snprintf(line, sizeof(line), "%zu %lld %lld %lld\n",
                    p.sample_index, static_cast<long long>(p.hw.pe_dim),
                    static_cast<long long>(p.hw.accum_kib),
                    static_cast<long long>(p.hw.spad_kib));
            out += line;
        }
    }
    return out;
}

TEST(GoldenFrontier, EverySearcherStreamsThePinnedFront)
{
    checkTextFixture("pareto.frontier", liveFrontierText());
}

/** FNV-1a over the bytes of every double's bit pattern, low byte first. */
uint64_t
fnv1a(const std::vector<double> &xs)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (double v : xs) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(v));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/**
 * Three seeded points for a workload's objective: logs of small
 * integers (every gate exactly 0, at 1 or saturated, the hinges at
 * their kink), a mild spread around them, and a wide one whose
 * negative coordinates fire the hinges and whose large ones saturate
 * the refetch ramps and the spatial caps.
 */
std::vector<std::vector<double>>
objectivePoints(size_t num_layers, uint64_t seed)
{
    Rng rng(seed);
    const size_t n = num_layers * kVarsPerLayer;
    std::vector<std::vector<double>> points(3, std::vector<double>(n));
    for (size_t i = 0; i < n; ++i)
        points[0][i] = std::log(double(rng.uniformInt(1, 4)));
    for (size_t i = 0; i < n; ++i)
        points[1][i] = rng.uniformReal(-0.5, 1.5);
    for (size_t i = 0; i < n; ++i)
        points[2][i] = rng.uniformReal(-4.0, 4.0);
    return points;
}

/**
 * The objective fixture's text: every (workload, strategy, mode,
 * point) evaluation of one engine per (workload, strategy, mode), so
 * the first point builds the tape and the others replay it.
 */
std::string
liveObjectiveText()
{
    struct Workload
    {
        const char *name;
        std::vector<Layer> layers;
    };
    const Workload workloads[] = {{"golden", goldenLayers()},
                                  {"bert", networkByName("bert").layers}};
    const OrderStrategy strategies[] = {OrderStrategy::Fixed,
            OrderStrategy::Iterate, OrderStrategy::Softmax};

    std::string out = "# golden objective values and gradient digests; "
                      "regenerate with DOSA_REGEN_GOLDEN=1 "
                      "./test_golden_traces\n";
    char line[512];
    for (const Workload &w : workloads) {
        const size_t nl = w.layers.size();
        std::vector<std::pair<const char *, ObjectiveMode>> modes(5);
        modes[0].first = "default";
        modes[1].first = "pareto";
        modes[1].second.pareto.area.enabled = true;
        modes[1].second.pareto.power.enabled = true;
        modes[2].first = "fix_pe";
        modes[2].second.fix_pe = true;
        modes[3].first = "max_area";
        modes[3].second.max_area_mm2 = 1.0;
        modes[4].first = "layer_weights";
        for (size_t li = 0; li < nl; ++li)
            modes[4].second.layer_weights.push_back(1.0 + 0.5 * double(li));

        const auto points = objectivePoints(nl, 91 + nl);
        for (OrderStrategy s : strategies) {
            // Iterate's per-level orders differ across layers and
            // levels; Fixed is weight-stationary everywhere.
            std::vector<OrderVec> orders(nl, uniformOrder(LoopOrder::WS));
            if (s == OrderStrategy::Iterate)
                for (size_t li = 0; li < nl; ++li)
                    for (size_t lvl = 0; lvl < orders[li].size(); ++lvl)
                        orders[li][lvl] = LoopOrder(int((li + lvl) % 3));
            for (const auto &[mode_name, mode] : modes) {
                ObjectiveEngine engine;
                for (size_t pi = 0; pi < points.size(); ++pi) {
                    const ObjectiveEval &e =
                            engine.eval(w.layers, points[pi], orders, s, mode);
                    std::snprintf(line, sizeof(line),
                            "%s %s %s %zu %a %a %a %a %a %a %016llx\n",
                            w.name, strategyName(s), mode_name, pi, e.loss,
                            e.energy_uj, e.latency, e.penalty, e.area_mm2,
                            e.power_w,
                            static_cast<unsigned long long>(fnv1a(e.grad)));
                    out += line;
                }
            }
        }
    }
    return out;
}

TEST(GoldenObjective, ValuesAndGradientBitsArePinned)
{
    checkTextFixture("objective.grad", liveObjectiveText());
}

/**
 * The chunked-descent fixture's text: for each `goldenDosaChunkSpecs()`
 * run at jobs 4, the sample count and a bit digest of every sample's
 * own EDP, the best EDP and hardware, the start attribution and a
 * digest of the front.
 */
std::string
liveDosaChunkText()
{
    std::string out = "# golden DOSA runs across descent chunks; regenerate "
                      "with DOSA_REGEN_GOLDEN=1 ./test_golden_traces\n";
    char line[512];
    for (SearchSpec spec : goldenDosaChunkSpecs()) {
        spec.jobs = 4;
        SampleRecorder samples;
        const SearchReport r = runSearch(spec, &samples);
        const SearchResult &s = r.search;
        std::vector<double> front;
        for (const ParetoPoint &p : s.frontier.points())
            front.insert(front.end(), {double(p.sample_index), p.edp,
                                       p.area_mm2, p.power_w});
        std::snprintf(line, sizeof(line),
                "strategy %lld pareto %d samples %zu %016llx "
                "best %a %lld %lld %lld start %a %lld %lld %lld "
                "front %zu %016llx\n",
                static_cast<long long>(spec.options.getInt("strategy", 0)),
                int(spec.mode.pareto.active()), samples.edps.size(),
                static_cast<unsigned long long>(fnv1a(samples.edps)),
                s.best_edp, static_cast<long long>(s.best_hw.pe_dim),
                static_cast<long long>(s.best_hw.accum_kib),
                static_cast<long long>(s.best_hw.spad_kib),
                r.best_start_edp,
                static_cast<long long>(r.best_start_hw.pe_dim),
                static_cast<long long>(r.best_start_hw.accum_kib),
                static_cast<long long>(r.best_start_hw.spad_kib),
                s.frontier.size(),
                static_cast<unsigned long long>(fnv1a(front)));
        out += line;
    }
    return out;
}

/**
 * Starts that span several descent chunks, resumed on other threads,
 * compute exactly what one uninterrupted loop per start computed: the
 * fixture was generated before the descent ran in chunks.
 */
TEST(GoldenTrace, DosaStartsAcrossDescentChunks)
{
    checkTextFixture("dosa_chunks.digest", liveDosaChunkText());
}

TEST(GoldenTrace, DosaSearch)
{
    checkAgainstGolden(goldenDosaSpec());
}

TEST(GoldenTrace, RandomSearch)
{
    checkAgainstGolden(goldenRandomSpec());
}

TEST(GoldenTrace, RandomMapper)
{
    checkAgainstGolden(goldenMapperSpec());
}

TEST(GoldenTrace, BayesOpt)
{
    checkAgainstGolden(goldenBayesOptSpec());
}

} // namespace
} // namespace dosa
