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
 * Regenerate with:  DOSA_REGEN_GOLDEN=1 ./test_golden_traces
 *
 * The fixtures are bit-exact with respect to the libm they were
 * generated against (exp/log/pow are ~0.5 ulp, not formally
 * correctly-rounded); a toolchain/libc jump that moves those last
 * bits is a legitimate reason to regenerate — silent drift from a
 * code change is not.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hh"

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
    const std::string path =
            std::string(DOSA_SOURCE_DIR) + "/tests/golden/pareto.frontier";
    const std::string live = liveFrontierText();
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
