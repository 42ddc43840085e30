/**
 * @file
 * Multi-objective (Pareto) search tests: ParetoFront domination
 * semantics, the ObjectiveEngine's extra axis heads (scalar == batch
 * bitwise), spec validation of the pareto mode, serial == parallel
 * frontier determinism for all four searchers, and cancellation
 * invariants mid-frontier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "api/search_api.hh"
#include "arch/area_model.hh"
#include "core/objective.hh"
#include "golden.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "util/rng.hh"

namespace dosa {
namespace {

bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

ParetoObjectives
allAxes()
{
    ParetoObjectives axes;
    axes.area.enabled = true;
    axes.power.enabled = true;
    return axes;
}

ParetoPoint
point(double edp, double area, double power)
{
    ParetoPoint p;
    p.edp = edp;
    p.area_mm2 = area;
    p.power_w = power;
    return p;
}

// ---- ParetoFront unit semantics. ----------------------------------

TEST(ParetoFront, KeepsInsertionOrderAndPrunesDominated)
{
    ParetoFront front;
    front.configure(allAxes());
    EXPECT_TRUE(front.consider(point(10.0, 5.0, 2.0)));
    EXPECT_TRUE(front.consider(point(12.0, 4.0, 2.5))); // area trade
    EXPECT_TRUE(front.consider(point(11.0, 6.0, 1.0))); // power trade
    ASSERT_EQ(front.size(), 3u);
    EXPECT_DOUBLE_EQ(front.points()[0].edp, 10.0);
    EXPECT_DOUBLE_EQ(front.points()[1].edp, 12.0);
    EXPECT_DOUBLE_EQ(front.points()[2].edp, 11.0);

    // Strictly dominates the first two, ties nothing: both leave,
    // survivors keep their relative order, entrant appends.
    EXPECT_TRUE(front.consider(point(9.0, 4.0, 2.0)));
    ASSERT_EQ(front.size(), 2u);
    EXPECT_DOUBLE_EQ(front.points()[0].edp, 11.0);
    EXPECT_DOUBLE_EQ(front.points()[1].edp, 9.0);

    // Weakly dominated (worse on every axis): rejected, front intact.
    EXPECT_FALSE(front.wouldAccept(9.5, 4.5, 2.1));
    EXPECT_FALSE(front.consider(point(9.5, 4.5, 2.1)));
    EXPECT_EQ(front.size(), 2u);
}

TEST(ParetoFront, ExactTiesNeitherEnterNorPrune)
{
    ParetoFront front;
    front.configure(allAxes());
    EXPECT_TRUE(front.consider(point(10.0, 5.0, 2.0)));
    // A duplicate is weakly dominated by its twin: rejected.
    EXPECT_FALSE(front.consider(point(10.0, 5.0, 2.0)));
    ASSERT_EQ(front.size(), 1u);
    // Better on one axis, tied elsewhere: enters and prunes the
    // incumbent it strictly dominates.
    EXPECT_TRUE(front.consider(point(10.0, 5.0, 1.5)));
    ASSERT_EQ(front.size(), 1u);
    EXPECT_DOUBLE_EQ(front.points()[0].power_w, 1.5);
}

TEST(ParetoFront, DisabledAxesDoNotParticipate)
{
    ParetoObjectives axes; // edp only (area/power disabled)
    ParetoFront front;
    front.configure(axes);
    EXPECT_TRUE(front.consider(point(10.0, 5.0, 2.0)));
    // Better area/power but worse EDP: dominated on the only enabled
    // axis, so it does not enter.
    EXPECT_FALSE(front.consider(point(11.0, 1.0, 1.0)));
    // Better EDP prunes regardless of the disabled axes' values.
    EXPECT_TRUE(front.consider(point(9.0, 99.0, 99.0)));
    ASSERT_EQ(front.size(), 1u);
    EXPECT_DOUBLE_EQ(front.points()[0].edp, 9.0);
}

// ---- ObjectiveEngine: area/power heads. ---------------------------

std::vector<Layer>
engineLayers()
{
    return {Layer::gemm("a", 64, 32, 128), Layer::gemm("b", 32, 64, 64)};
}

std::vector<double>
startVector(const std::vector<Layer> &layers)
{
    const HardwareConfig hw{16, 32, 128};
    std::vector<double> x;
    for (const Layer &l : layers) {
        std::vector<double> xl = packMapping(cosaMap(l, hw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    return x;
}

TEST(ParetoObjective, EngineValuesAreaAndPowerWithEdp)
{
    std::vector<Layer> layers = engineLayers();
    std::vector<OrderVec> orders(layers.size(),
            uniformOrder(LoopOrder::WS));
    std::vector<double> x = startVector(layers);

    ObjectiveMode mode;
    mode.pareto = allAxes();
    ObjectiveEngine engine;
    const ObjectiveEval &ev = engine.eval(layers, x, orders,
            OrderStrategy::Fixed, mode);
    EXPECT_GT(ev.area_mm2, 0.0);
    EXPECT_GT(ev.power_w, 0.0);
    // The power proxy is total energy over total latency at a 1 GHz
    // clock: W = (uJ * 1e-6 J) / (cycles * 1e-9 s).
    EXPECT_DOUBLE_EQ(ev.power_w, ev.energy_uj / ev.latency * 1000.0);
    EXPECT_TRUE(std::isfinite(ev.loss));

    // Single-objective mode leaves the extra heads unvalued.
    ObjectiveMode single;
    ObjectiveEngine single_engine;
    const ObjectiveEval &sev = single_engine.eval(layers, x, orders,
            OrderStrategy::Fixed, single);
    EXPECT_EQ(sev.area_mm2, 0.0);
    EXPECT_EQ(sev.power_w, 0.0);
}

TEST(ParetoObjective, BatchMatchesScalarOnAllHeads)
{
    std::vector<Layer> layers = engineLayers();
    std::vector<OrderVec> orders(layers.size(),
            uniformOrder(LoopOrder::WS));
    std::vector<double> x0 = startVector(layers);
    Rng rng(17);
    std::vector<std::vector<double>> xs(5, x0);
    for (size_t k = 1; k < xs.size(); ++k)
        for (double &v : xs[k])
            v += rng.uniformReal(-0.2, 0.2);

    ObjectiveMode mode;
    mode.pareto = allAxes();
    ObjectiveEngine batch_engine;
    const std::vector<ObjectiveEval> &evs = batch_engine.evalBatch(
            layers, xs, orders, OrderStrategy::Fixed, mode);
    ASSERT_EQ(evs.size(), xs.size());
    ObjectiveEngine ref_engine;
    for (size_t k = 0; k < xs.size(); ++k) {
        const ObjectiveEval &ref = ref_engine.eval(layers, xs[k],
                orders, OrderStrategy::Fixed, mode);
        EXPECT_TRUE(bitEq(evs[k].loss, ref.loss));
        EXPECT_TRUE(bitEq(evs[k].edp, ref.edp));
        EXPECT_TRUE(bitEq(evs[k].area_mm2, ref.area_mm2));
        EXPECT_TRUE(bitEq(evs[k].power_w, ref.power_w));
    }
}

// ---- Spec validation of the pareto mode. --------------------------

SearchSpec
validBaseSpec()
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = {Layer::gemm("a", 32, 32, 32)};
    return spec;
}

TEST(ParetoSpec, RejectsAllAxesDisabled)
{
    SearchSpec spec = validBaseSpec();
    spec.mode.pareto.edp.enabled = false;
    std::string error;
    EXPECT_FALSE(validateSpec(spec, error));
    EXPECT_NE(error.find("at least one"), std::string::npos) << error;
}

TEST(ParetoSpec, RejectsNonPositiveOrNonFiniteWeights)
{
    for (double bad : {0.0, -1.0,
                 std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::quiet_NaN()}) {
        SearchSpec spec = validBaseSpec();
        spec.mode.pareto.area.enabled = true;
        spec.mode.pareto.area.weight = bad;
        std::string error;
        EXPECT_FALSE(validateSpec(spec, error)) << bad;
        EXPECT_NE(error.find("weights"), std::string::npos) << error;
    }
    // A bad weight on a *disabled* axis is inert, not an error.
    SearchSpec spec = validBaseSpec();
    spec.mode.pareto.area.weight = -1.0;
    std::string error;
    EXPECT_TRUE(validateSpec(spec, error)) << error;
}

// ---- Serial == parallel frontier determinism. ---------------------

/** Records frontier events; optionally cancels after N samples. */
struct FrontierRecorder : SearchObserver
{
    std::vector<FrontierEvent> events;
    size_t samples_seen = 0;
    size_t cancel_after = 0; // 0 = run to completion

    bool
    onSample(const SampleEvent &) override
    {
        ++samples_seen;
        return cancel_after == 0 || samples_seen < cancel_after;
    }

    void
    onFrontier(const FrontierEvent &event) override
    {
        events.push_back(event);
    }
};

void
expectSameEvents(const std::vector<FrontierEvent> &a,
                 const std::vector<FrontierEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_TRUE(bitEq(a[i].edp, b[i].edp));
        EXPECT_TRUE(bitEq(a[i].area_mm2, b[i].area_mm2));
        EXPECT_TRUE(bitEq(a[i].power_w, b[i].power_w));
        EXPECT_EQ(a[i].front_size, b[i].front_size);
    }
}

TEST(ParetoDeterminism, SerialEqualsParallelForAllSearchers)
{
    for (SearchSpec spec : goldenParetoSpecs()) {
        spec.jobs = 1;
        FrontierRecorder serial;
        SearchReport serial_report = runSearch(spec, &serial);

        spec.jobs = 4;
        FrontierRecorder parallel;
        SearchReport parallel_report = runSearch(spec, &parallel);

        SCOPED_TRACE(spec.algorithm);
        EXPECT_FALSE(serial.events.empty());
        expectSameEvents(serial.events, parallel.events);

        const ParetoFront &sf = serial_report.search.frontier;
        const ParetoFront &pf = parallel_report.search.frontier;
        ASSERT_EQ(sf.size(), pf.size());
        for (size_t i = 0; i < sf.size(); ++i) {
            const ParetoPoint &sp = sf.points()[i];
            const ParetoPoint &pp = pf.points()[i];
            EXPECT_EQ(sp.sample_index, pp.sample_index);
            EXPECT_TRUE(bitEq(sp.edp, pp.edp));
            EXPECT_TRUE(bitEq(sp.area_mm2, pp.area_mm2));
            EXPECT_TRUE(bitEq(sp.power_w, pp.power_w));
            EXPECT_EQ(sp.hw, pp.hw);
            EXPECT_EQ(sp.mappings, pp.mappings);
        }
        EXPECT_TRUE(bitEq(serial_report.search.best_edp,
                parallel_report.search.best_edp));
    }
}

TEST(ParetoDeterminism, FrontierPointsAreMutuallyNonDominated)
{
    for (SearchSpec spec : goldenParetoSpecs()) {
        spec.jobs = 3;
        SearchReport report = runSearch(spec);
        const auto &pts = report.search.frontier.points();
        SCOPED_TRACE(spec.algorithm);
        EXPECT_FALSE(pts.empty());
        for (size_t i = 0; i < pts.size(); ++i) {
            EXPECT_LT(pts[i].sample_index,
                    report.search.trace.size());
            for (size_t j = 0; j < pts.size(); ++j) {
                if (i == j)
                    continue;
                // No point may weakly dominate another.
                EXPECT_FALSE(pts[i].edp <= pts[j].edp &&
                        pts[i].area_mm2 <= pts[j].area_mm2 &&
                        pts[i].power_w <= pts[j].power_w)
                        << i << " dominates " << j;
            }
        }
    }
}

TEST(ParetoDeterminism, SingleObjectiveRunsStreamNoFrontier)
{
    SearchSpec spec = goldenParetoSpecs()[1];
    spec.mode.pareto = ParetoObjectives{}; // edp only: not active
    spec.jobs = 2;
    FrontierRecorder recorder;
    SearchReport report = runSearch(spec, &recorder);
    EXPECT_TRUE(recorder.events.empty());
    EXPECT_TRUE(report.search.frontier.empty());
    EXPECT_GT(recorder.samples_seen, 0u);
}

// ---- Cancellation mid-frontier. -----------------------------------

TEST(ParetoCancellation, InvariantsHoldAfterMidFrontierStop)
{
    for (SearchSpec spec : goldenParetoSpecs()) {
        spec.jobs = 2;
        FrontierRecorder recorder;
        recorder.cancel_after = 10;
        SearchReport report = runSearch(spec, &recorder);
        SCOPED_TRACE(spec.algorithm);

        const SearchResult &r = report.search;
        // Recording stops within one sample of the cancel: the trace
        // length equals the number of onSample calls.
        ASSERT_EQ(r.trace.size(), recorder.cancel_after);
        ASSERT_EQ(r.trace.size(), recorder.samples_seen);
        // The trace is the monotone best-so-far stream and best_edp
        // is its minimum even when the stop lands mid-frontier.
        EXPECT_TRUE(bitEq(r.best_edp,
                *std::min_element(r.trace.begin(), r.trace.end())));
        EXPECT_TRUE(bitEq(r.best_edp, r.trace.back()));
        // Every frontier point (and event) refers to a sample that
        // actually landed in the truncated trace.
        for (const ParetoPoint &p : r.frontier.points())
            EXPECT_LT(p.sample_index, r.trace.size());
        for (const FrontierEvent &e : recorder.events)
            EXPECT_LT(e.index, r.trace.size());
    }
}

} // namespace
} // namespace dosa
