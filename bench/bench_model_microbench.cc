/**
 * @file
 * Google-benchmark microbenchmarks for the hot paths of the DSE
 * stack: reference evaluation, differentiable-model evaluation,
 * objective gradients, rounding and the RTL substitute. These support
 * the paper's premise that model evaluations are cheap enough to use
 * as the inner loop of search.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "core/adam.hh"
#include "core/objective.hh"
#include "mapping/rounding.hh"
#include "model/analytical.hh"
#include "model/reference.hh"
#include "rtl/gemmini_rtl.hh"
#include "search/cosa_mapper.hh"
#include "workload/model_zoo.hh"

using namespace dosa;

namespace {

const Layer &
benchLayer()
{
    static Layer l = Layer::conv("bench", 3, 28, 128, 128);
    return l;
}

const HardwareConfig kHw{16, 32, 128};

void
BM_ReferenceEval(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    for (auto _ : state) {
        RefEval ev = referenceEval(benchLayer(), m, kHw);
        benchmark::DoNotOptimize(ev.edp);
    }
}
BENCHMARK(BM_ReferenceEval);

void
BM_AnalyticalDouble(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    Factors<double> f = m.continuousFactors();
    for (auto _ : state) {
        LayerCounts<double> c = computeCounts(benchLayer(), f,
                m.order);
        LayerPerf<double> p = computePerf(c, hwScalars<double>(kHw));
        benchmark::DoNotOptimize(p.latency);
    }
}
BENCHMARK(BM_AnalyticalDouble);

void
BM_ObjectiveGradient(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode mode;
    for (auto _ : state) {
        ObjectiveEval ev = evalObjective(layers, x, orders,
                OrderStrategy::Fixed, mode);
        benchmark::DoNotOptimize(ev.grad.data());
    }
}
BENCHMARK(BM_ObjectiveGradient)->Arg(1)->Arg(8)->Arg(24);

/**
 * Steady-state descent step: arena-engine gradient (tape replay +
 * reverse sweep into a reused buffer) plus the Adam update. This is
 * the loop the "dosa" searcher runs thousands of times per start
 * point; the first iteration builds the graph, every later one
 * replays it.
 */
void
BM_GradientStepReplay(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode mode;
    ObjectiveEngine engine;
    Adam adam(x.size(), 1e-5);
    for (auto _ : state) {
        const ObjectiveEval &ev = engine.eval(layers, x, orders,
                OrderStrategy::Fixed, mode);
        adam.step(x, ev.grad);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_GradientStepReplay)->Arg(1)->Arg(8)->Arg(24);

/** Softmax-strategy variant of the steady-state descent step. */
void
BM_GradientStepReplaySoftmax(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 8);
    std::vector<double> x;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    ObjectiveMode mode;
    ObjectiveEngine engine;
    Adam adam(x.size(), 1e-5);
    for (auto _ : state) {
        const ObjectiveEval &ev = engine.eval(layers, x, {},
                OrderStrategy::Softmax, mode);
        adam.step(x, ev.grad);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_GradientStepReplaySoftmax);

void
BM_ObjectiveGradientSoftmax(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 8);
    std::vector<double> x;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    ObjectiveMode mode;
    for (auto _ : state) {
        ObjectiveEval ev = evalObjective(layers, x, {},
                OrderStrategy::Softmax, mode);
        benchmark::DoNotOptimize(ev.grad.data());
    }
}
BENCHMARK(BM_ObjectiveGradientSoftmax);

void
BM_Rounding(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    Factors<double> f = m.continuousFactors();
    // Slightly off-grid values so rounding does real work.
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            f.t(lvl, d) *= 1.17;
    for (auto _ : state) {
        Mapping r = roundToValid(f, benchLayer(),
                uniformOrder(LoopOrder::WS));
        benchmark::DoNotOptimize(r.factors.spatial_c);
    }
}
BENCHMARK(BM_Rounding);

void
BM_RtlSimulator(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    for (auto _ : state) {
        double lat = rtlLatency(benchLayer(), m, kHw);
        benchmark::DoNotOptimize(lat);
    }
}
BENCHMARK(BM_RtlSimulator);

void
BM_CosaMapper(benchmark::State &state)
{
    for (auto _ : state) {
        Mapping m = cosaMap(benchLayer(), kHw);
        benchmark::DoNotOptimize(m.factors.spatial_c);
    }
}
BENCHMARK(BM_CosaMapper);

} // namespace

BENCHMARK_MAIN();
