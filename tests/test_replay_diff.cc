/**
 * @file
 * Differential tests for the batched tape interpreter: seeded random
 * tapes (op mix including data-dependent branch flips) asserting
 * `Tape::replayBatch` / `gradientBatchInto` bitwise-match N
 * independent `replay` / `gradientInto` calls across lane widths,
 * plus the layers above — `ObjectiveEngine::evalBatch` vs N scalar
 * evals, the surrogate bulk scorer vs its point path, scored
 * searchers serial vs parallel — and death tests for the batch API
 * contract.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "api/search_api.hh"
#include "autodiff/tape.hh"
#include "autodiff/var.hh"
#include "core/objective.hh"
#include "search/cosa_mapper.hh"
#include "surrogate/latency_predictor.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

using ad::NodeId;
using ad::Tape;
using ad::Var;

constexpr size_t kW = Tape::kLaneWidth;

/** Bitwise double equality (distinguishes +0.0 / -0.0, exact NaNs). */
bool
bitEq(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/**
 * Record a random program on `tape` over leaves at `x`. The op
 * sequence is a pure function of `rng` draws — never of the leaf
 * values — so the recorded shape is replay-safe by construction. The
 * mix covers every Op kind: binary/const arithmetic, guarded
 * divisions and transcendentals, both-taped and const-operand
 * max/min selections, relu hinges and a softmax (whose stability
 * shift re-selects its argmax per replay). Every pool entry feeds
 * the output so each leaf carries gradient.
 */
Var
buildRandomProgram(Tape &tape, Rng &rng, const std::vector<double> &x)
{
    std::vector<Var> pool;
    pool.reserve(x.size() + 96);
    for (double v : x)
        pool.emplace_back(tape, v);
    auto pick = [&]() -> const Var & {
        return pool[size_t(rng.uniformInt(0,
                static_cast<int64_t>(pool.size()) - 1))];
    };
    const int ops = 40 + static_cast<int>(rng.uniformInt(0, 40));
    for (int i = 0; i < ops; ++i) {
        const Var a = pick();
        const Var b = pick();
        const double c = rng.uniformReal(-2.0, 2.0);
        Var r;
        switch (rng.uniformInt(0, 15)) {
          case 0: r = a + b; break;
          case 1: r = a - b; break;
          case 2: r = a * b; break;
          case 3: r = a / (b * b + Var(1.0)); break;
          case 4: r = -a; break;
          case 5: r = a + Var(c); break;
          case 6: r = Var(c) - a; break;
          case 7: r = a * Var(0.5); break;
          case 8: r = Var(c) / (a * a + Var(1.5)); break;
          case 9: r = log(a * a + Var(0.5)); break;
          case 10: r = exp(a * Var(0.25)); break;
          case 11: r = sqrt(a * a + Var(0.25)); break;
          case 12: r = pow(a * a + Var(0.5), 1.3); break;
          case 13: r = max(a, b); break;
          case 14: r = min(a, b); break;
          default:
            r = relu(a - b) + max(a, Var(c)) + min(Var(c), b);
            break;
        }
        pool.push_back(r);
    }
    const size_t n = pool.size();
    std::vector<Var> w = ad::softmax(
            {pool[n - 1], pool[n - 2], pool[n - 3], pool[0]});
    Var out = ad::sum(w);
    for (const Var &p : pool)
        out = out + p * Var(0.01);
    return out;
}

/**
 * Lane-major leaf sets for `lanes` lanes: odd lanes are small
 * perturbations of the base point (so near-tie max/min/relu branches
 * flip between lanes), even lanes are fresh draws.
 */
std::vector<double>
drawLeafSets(Rng &rng, const std::vector<double> &base, size_t lanes)
{
    std::vector<double> sets(lanes * base.size());
    for (size_t l = 0; l < lanes; ++l)
        for (size_t k = 0; k < base.size(); ++k)
            sets[l * base.size() + k] =
                    l % 2 ? base[k] + rng.uniformReal(-0.05, 0.05)
                          : rng.uniformReal(-2.0, 2.0);
    return sets;
}

/**
 * The core differential property: for every lane width from 1 to
 * 3W+1, replayBatch must reproduce N independent replay calls and
 * gradientBatchInto N independent gradientInto sweeps, bit for bit,
 * on a randomly generated tape. Also pins the non-interference
 * contract: a batch sweep leaves the scalar replay state untouched.
 */
TEST(ReplayDiff, BatchMatchesScalarAcrossWidthsAndSeeds)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 7919);
        const size_t num_leaves = 3 + size_t(rng.uniformInt(0, 6));
        std::vector<double> base;
        for (size_t k = 0; k < num_leaves; ++k)
            base.push_back(rng.uniformReal(-2.0, 2.0));

        Tape tape;
        Var out = buildRandomProgram(tape, rng, base);
        const size_t n = tape.size();

        for (size_t lanes = 1; lanes <= 3 * kW + 1; ++lanes) {
            std::vector<double> sets = drawLeafSets(rng, base, lanes);

            // Scalar reference: one replay + sweep per lane.
            std::vector<std::vector<double>> ref_vals(lanes);
            std::vector<std::vector<double>> ref_adj(lanes);
            for (size_t l = 0; l < lanes; ++l) {
                tape.replay(std::span<const double>(
                        sets.data() + l * num_leaves, num_leaves));
                ref_vals[l].resize(n);
                for (size_t i = 0; i < n; ++i)
                    ref_vals[l][i] = tape.value(NodeId(i));
                tape.gradientInto(out.id(), ref_adj[l]);
            }

            const NodeId head[] = {out.id()};
            std::vector<double> gathered(lanes);
            tape.replayBatch(sets, head, gathered);
            ASSERT_EQ(tape.batchLanes(), lanes);
            std::vector<double> batch_adj;
            tape.gradientBatchInto(out.id(), batch_adj);

            size_t mismatches = 0;
            for (size_t l = 0; l < lanes; ++l) {
                if (!bitEq(gathered[l],
                        ref_vals[l][size_t(out.id())]))
                    ++mismatches;
                for (size_t i = 0; i < n; ++i) {
                    if (!bitEq(tape.batchValue(NodeId(i), l),
                            ref_vals[l][i]))
                        ++mismatches;
                    if (!bitEq(batch_adj[i * lanes + l],
                            ref_adj[l][i]))
                        ++mismatches;
                }
            }
            EXPECT_EQ(mismatches, 0u)
                    << "seed " << seed << " lanes " << lanes;

            // The batch sweep must not disturb the scalar state left
            // by the last replay (the final reference lane).
            for (size_t i = 0; i < n; ++i)
                ASSERT_TRUE(bitEq(tape.value(NodeId(i)),
                        ref_vals[lanes - 1][i]));
        }
    }
}

TEST(ReplayDiff, BranchesReselectPerLane)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    Var out = max(a, b) + min(a, b) * Var(2.0) + relu(a - b);
    // Lane 0: b wins the max; lane 1: a wins and the relu turns on.
    const std::vector<double> sets = {1.0, 2.0, 5.0, 2.0};
    const NodeId head[] = {out.id()};
    std::vector<double> vals(2);
    tape.replayBatch(sets, head, vals);
    EXPECT_DOUBLE_EQ(vals[0], 2.0 + 1.0 * 2.0 + 0.0);
    EXPECT_DOUBLE_EQ(vals[1], 5.0 + 2.0 * 2.0 + 3.0);
    std::vector<double> adj;
    tape.gradientBatchInto(out.id(), adj);
    const size_t ia = size_t(a.id()), ib = size_t(b.id());
    // Lane 0: d/da = min-path 2, d/db = max-path 1.
    EXPECT_DOUBLE_EQ(adj[ia * 2 + 0], 2.0);
    EXPECT_DOUBLE_EQ(adj[ib * 2 + 0], 1.0);
    // Lane 1: d/da = max 1 + relu 1 = 2, d/db = min 2 - relu 1 = 1.
    EXPECT_DOUBLE_EQ(adj[ia * 2 + 1], 2.0);
    EXPECT_DOUBLE_EQ(adj[ib * 2 + 1], 1.0);
}

TEST(ReplayDiff, EightThreadBatchHammerPerThreadTapes)
{
    // Thread-ownership rule: one tape per thread. Each thread builds
    // its own random program and hammers the batch path across many
    // widths, checking every lane against the scalar replay.
    constexpr int kThreads = 8;
    constexpr int kRounds = 25;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &failures] {
            Rng rng(4241 + uint64_t(t));
            const size_t num_leaves = 4;
            std::vector<double> base;
            for (size_t k = 0; k < num_leaves; ++k)
                base.push_back(rng.uniformReal(-2.0, 2.0));
            Tape tape;
            Var out = buildRandomProgram(tape, rng, base);
            const size_t n = tape.size();
            std::vector<double> adj, batch_adj;
            for (int r = 0; r < kRounds; ++r) {
                const size_t lanes =
                        1 + size_t(rng.uniformInt(0, 2 * int64_t(kW)));
                std::vector<double> sets =
                        drawLeafSets(rng, base, lanes);
                std::vector<std::vector<double>> ref_vals(lanes);
                std::vector<std::vector<double>> ref_adj(lanes);
                for (size_t l = 0; l < lanes; ++l) {
                    tape.replay(std::span<const double>(
                            sets.data() + l * num_leaves,
                            num_leaves));
                    ref_vals[l].resize(n);
                    for (size_t i = 0; i < n; ++i)
                        ref_vals[l][i] = tape.value(NodeId(i));
                    tape.gradientInto(out.id(), adj);
                    ref_adj[l] = adj;
                }
                const NodeId head[] = {out.id()};
                std::vector<double> gathered(lanes);
                tape.replayBatch(sets, head, gathered);
                tape.gradientBatchInto(out.id(), batch_adj);
                for (size_t l = 0; l < lanes; ++l)
                    for (size_t i = 0; i < n; ++i)
                        if (!bitEq(tape.batchValue(NodeId(i), l),
                                    ref_vals[l][i]) ||
                            !bitEq(batch_adj[i * lanes + l],
                                    ref_adj[l][i]))
                            ++failures[size_t(t)];
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[size_t(t)], 0) << "thread " << t;
}

// ---- Batch API robustness: every misuse fails loudly. -------------

TEST(ReplayDiffDeath, LeafSetSizeMismatchPanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    (void)(a + b);
    const NodeId head[] = {NodeId(2)};
    std::vector<double> out(2);
    // 3 doubles over 2 leaves: not a whole number of lanes.
    EXPECT_DEATH(tape.replayBatch(std::vector<double>{1.0, 2.0, 3.0},
                         head, out),
            "leaf set size mismatch");
}

TEST(ReplayDiffDeath, ZeroWidthBatchPanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    (void)(a + b);
    const NodeId head[] = {NodeId(2)};
    std::vector<double> out(1);
    EXPECT_DEATH(tape.replayBatch(std::vector<double>{}, head, out),
            "zero-width batch");
}

TEST(ReplayDiffDeath, OutputSpanTooSmallPanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    (void)(a + b);
    const NodeId head[] = {NodeId(2)};
    std::vector<double> out(1); // two lanes need two slots
    EXPECT_DEATH(tape.replayBatch(
                         std::vector<double>{1.0, 2.0, 3.0, 4.0},
                         head, out),
            "output span too small");
}

TEST(ReplayDiffDeath, GradientWithoutBatchStatePanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    Var c = a + b;
    std::vector<double> adj;
    EXPECT_DEATH(tape.gradientBatchInto(c.id(), adj),
            "no batch state");
}

TEST(ReplayDiffDeath, BatchOutputIdOutOfRangePanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    (void)(a + b);
    const NodeId head[] = {NodeId(99)};
    std::vector<double> out(1);
    EXPECT_DEATH(tape.replayBatch(std::vector<double>{1.0, 2.0}, head,
                         out),
            "output id out of range");
}

TEST(ReplayDiffDeath, EngineEmptyBatchPanics)
{
    std::vector<Layer> layers = {Layer::gemm("a", 8, 8, 8)};
    std::vector<OrderVec> orders = {uniformOrder(LoopOrder::WS)};
    ObjectiveEngine engine;
    std::vector<std::vector<double>> xs;
    EXPECT_DEATH(engine.evalBatch(layers, xs, orders,
                         OrderStrategy::Fixed, ObjectiveMode{}),
            "empty candidate batch");
}

// ---- ObjectiveEngine::evalBatch vs N scalar evals. ----------------

/** Perturbed descent candidates around the CoSA start of `layers`. */
std::vector<std::vector<double>>
descentCandidates(const std::vector<Layer> &layers, size_t count,
                  uint64_t seed)
{
    const HardwareConfig hw{16, 32, 128};
    std::vector<double> x0;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, hw));
        x0.insert(x0.end(), xl.begin(), xl.end());
    }
    Rng rng(seed);
    std::vector<std::vector<double>> xs(count, x0);
    for (size_t k = 1; k < count; ++k)
        for (double &v : xs[k])
            v += rng.uniformReal(-0.2, 0.2);
    return xs;
}

void
expectEvalBitwise(const ObjectiveEval &batch, const ObjectiveEval &ref)
{
    EXPECT_TRUE(bitEq(batch.loss, ref.loss));
    EXPECT_TRUE(bitEq(batch.energy_uj, ref.energy_uj));
    EXPECT_TRUE(bitEq(batch.latency, ref.latency));
    EXPECT_TRUE(bitEq(batch.penalty, ref.penalty));
    EXPECT_TRUE(bitEq(batch.edp, ref.edp));
    ASSERT_EQ(batch.grad.size(), ref.grad.size());
    size_t mismatches = 0;
    for (size_t i = 0; i < ref.grad.size(); ++i)
        if (!bitEq(batch.grad[i], ref.grad[i]))
            ++mismatches;
    EXPECT_EQ(mismatches, 0u);
}

TEST(ReplayDiff, EngineBatchMatchesScalarEvalFixed)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    std::vector<OrderVec> orders(layers.size(),
            uniformOrder(LoopOrder::WS));
    ObjectiveMode mode;
    for (size_t lanes : {size_t(1), size_t(3), kW, 2 * kW + 1}) {
        auto xs = descentCandidates(layers, lanes, 11 + lanes);
        ObjectiveEngine batch_engine;
        const std::vector<ObjectiveEval> &evs = batch_engine.evalBatch(
                layers, xs, orders, OrderStrategy::Fixed, mode);
        ASSERT_EQ(evs.size(), lanes);
        ObjectiveEngine ref_engine;
        for (size_t k = 0; k < lanes; ++k) {
            const ObjectiveEval &ref = ref_engine.eval(layers, xs[k],
                    orders, OrderStrategy::Fixed, mode);
            expectEvalBitwise(evs[k], ref);
        }
        EXPECT_EQ(batch_engine.batchSweeps(), 1u);
        EXPECT_EQ(batch_engine.batchCandidates(), lanes);
    }
}

TEST(ReplayDiff, EngineBatchMatchesScalarEvalSoftmax)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 2);
    ObjectiveMode mode;
    auto xs = descentCandidates(layers, 5, 23);
    ObjectiveEngine batch_engine;
    const std::vector<ObjectiveEval> &evs = batch_engine.evalBatch(
            layers, xs, {}, OrderStrategy::Softmax, mode);
    ObjectiveEngine ref_engine;
    for (size_t k = 0; k < xs.size(); ++k)
        expectEvalBitwise(evs[k], ref_engine.eval(layers, xs[k], {},
                OrderStrategy::Softmax, mode));
}

TEST(ReplayDiff, EngineBatchInterleavesWithScalarEval)
{
    // A batch sweep must not corrupt the scalar replay path (and vice
    // versa) when both are served by the same engine.
    std::vector<Layer> layers = {Layer::gemm("a", 64, 64, 64)};
    std::vector<OrderVec> orders = {uniformOrder(LoopOrder::WS)};
    ObjectiveMode mode;
    auto xs = descentCandidates(layers, 4, 31);

    ObjectiveEngine engine;
    ObjectiveEngine ref;
    const ObjectiveEval &s0 = engine.eval(layers, xs[1], orders,
            OrderStrategy::Fixed, mode);
    expectEvalBitwise(s0, ref.eval(layers, xs[1], orders,
            OrderStrategy::Fixed, mode));
    const std::vector<ObjectiveEval> &b = engine.evalBatch(layers, xs,
            orders, OrderStrategy::Fixed, mode);
    expectEvalBitwise(b[2], ref.eval(layers, xs[2], orders,
            OrderStrategy::Fixed, mode));
    const ObjectiveEval &s1 = engine.eval(layers, xs[3], orders,
            OrderStrategy::Fixed, mode);
    expectEvalBitwise(s1, ref.eval(layers, xs[3], orders,
            OrderStrategy::Fixed, mode));
    // One build total: the batch reused the scalar context.
    EXPECT_EQ(engine.builds(), 1u);
}

// ---- Surrogate bulk scorer vs its point path. ---------------------

TEST(ReplayDiff, PredictorBatchMatchesPointPredictions)
{
    SurrogateDataset ds = generateSurrogateDataset(24, 5);
    for (auto kind : {LatencyModelKind::DnnOnly,
                      LatencyModelKind::Combined}) {
        LatencyPredictor p =
                kind == LatencyModelKind::DnnOnly
                        ? LatencyPredictor::trainDnnOnly(ds, 3, 7)
                        : LatencyPredictor::trainCombined(ds, 3, 7);
        std::vector<LatencyQuery> queries(ds.size());
        for (size_t i = 0; i < ds.size(); ++i)
            queries[i] = {&ds.layers[i], &ds.mappings[i], &ds.hws[i]};
        std::vector<double> bulk(ds.size(), 0.0);
        p.predictBatch(queries, bulk);
        size_t mismatches = 0;
        for (size_t i = 0; i < ds.size(); ++i)
            if (!bitEq(bulk[i], p.predict(ds.layers[i],
                        ds.mappings[i], ds.hws[i])))
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << latencyModelName(kind);

        // The scorer seam serves the same numbers through both its
        // bulk and point entries.
        LatencyScorer scorer = p.scorer();
        std::vector<double> seam(ds.size(), 0.0);
        scorer.scoreDesigns(queries, seam);
        for (size_t i = 0; i < ds.size(); ++i)
            EXPECT_TRUE(bitEq(seam[i], bulk[i])) << i;
        EXPECT_TRUE(bitEq(scorer(ds.layers[0], ds.mappings[0],
                ds.hws[0]), bulk[0]));
    }
}

// ---- The scorer seam stays deterministic across jobs for the three
// ---- baseline searchers now routed through scoreDesigns. ----------

TEST(ReplayDiff, ScoredSearchersSerialEqualParallel)
{
    SurrogateDataset ds = generateSurrogateDataset(16, 9);
    LatencyPredictor pred = LatencyPredictor::trainCombined(ds, 2, 9);

    auto scored = [&](const char *algorithm, uint64_t seed) {
        SearchSpec spec;
        spec.algorithm = algorithm;
        spec.workload = {Layer::gemm("a", 64, 64, 128)};
        spec.seed = seed;
        spec.scorer = pred.scorer();
        return spec;
    };
    SearchSpec random = scored("random", 3);
    random.options.set("hw_designs", 3).set("mappings_per_hw", 12);
    SearchSpec mapper = scored("mapper", 17);
    mapper.options.set("samples", 16);
    SearchSpec bayesopt = scored("bayesopt", 21);
    bayesopt.options.set("warmup_samples", 4)
            .set("total_samples", 10)
            .set("hw_candidates", 2)
            .set("map_candidates", 3);
    SearchSpec dosa = scored("dosa", 7);
    dosa.options.set("start_points", 2)
            .set("steps_per_start", 12)
            .set("round_every", 6);

    for (SearchSpec spec : {random, mapper, bayesopt, dosa}) {
        spec.jobs = 1;
        SearchReport serial = runSearch(spec);
        spec.jobs = 4;
        SearchReport parallel = runSearch(spec);
        EXPECT_EQ(serial.search.trace, parallel.search.trace)
                << spec.algorithm;
        EXPECT_EQ(serial.search.best_edp, parallel.search.best_edp)
                << spec.algorithm;
    }
}

} // namespace
} // namespace dosa
