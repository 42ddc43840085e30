/**
 * @file
 * Unit and property tests for the reverse-mode autodiff engine:
 * every primitive checked against central finite differences, plus
 * composite expressions representative of the performance model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "autodiff/tape.hh"
#include "autodiff/var.hh"
#include "util/rng.hh"

namespace dosa {
namespace {

using ad::Tape;
using ad::NodeId;
using ad::Var;

/** Central finite difference of f at x. */
double
fdiff(const std::function<double(double)> &f, double x, double h = 1e-6)
{
    return (f(x + h) - f(x - h)) / (2.0 * h);
}

/** AD gradient of a unary expression builder at x. */
double
adGrad(const std::function<Var(Var)> &build, double x)
{
    Tape tape;
    Var v(tape, x);
    Var out = build(v);
    auto adj = tape.gradient(out.id());
    return adj[size_t(v.id())];
}

struct UnaryCase
{
    const char *name;
    std::function<Var(Var)> build;
    std::function<double(double)> eval;
    std::vector<double> points;
};

class UnaryGradient : public ::testing::TestWithParam<int>
{
  public:
    static std::vector<UnaryCase> cases();
};

std::vector<UnaryCase>
UnaryGradient::cases()
{
    return {
        {"negate", [](Var v) { return -v; },
         [](double x) { return -x; }, {-3.0, 0.5, 2.0}},
        {"add_const", [](Var v) { return v + Var(3.0); },
         [](double x) { return x + 3.0; }, {-1.0, 0.0, 4.0}},
        {"sub_const", [](Var v) { return Var(3.0) - v; },
         [](double x) { return 3.0 - x; }, {-1.0, 2.0}},
        {"mul_const", [](Var v) { return v * Var(2.5); },
         [](double x) { return x * 2.5; }, {-2.0, 1.0}},
        {"div_by_var", [](Var v) { return Var(6.0) / v; },
         [](double x) { return 6.0 / x; }, {0.5, 2.0, 4.0}},
        {"log", [](Var v) { return log(v); },
         [](double x) { return std::log(x); }, {0.25, 1.0, 9.0}},
        {"exp", [](Var v) { return exp(v); },
         [](double x) { return std::exp(x); }, {-2.0, 0.0, 1.5}},
        {"sqrt", [](Var v) { return sqrt(v); },
         [](double x) { return std::sqrt(x); }, {0.25, 4.0, 100.0}},
        {"pow2.5", [](Var v) { return pow(v, 2.5); },
         [](double x) { return std::pow(x, 2.5); }, {0.5, 2.0}},
        {"relu_pos", [](Var v) { return relu(v); },
         [](double x) { return x > 0 ? x : 0.0; }, {0.5, 3.0}},
        {"square", [](Var v) { return v * v; },
         [](double x) { return x * x; }, {-2.0, 0.5, 3.0}},
        {"rational", [](Var v) { return (v + Var(1.0)) / (v * v); },
         [](double x) { return (x + 1.0) / (x * x); }, {0.5, 2.0}},
        {"logsumexp-ish",
         [](Var v) { return log(exp(v) + Var(1.0)); },
         [](double x) { return std::log(std::exp(x) + 1.0); },
         {-1.0, 0.0, 2.0}},
        {"var_minus_const", [](Var v) { return v - Var(3.0); },
         [](double x) { return x - 3.0; }, {-1.0, 2.0}},
        {"div_by_const", [](Var v) { return v / Var(4.0); },
         [](double x) { return x / 4.0; }, {-2.0, 0.5, 3.0}},
    };
}

TEST_P(UnaryGradient, MatchesFiniteDifference)
{
    UnaryCase c = cases()[size_t(GetParam())];
    for (double x : c.points) {
        double g_ad = adGrad(c.build, x);
        double g_fd = fdiff(c.eval, x);
        EXPECT_NEAR(g_ad, g_fd, 1e-4 * std::max(1.0, std::abs(g_fd)))
                << c.name << " at x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, UnaryGradient,
        ::testing::Range(0, 15));

TEST(Autodiff, BinaryOpsBothSides)
{
    Tape tape;
    Var a(tape, 3.0), b(tape, 4.0);
    Var out = a * b + a / b - b;
    auto adj = tape.gradient(out.id());
    // d/da = b + 1/b = 4.25; d/db = a - a/b^2 - 1 = 3 - 3/16 - 1.
    EXPECT_NEAR(adj[size_t(a.id())], 4.25, 1e-12);
    EXPECT_NEAR(adj[size_t(b.id())], 2.0 - 3.0 / 16.0, 1e-12);
}

TEST(Autodiff, FanOutAccumulates)
{
    Tape tape;
    Var x(tape, 2.0);
    Var out = x * x * x; // x^3, via two multiplications
    auto adj = tape.gradient(out.id());
    EXPECT_NEAR(adj[size_t(x.id())], 12.0, 1e-12);
}

TEST(Autodiff, MaxRoutesToLargerOperand)
{
    Tape tape;
    Var a(tape, 3.0), b(tape, 5.0);
    Var out = max(a, b) * Var(2.0);
    auto adj = tape.gradient(out.id());
    EXPECT_DOUBLE_EQ(adj[size_t(a.id())], 0.0);
    EXPECT_DOUBLE_EQ(adj[size_t(b.id())], 2.0);
    EXPECT_DOUBLE_EQ(out.value(), 10.0);
}

TEST(Autodiff, MinRoutesToSmallerOperand)
{
    Tape tape;
    Var a(tape, 3.0), b(tape, 5.0);
    Var out = min(a, b);
    auto adj = tape.gradient(out.id());
    EXPECT_DOUBLE_EQ(adj[size_t(a.id())], 1.0);
    EXPECT_DOUBLE_EQ(adj[size_t(b.id())], 0.0);
}

TEST(Autodiff, ReluBelowZeroKillsGradient)
{
    Tape tape;
    Var x(tape, -1.0);
    Var out = relu(x);
    auto adj = tape.gradient(out.id());
    EXPECT_DOUBLE_EQ(out.value(), 0.0);
    EXPECT_DOUBLE_EQ(adj[size_t(x.id())], 0.0);
}

TEST(Autodiff, TimesDetachedOneRecordsNoNode)
{
    Tape tape;
    Var x(tape, 2.5);
    const size_t nodes = tape.size();
    Var right = x * Var(1.0);
    Var left = Var(1.0) * x;
    EXPECT_EQ(tape.size(), nodes);
    EXPECT_EQ(right.id(), x.id());
    EXPECT_EQ(left.id(), x.id());
    EXPECT_EQ(right.value(), 2.5);
    // Any other detached factor still records a MulC.
    (void)(x * Var(-1.0));
    EXPECT_EQ(tape.size(), nodes + 1);
}

TEST(Autodiff, DetachedConstantsNeedNoTape)
{
    Var a(2.0), b(3.0);
    Var c = a * b + exp(a) - log(b);
    EXPECT_NEAR(c.value(), 6.0 + std::exp(2.0) - std::log(3.0), 1e-12);
    EXPECT_EQ(c.tape(), nullptr);
}

TEST(Autodiff, SumOfVector)
{
    Tape tape;
    std::vector<Var> xs;
    for (int i = 1; i <= 5; ++i)
        xs.emplace_back(tape, static_cast<double>(i));
    Var s = ad::sum(xs);
    EXPECT_DOUBLE_EQ(s.value(), 15.0);
    auto adj = tape.gradient(s.id());
    for (const Var &x : xs)
        EXPECT_DOUBLE_EQ(adj[size_t(x.id())], 1.0);
}

TEST(Autodiff, SoftmaxSumsToOneAndGradChecks)
{
    Tape tape;
    std::vector<Var> xs = {Var(tape, 0.3), Var(tape, -1.2),
                           Var(tape, 2.0)};
    auto w = ad::softmax(xs);
    double total = 0.0;
    for (const Var &wi : w)
        total += wi.value();
    EXPECT_NEAR(total, 1.0, 1e-12);

    // Gradient of w[0] wrt x[0] equals w0*(1-w0).
    auto adj = tape.gradient(w[0].id());
    double w0 = w[0].value();
    EXPECT_NEAR(adj[size_t(xs[0].id())], w0 * (1.0 - w0), 1e-9);
    // Gradient of w[0] wrt x[2] equals -w0*w2.
    EXPECT_NEAR(adj[size_t(xs[2].id())], -w0 * w[2].value(), 1e-9);
}

TEST(Autodiff, MultivariateChainFiniteDifference)
{
    // f(a, b, c) = log(a*b + exp(c)) * max(a, c) — representative of
    // the nested products/maxes in the performance model.
    auto feval = [](double a, double b, double c) {
        return std::log(a * b + std::exp(c)) * std::max(a, c);
    };
    double a0 = 2.0, b0 = 3.0, c0 = 1.0;
    Tape tape;
    Var a(tape, a0), b(tape, b0), c(tape, c0);
    Var out = log(a * b + exp(c)) * max(a, c);
    auto adj = tape.gradient(out.id());
    double h = 1e-6;
    EXPECT_NEAR(adj[size_t(a.id())],
            (feval(a0 + h, b0, c0) - feval(a0 - h, b0, c0)) / (2 * h),
            1e-5);
    EXPECT_NEAR(adj[size_t(b.id())],
            (feval(a0, b0 + h, c0) - feval(a0, b0 - h, c0)) / (2 * h),
            1e-5);
    EXPECT_NEAR(adj[size_t(c.id())],
            (feval(a0, b0, c0 + h) - feval(a0, b0, c0 - h)) / (2 * h),
            1e-5);
}

TEST(Autodiff, RandomDeepExpressions)
{
    // Random chains of smooth ops, gradient-checked at the leaf.
    Rng rng(31);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<int> ops;
        for (int i = 0; i < 8; ++i)
            ops.push_back(static_cast<int>(rng.uniformInt(0, 3)));
        double x0 = rng.uniformReal(0.5, 2.0);
        auto build = [&](auto self, Var v, size_t depth) -> Var {
            if (depth == ops.size())
                return v;
            switch (ops[depth]) {
              case 0: return self(self, v * v + Var(1.0), depth + 1);
              case 1: return self(self, log(v + Var(2.0)), depth + 1);
              case 2: return self(self, exp(v * Var(0.3)), depth + 1);
              default: return self(self, Var(5.0) / (v + Var(1.0)),
                                   depth + 1);
            }
        };
        auto evald = [&](double x) {
            Var v(x);
            return build(build, v, 0).value();
        };
        Tape tape;
        Var v(tape, x0);
        Var out = build(build, v, 0);
        auto adj = tape.gradient(out.id());
        double fd = fdiff(evald, x0, 1e-7);
        EXPECT_NEAR(adj[size_t(v.id())], fd,
                1e-3 * std::max(1.0, std::abs(fd)))
                << "trial " << trial;
    }
}

/** Bitwise double equality (distinguishes +0.0 / -0.0). */
bool
bitEq(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/**
 * An expression exercising every tape op kind, including the
 * value-dependent max/min/relu selections and a softmax (whose
 * internal shift re-selects its argmax on replay). Returns the output
 * Var; shape is identical for any leaf values.
 */
Var
buildAllOps(Tape &tape, const std::vector<double> &xs,
            std::vector<Var> &leaves)
{
    leaves.clear();
    for (double v : xs)
        leaves.emplace_back(tape, v);
    const Var &a = leaves[0], &b = leaves[1], &c = leaves[2];
    const Var &d = leaves[3];
    Var t = -a + b - c * d / (a + Var(3.0));
    t = t + (Var(2.0) - b) + b * Var(0.5) + Var(1.5) / (c + Var(4.0));
    t = t + (d - Var(0.25)) / Var(8.0);     // SubC, DivC
    t = t + log(a + Var(5.0)) + exp(b * Var(0.1)) +
        sqrt(c + Var(6.0)) + pow(d + Var(7.0), 1.3);
    t = t + max(a, b) + min(c, d);          // both-taped selections
    t = t + max(a, Var(0.7)) + max(Var(0.7), b); // const-right / left
    t = t + min(c, Var(0.2)) + min(Var(0.2), d);
    t = t + relu(a - b) + relu(b - a);      // one side always off
    // Fused nodes: x0 puts the ramps' f at 1 and 2 (both clamp
    // edges) and 1.5, x1 at 2.5, -1 and 3; the second hinge is off at
    // x0 and on at x1, the first at its kink (1 - f == 0) at x0.
    t = t + ramp(a, c + Var(2.0)) + ramp(b, d) + ramp(a + Var(0.5), b);
    t = hingeAcc(hingeAcc(t, a), b);
    std::vector<Var> w = ad::softmax({a, b, c, d});
    t = t + w[0] * Var(1.0) + w[1] * Var(2.0) + w[2] * Var(3.0) +
        w[3] * Var(4.0);
    t = t + ad::sum(w);
    return t;
}

/**
 * The arena contract: replay at new leaf values must be
 * bitwise-identical — values and full adjoint vector — to building a
 * fresh tape at those values, even when max/min/relu branches and the
 * softmax argmax flip between the two points.
 */
TEST(TapeReplay, BitwiseEqualsFreshBuild)
{
    // x1 inverts the order of every pair so all selections flip.
    std::vector<double> x0 = {1.0, 2.0, -0.5, 0.8};
    std::vector<double> x1 = {2.5, -1.0, 0.9, -0.3};

    Tape reused;
    std::vector<Var> leaves;
    Var out0 = buildAllOps(reused, x0, leaves);
    std::vector<double> adj0 = reused.gradient(out0.id());

    // Replay the same graph at x1...
    reused.replay(x1);
    std::vector<double> adj_replay;
    reused.gradientInto(out0.id(), adj_replay);

    // ...and compare against a from-scratch build at x1.
    Tape fresh;
    std::vector<Var> leaves1;
    Var out1 = buildAllOps(fresh, x1, leaves1);
    std::vector<double> adj_fresh = fresh.gradient(out1.id());

    ASSERT_EQ(reused.size(), fresh.size());
    ASSERT_EQ(out0.id(), out1.id());
    for (size_t i = 0; i < fresh.size(); ++i)
        EXPECT_TRUE(bitEq(reused.value(NodeId(i)),
                fresh.value(NodeId(i))))
                << "value mismatch at node " << i;
    ASSERT_EQ(adj_replay.size(), adj_fresh.size());
    for (size_t i = 0; i < adj_fresh.size(); ++i)
        EXPECT_TRUE(bitEq(adj_replay[i], adj_fresh[i]))
                << "adjoint mismatch at node " << i;

    // Replaying back at x0 restores the original state exactly.
    reused.replay(x0);
    std::vector<double> adj_back;
    reused.gradientInto(out0.id(), adj_back);
    for (size_t i = 0; i < adj0.size(); ++i)
        EXPECT_TRUE(bitEq(adj_back[i], adj0[i]));
}

/** The node chain Op::Ramp replaces, recorded op by op. */
Var
rampChain(const Var &f, const Var &outer)
{
    Var gate = min(max(f - Var(1.0), Var(0.0)), Var(1.0));
    return Var(1.0) + gate * (outer - Var(1.0));
}

/** The node chain Op::HingeAcc replaces, recorded op by op. */
Var
hingeChain(const Var &acc, const Var &f)
{
    return acc + relu(Var(1.0) - f);
}

/**
 * An expression over leaves (f, outer, k) in which both fused nodes'
 * parents also feed other nodes before and after them, so every
 * parent's adjoint is a sum whose order the fusion must keep. `Fused`
 * picks ramp/hingeAcc or the chains.
 */
template <bool Fused>
Var
buildFusedUse(Tape &tape, double f_val, double outer_val,
              std::vector<Var> &leaves)
{
    leaves = {Var(tape, f_val), Var(tape, outer_val), Var(tape, 0.7)};
    const Var &f = leaves[0], &outer = leaves[1], &k = leaves[2];
    // One recording operand per statement, so both tapes record the
    // shared nodes in the same order.
    Var acc = f * k;
    acc = acc + outer * Var(3.0);
    Var r = Fused ? ramp(f, outer) : rampChain(f, outer);
    Var h = Fused ? hingeAcc(acc, f) : hingeChain(acc, f);
    h = Fused ? hingeAcc(h, outer) : hingeChain(h, outer);
    Var out = r * h;
    out = out + f * outer;
    out = out + exp(f * Var(0.3)) / outer;
    return out + r * k;
}

/**
 * Each fused node against the chain it replaces: the output value and
 * every leaf adjoint are bit-equal, whether the fused tape was just
 * built or replayed, over a grid through the ramp's clamp edges
 * (f = 1, f = 2), outer = 1 and the hinges' kinks (f = 1, outer = 1).
 */
TEST(FusedNodes, BitEqualToTheChainsTheyReplace)
{
    const double fs[] = {-0.5, 0.0, 0.5, 1.0, 1.25, 2.0, 2.5, 6.0};
    const double outers[] = {0.25, 1.0, 1.5, 3.0, 40.0};
    Tape replayed;
    std::vector<Var> replayed_leaves;
    Var replayed_out =
            buildFusedUse<true>(replayed, fs[0], outers[0], replayed_leaves);
    std::vector<double> adj;
    for (double f : fs) {
        for (double outer : outers) {
            Tape chain, fused;
            std::vector<Var> chain_leaves, fused_leaves;
            Var chain_out = buildFusedUse<false>(chain, f, outer, chain_leaves);
            Var fused_out = buildFusedUse<true>(fused, f, outer, fused_leaves);
            ASSERT_LT(fused.size(), chain.size());
            replayed.replay(std::vector<double>{f, outer, 0.7});
            EXPECT_TRUE(bitEq(fused_out.value(), chain_out.value()))
                    << "f=" << f << " outer=" << outer;
            EXPECT_TRUE(bitEq(replayed.value(replayed_out.id()),
                    chain_out.value()))
                    << "f=" << f << " outer=" << outer;
            const std::vector<double> adj_chain =
                    chain.gradient(chain_out.id());
            const std::vector<double> adj_fused =
                    fused.gradient(fused_out.id());
            replayed.gradientInto(replayed_out.id(), adj);
            for (size_t li = 0; li < chain_leaves.size(); ++li) {
                const double want = adj_chain[size_t(chain_leaves[li].id())];
                EXPECT_TRUE(bitEq(adj_fused[size_t(fused_leaves[li].id())],
                        want))
                        << "leaf " << li << " f=" << f << " outer=" << outer;
                EXPECT_TRUE(bitEq(adj[size_t(replayed_leaves[li].id())],
                        want))
                        << "leaf " << li << " f=" << f << " outer=" << outer;
            }
        }
    }
}

/** A detached operand records the chain, not a fused node. */
TEST(FusedNodes, DetachedOperandRecordsTheChain)
{
    for (bool f_taped : {false, true}) {
        Tape fused, chain;
        Var f_fused = f_taped ? Var(fused, 1.5) : Var(1.5);
        Var o_fused = f_taped ? Var(2.0) : Var(fused, 2.0);
        Var f_chain = f_taped ? Var(chain, 1.5) : Var(1.5);
        Var o_chain = f_taped ? Var(2.0) : Var(chain, 2.0);
        Var r = ramp(f_fused, o_fused);
        Var h = hingeAcc(o_fused, f_fused);
        Var rc = rampChain(f_chain, o_chain);
        Var hc = hingeChain(o_chain, f_chain);
        EXPECT_EQ(fused.size(), chain.size());
        EXPECT_TRUE(bitEq(r.value(), rc.value()));
        EXPECT_TRUE(bitEq(h.value(), hc.value()));
    }
    EXPECT_TRUE(bitEq(ramp(Var(1.5), Var(2.0)).value(), 1.5));
    EXPECT_EQ(ramp(Var(1.5), Var(2.0)).tape(), nullptr);
}

TEST(TapeReplay, BranchFlipReroutesGradient)
{
    Tape tape;
    Var a(tape, 3.0), b(tape, 5.0);
    Var out = max(a, b);
    std::vector<double> adj;
    tape.gradientInto(out.id(), adj);
    EXPECT_DOUBLE_EQ(adj[size_t(a.id())], 0.0);
    EXPECT_DOUBLE_EQ(adj[size_t(b.id())], 1.0);

    tape.replay(std::vector<double>{6.0, 1.0});
    EXPECT_DOUBLE_EQ(tape.value(out.id()), 6.0);
    tape.gradientInto(out.id(), adj);
    EXPECT_DOUBLE_EQ(adj[size_t(a.id())], 1.0);
    EXPECT_DOUBLE_EQ(adj[size_t(b.id())], 0.0);
}

TEST(TapeReplay, ReluFlipOnReplay)
{
    Tape tape;
    Var x(tape, -2.0);
    Var out = relu(x);
    EXPECT_DOUBLE_EQ(out.value(), 0.0);
    tape.replay(std::vector<double>{4.0});
    EXPECT_DOUBLE_EQ(tape.value(out.id()), 4.0);
    std::vector<double> adj;
    tape.gradientInto(out.id(), adj);
    EXPECT_DOUBLE_EQ(adj[size_t(x.id())], 1.0);
}

TEST(TapeReplay, LeafCountMismatchPanics)
{
    Tape tape;
    Var a(tape, 1.0), b(tape, 2.0);
    (void)(a + b);
    EXPECT_DEATH(tape.replay(std::vector<double>{1.0}),
            "leaf count mismatch");
}

TEST(TapeReset, ArenaRebuildReproducesIds)
{
    Tape tape;
    std::vector<Var> leaves;
    Var out0 = buildAllOps(tape, {1.0, 2.0, 3.0, 4.0}, leaves);
    size_t nodes = tape.size();
    double v0 = out0.value();

    // reset() drops the program but keeps the arena; an identical
    // rebuild lands on identical ids and values.
    tape.reset();
    EXPECT_EQ(tape.size(), 0u);
    EXPECT_EQ(tape.numLeaves(), 0u);
    Var out1 = buildAllOps(tape, {1.0, 2.0, 3.0, 4.0}, leaves);
    EXPECT_EQ(tape.size(), nodes);
    EXPECT_EQ(out1.id(), out0.id());
    EXPECT_TRUE(bitEq(out1.value(), v0));
}

TEST(TapeReplay, EightThreadHammerPerThreadTapes)
{
    // Thread-ownership rule: one tape per thread. Each thread builds
    // its own graph, then replays it across many leaf assignments,
    // checking every round against a fresh single-use tape.
    constexpr int kThreads = 8;
    constexpr int kRounds = 50;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &failures] {
            Rng rng(977 + uint64_t(t));
            auto draw = [&] {
                std::vector<double> x;
                for (int i = 0; i < 4; ++i)
                    x.push_back(rng.uniformReal(-3.0, 3.0));
                return x;
            };
            Tape arena;
            std::vector<Var> leaves;
            Var out = buildAllOps(arena, draw(), leaves);
            std::vector<double> adj_arena, adj_fresh;
            for (int r = 0; r < kRounds; ++r) {
                std::vector<double> x = draw();
                arena.replay(x);
                arena.gradientInto(out.id(), adj_arena);

                Tape fresh;
                std::vector<Var> fl;
                Var fout = buildAllOps(fresh, x, fl);
                fresh.gradientInto(fout.id(), adj_fresh);

                if (adj_arena.size() != adj_fresh.size()) {
                    ++failures[size_t(t)];
                    continue;
                }
                for (size_t i = 0; i < adj_fresh.size(); ++i)
                    if (!bitEq(adj_arena[i], adj_fresh[i]) ||
                        !bitEq(arena.value(NodeId(i)),
                               fresh.value(NodeId(i))))
                        ++failures[size_t(t)];
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[size_t(t)], 0) << "thread " << t;
}

TEST(Tape, ClearAndReserve)
{
    Tape tape;
    tape.reserve(128);
    Var a(tape, 1.0);
    Var b = a + Var(1.0);
    (void)b;
    EXPECT_GE(tape.size(), 2u);
    tape.reset();
    EXPECT_EQ(tape.size(), 0u);
}

TEST(Tape, GradientOfLeafIsOne)
{
    Tape tape;
    Var a(tape, 7.0);
    auto adj = tape.gradient(a.id());
    EXPECT_DOUBLE_EQ(adj[size_t(a.id())], 1.0);
}

} // namespace
} // namespace dosa
