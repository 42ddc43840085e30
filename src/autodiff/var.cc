/**
 * @file
 * Var arithmetic: each operation records its kind, parents and local partials on the tape.
 *
 * Every node carries a typed Op so Tape::replay can recompute values
 * and partials from new leaf values. For that to be sound the recorded
 * graph *shape* must not depend on leaf values, so data-dependent
 * selections (max/min with one constant operand) always record a node
 * — even when the constant wins — instead of collapsing to a detached
 * constant. The selected branch is encoded in the partials (weight 0
 * to the loser), which replay re-derives from the fresh values.
 */
#include "autodiff/var.hh"

#include <cmath>

#include "util/logging.hh"

namespace dosa::ad {

namespace {

/** Pick the shared tape of two operands; panic on a cross-tape mix. */
Tape *
jointTape(const Var &a, const Var &b)
{
    Tape *ta = a.tape();
    Tape *tb = b.tape();
    if (ta && tb && ta != tb)
        panic("ad::Var: operands recorded on different tapes");
    return ta ? ta : tb;
}

} // namespace

Var
Var::make(Tape *tape, NodeId id, double val)
{
    Var v;
    v.tape_ = tape;
    v.id_ = id;
    v.val_ = val;
    return v;
}

Var
Var::operator-() const
{
    if (!tape_)
        return Var(-val_);
    return make(tape_, tape_->addNode(Op::Neg, id_, kNoParent, 0.0,
            -val_, -1.0, 0.0), -val_);
}

Var
operator+(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    double v = a.val_ + b.val_;
    if (!t)
        return Var(v);
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Add, a.id_, b.id_, 0.0, v,
                1.0, 1.0), v);
    NodeId p = a.id_ != kNoParent ? a.id_ : b.id_;
    double c = a.id_ != kNoParent ? b.val_ : a.val_;
    return Var::make(t, t->addNode(Op::AddC, p, kNoParent, c, v,
            1.0, 0.0), v);
}

Var
operator-(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    double v = a.val_ - b.val_;
    if (!t)
        return Var(v);
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Sub, a.id_, b.id_, 0.0, v,
                1.0, -1.0), v);
    if (a.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::SubC, a.id_, kNoParent,
                b.val_, v, 1.0, 0.0), v);
    return Var::make(t, t->addNode(Op::CSub, b.id_, kNoParent, a.val_,
            v, -1.0, 0.0), v);
}

Var
operator*(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    double v = a.val_ * b.val_;
    if (!t)
        return Var(v);
    // A detached exact 1 is the identity: record nothing (why replay
    // stays sound: var.hh, "Shape invariance").
    if (a.id_ == kNoParent && a.val_ == 1.0)
        return b;
    if (b.id_ == kNoParent && b.val_ == 1.0)
        return a;
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Mul, a.id_, b.id_, 0.0, v,
                b.val_, a.val_), v);
    NodeId p = a.id_ != kNoParent ? a.id_ : b.id_;
    double c = a.id_ != kNoParent ? b.val_ : a.val_;
    return Var::make(t, t->addNode(Op::MulC, p, kNoParent, c, v,
            c, 0.0), v);
}

Var
operator/(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    double v = a.val_ / b.val_;
    if (!t)
        return Var(v);
    double da = 1.0 / b.val_;
    double db = -a.val_ / (b.val_ * b.val_);
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Div, a.id_, b.id_, 0.0, v,
                da, db), v);
    if (a.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::DivC, a.id_, kNoParent,
                b.val_, v, da, 0.0), v);
    return Var::make(t, t->addNode(Op::CDiv, b.id_, kNoParent, a.val_,
            v, db, 0.0), v);
}

Var
log(const Var &a)
{
    double v = std::log(a.val_);
    if (!a.tape_)
        return Var(v);
    return Var::make(a.tape_, a.tape_->addNode(Op::Log, a.id_,
            kNoParent, 0.0, v, 1.0 / a.val_, 0.0), v);
}

Var
exp(const Var &a)
{
    double v = std::exp(a.val_);
    if (!a.tape_)
        return Var(v);
    return Var::make(a.tape_, a.tape_->addNode(Op::Exp, a.id_,
            kNoParent, 0.0, v, v, 0.0), v);
}

Var
sqrt(const Var &a)
{
    double v = std::sqrt(a.val_);
    if (!a.tape_)
        return Var(v);
    return Var::make(a.tape_, a.tape_->addNode(Op::Sqrt, a.id_,
            kNoParent, 0.0, v, 0.5 / v, 0.0), v);
}

Var
pow(const Var &a, double e)
{
    double v = std::pow(a.val_, e);
    if (!a.tape_)
        return Var(v);
    double d = e * std::pow(a.val_, e - 1.0);
    return Var::make(a.tape_, a.tape_->addNode(Op::Pow, a.id_,
            kNoParent, e, v, d, 0.0), v);
}

Var
max(const Var &a, const Var &b)
{
    // Subgradient flows only to the larger operand (ties go to a),
    // matching torch.max backward behaviour closely enough for DSE.
    Tape *t = jointTape(a, b);
    bool first = a.val_ >= b.val_;
    double v = first ? a.val_ : b.val_;
    if (!t)
        return Var(v);
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Max, a.id_, b.id_, 0.0, v,
                first ? 1.0 : 0.0, first ? 0.0 : 1.0), v);
    if (a.id_ == kNoParent)
        return Var::make(t, t->addNode(Op::MaxCL, b.id_, kNoParent,
                a.val_, v, first ? 0.0 : 1.0, 0.0), v);
    return Var::make(t, t->addNode(Op::MaxCR, a.id_, kNoParent, b.val_,
            v, first ? 1.0 : 0.0, 0.0), v);
}

Var
min(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    bool first = a.val_ <= b.val_;
    double v = first ? a.val_ : b.val_;
    if (!t)
        return Var(v);
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return Var::make(t, t->addNode(Op::Min, a.id_, b.id_, 0.0, v,
                first ? 1.0 : 0.0, first ? 0.0 : 1.0), v);
    if (a.id_ == kNoParent)
        return Var::make(t, t->addNode(Op::MinCL, b.id_, kNoParent,
                a.val_, v, first ? 0.0 : 1.0, 0.0), v);
    return Var::make(t, t->addNode(Op::MinCR, a.id_, kNoParent, b.val_,
            v, first ? 1.0 : 0.0, 0.0), v);
}

Var
relu(const Var &a)
{
    // Hard zero with no gradient at/below 0, as in torch.relu.
    bool on = a.val_ > 0.0;
    double v = on ? a.val_ : 0.0;
    if (!a.tape_)
        return Var(v);
    return Var::make(a.tape_, a.tape_->addNode(Op::Relu, a.id_,
            kNoParent, 0.0, v, on ? 1.0 : 0.0, 0.0), v);
}

Var
ramp(const Var &f, const Var &outer)
{
    if (f.id_ == kNoParent || outer.id_ == kNoParent) {
        Var gate = min(max(f - Var(1.0), Var(0.0)), Var(1.0));
        return Var(1.0) + gate * (outer - Var(1.0));
    }
    // The chain's own expressions, so the bits match it (tape.hh).
    Tape *t = jointTape(f, outer);
    double s0 = f.val_ - 1.0;
    bool up = s0 >= 0.0;
    double s1 = up ? s0 : 0.0;
    bool below = s1 <= 1.0;
    double s2 = below ? s1 : 1.0;
    double s3 = outer.val_ - 1.0;
    double v = s2 * s3 + 1.0;
    return Var::make(t, t->addNode(Op::Ramp, f.id_, outer.id_, 0.0, v,
            up && below ? s3 : 0.0, s2), v);
}

Var
hingeAcc(const Var &acc, const Var &f)
{
    if (acc.id_ == kNoParent || f.id_ == kNoParent)
        return acc + relu(Var(1.0) - f);
    Tape *t = jointTape(acc, f);
    double c = 1.0 - f.val_;
    bool on = c > 0.0;
    double v = acc.val_ + (on ? c : 0.0);
    return Var::make(t, t->addNode(Op::HingeAcc, acc.id_, f.id_, 0.0, v,
            1.0, on ? -1.0 : 0.0), v);
}

Var
sum(const std::vector<Var> &xs)
{
    Var acc(0.0);
    for (const Var &x : xs)
        acc = acc + x;
    return acc;
}

std::vector<Var>
softmax(const std::vector<Var> &xs)
{
    if (xs.empty())
        return {};
    // Standard max-shift for numerical stability. The shift is kept
    // on the tape (its gradient contribution cancels analytically) so
    // the graph shape — and hence a Tape::replay — stays valid when
    // the argmax moves between descent steps.
    Var shift = xs[0];
    for (const Var &x : xs)
        shift = max(shift, x);
    std::vector<Var> es;
    es.reserve(xs.size());
    for (const Var &x : xs)
        es.push_back(exp(x - shift));
    Var denom = sum(es);
    std::vector<Var> out;
    out.reserve(xs.size());
    for (const Var &e : es)
        out.push_back(e / denom);
    return out;
}

} // namespace dosa::ad
