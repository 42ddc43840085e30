/**
 * @file
 * Var arithmetic: each operation picks its node kind and operands and
 * pushes them on the tape, which values the node (Tape::push).
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
Var::record(Tape *tape, Op op, NodeId p0, NodeId p1, double aux)
{
    Var v;
    v.tape_ = tape;
    v.id_ = tape->push(op, p0, p1, aux);
    v.val_ = tape->value(v.id_);
    return v;
}

Var
Var::binary(Tape *tape, Op both, Op cr, Op cl, const Var &a, const Var &b)
{
    if (a.id_ != kNoParent && b.id_ != kNoParent)
        return record(tape, both, a.id_, b.id_);
    if (a.id_ != kNoParent)
        return record(tape, cr, a.id_, kNoParent, b.val_);
    return record(tape, cl, b.id_, kNoParent, a.val_);
}

Var
Var::operator-() const
{
    if (!tape_)
        return Var(-val_);
    return record(tape_, Op::Neg, id_);
}

Var
operator+(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ + b.val_);
    return Var::binary(t, Op::Add, Op::AddC, Op::AddC, a, b);
}

Var
operator-(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ - b.val_);
    return Var::binary(t, Op::Sub, Op::SubC, Op::CSub, a, b);
}

Var
operator*(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ * b.val_);
    // A detached exact 1 is the identity: record nothing (why replay
    // stays sound: var.hh, "Shape invariance").
    if (a.id_ == kNoParent && a.val_ == 1.0)
        return b;
    if (b.id_ == kNoParent && b.val_ == 1.0)
        return a;
    return Var::binary(t, Op::Mul, Op::MulC, Op::MulC, a, b);
}

Var
operator/(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ / b.val_);
    return Var::binary(t, Op::Div, Op::DivC, Op::CDiv, a, b);
}

Var
log(const Var &a)
{
    if (!a.tape_)
        return Var(std::log(a.val_));
    return Var::record(a.tape_, Op::Log, a.id_);
}

Var
exp(const Var &a)
{
    if (!a.tape_)
        return Var(std::exp(a.val_));
    return Var::record(a.tape_, Op::Exp, a.id_);
}

Var
sqrt(const Var &a)
{
    if (!a.tape_)
        return Var(std::sqrt(a.val_));
    return Var::record(a.tape_, Op::Sqrt, a.id_);
}

Var
pow(const Var &a, double e)
{
    if (!a.tape_)
        return Var(std::pow(a.val_, e));
    return Var::record(a.tape_, Op::Pow, a.id_, kNoParent, e);
}

Var
max(const Var &a, const Var &b)
{
    // Subgradient flows only to the larger operand (ties go to a),
    // matching torch.max backward behaviour closely enough for DSE.
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ >= b.val_ ? a.val_ : b.val_);
    return Var::binary(t, Op::Max, Op::MaxCR, Op::MaxCL, a, b);
}

Var
min(const Var &a, const Var &b)
{
    Tape *t = jointTape(a, b);
    if (!t)
        return Var(a.val_ <= b.val_ ? a.val_ : b.val_);
    return Var::binary(t, Op::Min, Op::MinCR, Op::MinCL, a, b);
}

Var
relu(const Var &a)
{
    // Hard zero with no gradient at/below 0, as in torch.relu.
    if (!a.tape_)
        return Var(a.val_ > 0.0 ? a.val_ : 0.0);
    return Var::record(a.tape_, Op::Relu, a.id_);
}

Var
ramp(const Var &f, const Var &outer)
{
    if (f.id_ == kNoParent || outer.id_ == kNoParent) {
        Var gate = min(max(f - Var(1.0), Var(0.0)), Var(1.0));
        return Var(1.0) + gate * (outer - Var(1.0));
    }
    return Var::record(jointTape(f, outer), Op::Ramp, f.id_, outer.id_);
}

Var
hingeAcc(const Var &acc, const Var &f)
{
    if (acc.id_ == kNoParent || f.id_ == kNoParent)
        return acc + relu(Var(1.0) - f);
    return Var::record(jointTape(acc, f), Op::HingeAcc, acc.id_, f.id_);
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
