/**
 * @file
 * Arena tape: SoA node storage, the one per-op valuation that push and
 * the fused replay pass run, and the backward gradient sweep.
 */
#include "autodiff/tape.hh"

#include <cmath>

#include "util/logging.hh"

namespace dosa::ad {

NodeId
Tape::addLeaf(double value)
{
    in_.push_back({Op::Leaf, kNoParent, kNoParent});
    w_.push_back({0.0, 0.0, 0.0});
    values_.push_back(value);
    NodeId id = static_cast<NodeId>(values_.size() - 1);
    leaves_.push_back(id);
    return id;
}

template <bool kFresh>
inline void
Tape::valueNode(const NodeIn &in, NodeW &w, double *v, size_t i)
{
    const double a = in.p0 >= 0 ? v[size_t(in.p0)] : 0.0;
    const double aux = w.aux;
    switch (in.op) {
      case Op::Leaf: // valued by addLeaf, and by replay before its pass
        break;
      case Op::Neg:
        v[i] = -a;
        if constexpr (kFresh)
            w.w0 = -1.0;
        break;
      case Op::Add:
        v[i] = a + v[size_t(in.p1)];
        if constexpr (kFresh) {
            w.w0 = 1.0;
            w.w1 = 1.0;
        }
        break;
      case Op::AddC:
        v[i] = a + aux;
        if constexpr (kFresh)
            w.w0 = 1.0;
        break;
      case Op::Sub:
        v[i] = a - v[size_t(in.p1)];
        if constexpr (kFresh) {
            w.w0 = 1.0;
            w.w1 = -1.0;
        }
        break;
      case Op::SubC:
        v[i] = a - aux;
        if constexpr (kFresh)
            w.w0 = 1.0;
        break;
      case Op::CSub:
        v[i] = aux - a;
        if constexpr (kFresh)
            w.w0 = -1.0;
        break;
      case Op::Mul: {
        double b = v[size_t(in.p1)];
        v[i] = a * b;
        w.w0 = b;
        w.w1 = a;
        break;
      }
      case Op::MulC:
        v[i] = a * aux;
        if constexpr (kFresh)
            w.w0 = aux;
        break;
      case Op::Div: {
        double b = v[size_t(in.p1)];
        v[i] = a / b;
        w.w0 = 1.0 / b;
        w.w1 = -a / (b * b);
        break;
      }
      case Op::DivC:
        v[i] = a / aux;
        if constexpr (kFresh)
            w.w0 = 1.0 / aux;
        break;
      case Op::CDiv:
        v[i] = aux / a;
        w.w0 = -aux / (a * a);
        break;
      case Op::Log:
        v[i] = std::log(a);
        w.w0 = 1.0 / a;
        break;
      case Op::Exp:
        v[i] = std::exp(a);
        w.w0 = v[i];
        break;
      case Op::Sqrt:
        v[i] = std::sqrt(a);
        w.w0 = 0.5 / v[i];
        break;
      case Op::Pow:
        v[i] = std::pow(a, aux);
        w.w0 = aux * std::pow(a, aux - 1.0);
        break;
      case Op::Max: {
        double b = v[size_t(in.p1)];
        bool first = a >= b;
        v[i] = first ? a : b;
        w.w0 = first ? 1.0 : 0.0;
        w.w1 = first ? 0.0 : 1.0;
        break;
      }
      case Op::MaxCL: {
        bool cwins = aux >= a;
        v[i] = cwins ? aux : a;
        w.w0 = cwins ? 0.0 : 1.0;
        break;
      }
      case Op::MaxCR: {
        bool pwins = a >= aux;
        v[i] = pwins ? a : aux;
        w.w0 = pwins ? 1.0 : 0.0;
        break;
      }
      case Op::Min: {
        double b = v[size_t(in.p1)];
        bool first = a <= b;
        v[i] = first ? a : b;
        w.w0 = first ? 1.0 : 0.0;
        w.w1 = first ? 0.0 : 1.0;
        break;
      }
      case Op::MinCL: {
        bool cwins = aux <= a;
        v[i] = cwins ? aux : a;
        w.w0 = cwins ? 0.0 : 1.0;
        break;
      }
      case Op::MinCR: {
        bool pwins = a <= aux;
        v[i] = pwins ? a : aux;
        w.w0 = pwins ? 1.0 : 0.0;
        break;
      }
      case Op::Relu: {
        bool on = a > 0.0;
        v[i] = on ? a : 0.0;
        w.w0 = on ? 1.0 : 0.0;
        break;
      }
      case Op::Ramp: {
        // The six-node chain's own expressions, ties included (Op).
        double s0 = a - 1.0;
        bool up = s0 >= 0.0;
        double s1 = up ? s0 : 0.0;
        bool below = s1 <= 1.0;
        double s2 = below ? s1 : 1.0;
        double s3 = v[size_t(in.p1)] - 1.0;
        v[i] = s2 * s3 + 1.0;
        w.w0 = up && below ? s3 : 0.0;
        w.w1 = s2;
        break;
      }
      case Op::HingeAcc: {
        double c = 1.0 - v[size_t(in.p1)];
        bool on = c > 0.0;
        v[i] = a + (on ? c : 0.0);
        if constexpr (kFresh)
            w.w0 = 1.0;
        w.w1 = on ? -1.0 : 0.0;
        break;
      }
    }
}

NodeId
Tape::push(Op op, NodeId p0, NodeId p1, double aux)
{
    const size_t i = values_.size();
    in_.push_back({op, p0, p1});
    w_.push_back({aux, 0.0, 0.0});
    values_.push_back(0.0);
    valueNode<true>(in_[i], w_[i], values_.data(), i);
    return static_cast<NodeId>(i);
}

void
Tape::replay(std::span<const double> leaf_values)
{
    if (leaf_values.size() != leaves_.size())
        panic("Tape::replay: leaf count mismatch");
    double *v = values_.data();
    for (size_t k = 0; k < leaf_values.size(); ++k)
        v[size_t(leaves_[k])] = leaf_values[k];
    // The push-time valuation, so a replay is bitwise-identical to a
    // fresh build of the same-shaped graph.
    const size_t n = values_.size();
    const NodeIn *in = in_.data();
    NodeW *w = w_.data();
    for (size_t i = 0; i < n; ++i)
        valueNode<false>(in[i], w[i], v, i);
}

void
Tape::gradientInto(NodeId output, std::vector<double> &adj) const
{
    if (output < 0 || static_cast<size_t>(output) >= values_.size())
        panic("Tape::gradientInto: output id out of range");
    adj.assign(values_.size(), 0.0);
    adj[static_cast<size_t>(output)] = 1.0;
    const NodeIn *in = in_.data();
    const NodeW *w = w_.data();
    double *a = adj.data();
    for (size_t ii = static_cast<size_t>(output) + 1; ii-- > 0;) {
        double g = a[ii];
        if (g == 0.0)
            continue;
        if (in[ii].p0 != kNoParent)
            a[size_t(in[ii].p0)] += g * w[ii].w0;
        if (in[ii].p1 != kNoParent)
            a[size_t(in[ii].p1)] += g * w[ii].w1;
    }
}

std::vector<double>
Tape::gradient(NodeId output) const
{
    std::vector<double> adj;
    gradientInto(output, adj);
    return adj;
}

void
Tape::reset()
{
    in_.clear();
    w_.clear();
    values_.clear();
    leaves_.clear();
}

void
Tape::reserve(size_t n)
{
    in_.reserve(n);
    w_.reserve(n);
    values_.reserve(n);
}

} // namespace dosa::ad
