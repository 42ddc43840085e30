/**
 * @file
 * Differentiable scalar type recorded on a Tape.
 *
 * Var mirrors double arithmetic closely enough that the analytical
 * performance model (src/model) can be written once as a template and
 * instantiated for plain double (fast evaluation) or Var (gradient
 * descent). Mixing Vars from different tapes is a programming error and
 * panics.
 *
 * Shape invariance: the sequence of nodes an expression records
 * depends only on which operands are taped and on the values of the
 * detached constants, never on the taped values — data-dependent
 * selections (max/min/relu, the softmax shift) encode the chosen
 * branch in the node's partials, not in the graph structure. A
 * product with a detached exact 1 records no node; `ObjectiveEngine`
 * rebuilds whenever its context (layer dims, counts, orders, mode and
 * weights), and with it any detached constant, changes. This is what
 * makes Tape::replay sound: the recorded program at new leaf values
 * is exactly what a fresh build would record.
 */

#ifndef DOSA_AUTODIFF_VAR_HH
#define DOSA_AUTODIFF_VAR_HH

#include <vector>

#include "autodiff/tape.hh"

namespace dosa::ad {

/**
 * A scalar value tracked for reverse-mode differentiation.
 *
 * Default-constructed Vars are detached constants (no tape); any
 * arithmetic combining a detached constant with a taped Var records
 * the constant implicitly via a unary node.
 */
class Var
{
  public:
    /** Detached constant 0. */
    Var() : tape_(nullptr), id_(kNoParent), val_(0.0) {}

    /** Detached constant. */
    Var(double v) : tape_(nullptr), id_(kNoParent), val_(v) {}

    /** Leaf variable recorded on `tape`. */
    Var(Tape &tape, double v)
        : tape_(&tape), id_(tape.addLeaf(v)), val_(v)
    {}

    /** Numeric value. */
    double value() const { return val_; }

    /** Tape node id, or kNoParent for detached constants. */
    NodeId id() const { return id_; }

    /** The owning tape (nullptr for detached constants). */
    Tape *tape() const { return tape_; }

    Var operator-() const;
    Var &operator+=(const Var &o) { *this = *this + o; return *this; }
    Var &operator-=(const Var &o) { *this = *this - o; return *this; }
    Var &operator*=(const Var &o) { *this = *this * o; return *this; }
    Var &operator/=(const Var &o) { *this = *this / o; return *this; }

    friend Var operator+(const Var &a, const Var &b);
    friend Var operator-(const Var &a, const Var &b);
    friend Var operator*(const Var &a, const Var &b);
    friend Var operator/(const Var &a, const Var &b);

    friend Var log(const Var &a);
    friend Var exp(const Var &a);
    friend Var sqrt(const Var &a);
    friend Var pow(const Var &a, double e);
    /** max with subgradient to the larger operand (PyTorch semantics). */
    friend Var max(const Var &a, const Var &b);
    friend Var min(const Var &a, const Var &b);
    /** max(a, 0), the Eq. 18 penalty hinge. */
    friend Var relu(const Var &a);
    /**
     * 1 + clamp(f - 1, 0, 1) * (outer - 1), Eq 6's gated refetch
     * candidate: one Op::Ramp node when both operands are taped, else
     * the unfused max/min chain.
     */
    friend Var ramp(const Var &f, const Var &outer);
    /**
     * acc + relu(1 - f), one Eq 18 hinge added to a running sum: one
     * Op::HingeAcc node when both operands are taped, else the
     * unfused chain.
     */
    friend Var hingeAcc(const Var &acc, const Var &f);

  private:
    /** Push a node on `tape` and wrap it, valued by the tape. */
    static Var record(Tape *tape, Op op, NodeId p0, NodeId p1 = kNoParent,
                      double aux = 0.0);
    /**
     * Record a binary op on `tape`: `both` over two taped operands,
     * else `cr` (constant right) or `cl` (constant left) over the
     * taped one, the detached operand's value in aux.
     */
    static Var binary(Tape *tape, Op both, Op cr, Op cl, const Var &a,
                      const Var &b);

    Tape *tape_;
    NodeId id_;
    double val_;
};

/** Sum of a vector of Vars (binary-chain reduction). */
Var sum(const std::vector<Var> &xs);

/** Elementwise softmax of a vector of Vars. */
std::vector<Var> softmax(const std::vector<Var> &xs);

} // namespace dosa::ad

#endif // DOSA_AUTODIFF_VAR_HH
