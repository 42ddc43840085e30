/**
 * @file
 * Reverse-mode automatic differentiation tape with arena reuse.
 *
 * The paper implements its differentiable performance model with PyTorch
 * autograd; this is the equivalent substrate built from scratch. Each
 * arithmetic operation pushes a node recording its operation kind, (up
 * to two) parents and any detached constant; the tape values the node
 * and its local partial derivatives, and a single reverse sweep then
 * yields the gradient of one scalar output with respect to every leaf.
 *
 * Unlike PyTorch, this engine exploits a DOSA-specific invariant: for a
 * fixed (layers, orders, strategy, mode) context the objective graph has
 * an identical *shape* every descent step — only the leaf values change.
 * The tape therefore supports three lifecycle modes:
 *
 *  - build:  `push` nodes (via Var arithmetic), structure-of-arrays
 *            storage, `reserve()`d once and reused;
 *  - replay: `replay(leaf_values)` re-runs the recorded program in one
 *            fused forward pass, recomputing every node value *and*
 *            every local partial (data-dependent max/min/relu branches
 *            re-select from the new values). `push` and `replay` run
 *            the one per-op valuation, so a replay is
 *            bitwise-identical to a fresh build of the same expression
 *            at the new leaves;
 *  - sweep:  `gradientInto()` reverse-sweeps into a caller-owned
 *            adjoint buffer, so steady-state descent steps allocate
 *            nothing.
 *
 * `replay` is the only interpreter: a caller that values several leaf
 * assignments (`ObjectiveEngine::evalBatch`) replays once per
 * assignment.
 *
 * `reset()` clears the tape without releasing capacity, making arena
 * reuse across descent steps free. A Tape is single-owner state: it may
 * only be touched by one thread at a time (each searcher start point
 * owns its tape).
 */

#ifndef DOSA_AUTODIFF_TAPE_HH
#define DOSA_AUTODIFF_TAPE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dosa::ad {

/** Index of a node on the tape. */
using NodeId = int32_t;

/** Sentinel for "no parent". */
constexpr NodeId kNoParent = -1;

/**
 * Node operation kinds. `C` marks an untaped (constant) operand folded
 * into the node's `aux` slot; `CL`/`CR` distinguish which side the
 * constant sat on where the semantics differ (tie-breaking of max/min
 * follows the left operand, matching torch.max). The tape values a
 * node from its kind, parents and `aux` alone, at push and at replay.
 *
 * `Ramp` (Eq 6's gated refetch candidate, six nodes: SubC, MaxCR,
 * MinCR, SubC, Mul, AddC) and `HingeAcc` (one Eq 18 hinge added to a
 * running sum, three nodes: CSub, Relu, Add) are fused kinds: one
 * node stands for a chain the objective records many times per
 * layer, valued with the chain's own expressions, ties included, so
 * values and adjoints are bit-identical to the chain's for finite
 * inputs. Every interior node of such a chain has one consumer, and
 * no other node adds into the chain's outer parents between its
 * first node and its last, so moving their adjoint contributions to
 * one node keeps the order of every sum.
 */
enum class Op : uint8_t
{
    Leaf,  ///< value supplied externally (per-step input)
    Neg,   ///< -p0
    Add,   ///< p0 + p1
    AddC,  ///< p0 + aux
    Sub,   ///< p0 - p1
    SubC,  ///< p0 - aux
    CSub,  ///< aux - p0
    Mul,   ///< p0 * p1
    MulC,  ///< p0 * aux
    Div,   ///< p0 / p1
    DivC,  ///< p0 / aux
    CDiv,  ///< aux / p0
    Log,   ///< log(p0)
    Exp,   ///< exp(p0)
    Sqrt,  ///< sqrt(p0)
    Pow,   ///< pow(p0, aux)
    Max,   ///< max(p0, p1), subgradient to the larger (ties to p0)
    MaxCL, ///< max(aux, p0), ties to the constant
    MaxCR, ///< max(p0, aux), ties to p0
    Min,   ///< min(p0, p1), ties to p0
    MinCL, ///< min(aux, p0), ties to the constant
    MinCR, ///< min(p0, aux), ties to p0
    Relu,  ///< max(p0, 0) with zero gradient at/below 0
    Ramp,  ///< 1 + clamp(p0 - 1, 0, 1) * (p1 - 1), fused (see above)
    HingeAcc, ///< p0 + relu(1 - p1), fused (see above)
};

/**
 * Append-only computation record supporting reverse-mode sweeps and
 * whole-graph replay.
 *
 * Nodes hold at most two parents; n-ary reductions are built from
 * binary chains by the Var operators layered on top. Storage is
 * structure-of-arrays: the replay interpreter and the reverse sweep
 * each stream over exactly the arrays they need.
 */
class Tape
{
  public:
    /** Add an input (leaf) node with the given value. */
    NodeId addLeaf(double value);

    /**
     * Append a computed node and value it, and its local partials,
     * from its parents' current values and `aux` (the detached
     * operand, or Pow's exponent): the valuation `replay` re-runs.
     */
    NodeId push(Op op, NodeId p0, NodeId p1, double aux);

    /** Value stored at a node. */
    double value(NodeId id) const { return values_[size_t(id)]; }

    /** Number of nodes currently recorded. */
    size_t size() const { return values_.size(); }

    /** Number of leaf nodes recorded, in addLeaf order. */
    size_t numLeaves() const { return leaves_.size(); }

    /** NodeId of the k-th leaf (in addLeaf order). */
    NodeId leaf(size_t k) const { return leaves_[k]; }

    /**
     * Fused forward re-valuation: assign `leaf_values` (one per leaf,
     * in addLeaf order) and re-run the recorded program, recomputing
     * every node value and local partial in one pass. Requires the
     * expression shape to be unchanged since the last build; the
     * result is bitwise-identical to rebuilding the same expression
     * at the new leaf values.
     */
    void replay(std::span<const double> leaf_values);

    /**
     * Reverse sweep from `output` into a caller-owned adjoint buffer
     * (resized to size()): adj[n] = d output / d node n. Reusing the
     * buffer across steps eliminates the per-step allocation.
     */
    void gradientInto(NodeId output, std::vector<double> &adj) const;

    /**
     * Reverse sweep from `output`: returns the adjoint for every node
     * on the tape. Convenience wrapper over gradientInto.
     */
    std::vector<double> gradient(NodeId output) const;

    /**
     * Drop all nodes without releasing capacity (arena reuse);
     * invalidates outstanding NodeIds.
     */
    void reset();

    /**
     * Reserve capacity for roughly `n` nodes (perf hint for the
     * first graph build).
     */
    void reserve(size_t n);

  private:
    /** Program word: operation + parents (read-only after build). */
    struct NodeIn
    {
        Op op;
        NodeId p0;
        NodeId p1;
    };

    /** Derivative word: constant operand + local partials. */
    struct NodeW
    {
        double aux;
        double w0;
        double w1;
    };

    /**
     * Value node `i` (program word `in`, derivative word `w`) from
     * `v`: the one place each op kind's value and partials are
     * computed. `kFresh` (push) also writes the partials fixed by the
     * op and `aux`, which replay leaves as recorded.
     */
    template <bool kFresh>
    static void valueNode(const NodeIn &in, NodeW &w, double *v, size_t i);

    // Structure-of-arrays node storage, split by access phase: the
    // replay interpreter streams in_/w_/values_, the reverse sweep
    // streams in_ (parents) and w_ (partials) against the adjoints.
    std::vector<NodeIn> in_;
    std::vector<NodeW> w_;
    std::vector<double> values_;
    /** Leaf NodeIds in insertion order (replay input layout). */
    std::vector<NodeId> leaves_;
};

} // namespace dosa::ad

#endif // DOSA_AUTODIFF_TAPE_HH
