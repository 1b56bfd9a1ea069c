// Difference-constraint DAG for one axis of macro legalization
// (paper §III-C: "constructs horizontal and vertical constraint graphs
// with macros (qubits) as nodes and permissible movements as arcs").
//
// Each arc (from, to, gap) encodes   x[to] − x[from] ≥ gap,
// and every node carries box bounds  lower[i] ≤ x[i] ≤ upper[i]
// (the substrate border, Eq. 2).
#pragma once

#include <cstddef>
#include <vector>

namespace qgdp {

struct DiffConstraint {
  int from{0};
  int to{0};
  double gap{0.0};  ///< minimum separation: x[to] - x[from] >= gap
};

class ConstraintGraph {
 public:
  explicit ConstraintGraph(std::size_t node_count);

  void add_constraint(int from, int to, double gap);
  void set_bounds(int node, double lower, double upper);

  [[nodiscard]] std::size_t node_count() const { return lower_.size(); }
  [[nodiscard]] const std::vector<DiffConstraint>& constraints() const { return arcs_; }
  [[nodiscard]] double lower(int i) const { return lower_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] double upper(int i) const { return upper_[static_cast<std::size_t>(i)]; }

  /// Topological order (Kahn). Empty result means the graph has a cycle
  /// — an invalid pair-direction assignment that the caller must repair.
  [[nodiscard]] std::vector<int> topological_order() const;

  /// Cached topological order (empty on cycle). Same vector Kahn
  /// produces, computed once per arc-set mutation — the solver and the
  /// bound propagators all iterate this order several times per solve.
  [[nodiscard]] const std::vector<int>& topo_order() const { return topological_order_(); }

  [[nodiscard]] bool has_cycle() const { return node_count() > 0 && topological_order().empty(); }

  /// Tightest lower bounds L[i]: longest path from the boundary through
  /// predecessor constraints. Requires a DAG.
  [[nodiscard]] std::vector<double> tightest_lower_bounds() const;

  /// Tightest upper bounds U[i]: propagated back from successors.
  [[nodiscard]] std::vector<double> tightest_upper_bounds() const;

  /// Feasible iff L[i] <= U[i] + eps for all nodes.
  [[nodiscard]] bool feasible(double eps = 1e-9) const;

  /// Nodes on an infeasible chain (L[i] > U[i]); empty when feasible.
  [[nodiscard]] std::vector<int> infeasible_nodes(double eps = 1e-9) const;

  /// Flat CSR adjacency — (neighbour, gap) pairs grouped per node in
  /// arc-insertion order, the layout the solver's relaxation sweeps
  /// iterate. `node[k]`/`gap[k]` for k in [off[u], off[u+1]) are the
  /// arcs of node u: the predecessor endpoints for the incoming view,
  /// the successor endpoints for the outgoing view.
  struct CsrAdjacency {
    std::vector<int> off;
    std::vector<int> node;
    std::vector<double> gap;
  };
  [[nodiscard]] const CsrAdjacency& out_csr() const;
  [[nodiscard]] const CsrAdjacency& in_csr() const;

 private:
  void build_adjacency_() const;
  const std::vector<int>& topological_order_() const;  ///< cached; empty on cycle

  std::vector<DiffConstraint> arcs_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  mutable CsrAdjacency out_csr_;
  mutable CsrAdjacency in_csr_;
  mutable bool adjacency_dirty_{true};
  mutable std::vector<int> topo_cache_;
  mutable bool topo_dirty_{true};
};

/// Minimum-total-displacement solver over a ConstraintGraph:
///
///   minimize   Σ weight[i] · |x[i] − target[i]|
///   subject to x[to] − x[from] ≥ gap for each arc, bounds per node.
///
/// solve() refines two feasible starts — the tightest-lower (forward)
/// and tightest-upper (backward) points — with full topological
/// projection sweeps plus tight-cluster clump moves, and keeps the
/// better result. dual_lower_bound() prices the LP dual as a min-cost
/// flow (Tang et al.-style; paper: "dual min-cost flow algorithms")
/// and is used by the tests to certify solution quality.
class DisplacementSolver {
 public:
  struct Solution {
    std::vector<double> position;
    double objective{0.0};
    bool feasible{false};
    /// True when the selected refinement reached its fixed point (total
    /// movement below convergence_eps) before the max_sweeps cutoff.
    /// False means the solve STALLED: `position` is the last iterate —
    /// still verified against `feasible` below, but not a certified
    /// local optimum, and callers must not treat the stall as one.
    bool converged{false};
    int sweeps_used{0};  ///< summed over the refinements run
  };

  /// Which feasible start(s) a solve refines. The projection
  /// refinement is init-dependent; kBoth refines from both the
  /// forward and the backward start and keeps the better objective
  /// (ties to forward). kForward/kBackward run exactly one refinement.
  enum class Start { kBoth, kForward, kBackward };

  struct Options {
    int max_sweeps = 64;  ///< per refinement
    double convergence_eps = 1e-9;
    Start start = Start::kBoth;
  };

  DisplacementSolver() = default;
  explicit DisplacementSolver(Options opt) : opt_(opt) {}

  [[nodiscard]] Solution solve(const ConstraintGraph& g, const std::vector<double>& target,
                               const std::vector<double>& weight = {}) const;

  /// Lower bound on the optimal objective via the min-cost-flow dual.
  /// `wall_weight` stands in for the "pinned" boundary (finite but large).
  [[nodiscard]] double dual_lower_bound(const ConstraintGraph& g,
                                        const std::vector<double>& target,
                                        const std::vector<double>& weight = {}) const;

 private:
  Options opt_;
};

}  // namespace qgdp
