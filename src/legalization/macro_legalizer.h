// Constraint-graph macro legalization for qubits.
//
// This is the shared engine behind both the classic baseline (Tang et
// al. [26], spacing = 0) and qGDP's quantum qubit legalization
// (paper §III-C): every qubit pair receives a horizontal or vertical
// separation constraint, the per-axis LPs minimizing total displacement
// are solved over the resulting DAGs, and — for the quantum preset — a
// minimum inter-qubit spacing is enforced, starting from a stringent
// value and greedily relaxed only when the constraint system becomes
// infeasible ("starts with stringent constraints, relaxing them only
// when necessary").
#pragma once

#include <string>

#include "graph/constraint_graph.h"
#include "netlist/quantum_netlist.h"

namespace qgdp {

/// How spacing constraints are relaxed when infeasible (§III-C's
/// "greedy method to dynamically adjust spacing").
enum class SpacingRelaxation {
  kGlobal,   ///< lower the spacing level for every pair at once
  kPerPair,  ///< lower only the pairs on infeasible chains (greedier:
             ///< the rest of the chip keeps the stringent spacing)
};

struct MacroLegalizerOptions {
  double min_spacing{0.0};    ///< hard floor on inter-qubit spacing (cells)
  double start_spacing{0.0};  ///< first (stringent) spacing attempt
  double relax_step{1.0};     ///< greedy relaxation decrement
  int max_axis_flips{200};    ///< repair budget for infeasible graphs
  bool snap_to_grid{true};    ///< snap targets so solutions are integral
  SpacingRelaxation relaxation{SpacingRelaxation::kGlobal};

  /// Pair-constraint window (cells): pairs whose snapped GP targets are
  /// further apart than this (Chebyshev) get no explicit constraint —
  /// the legality verification at the end still covers them, and the
  /// greedy lattice fallback repairs the (rare) miss. 0 = automatic:
  /// all pairs up to `auto_window_qubits` qubits (bit-identical to the
  /// historical behaviour on every paper topology), windowed beyond
  /// that so kilo-qubit devices avoid the O(n²) pair explosion.
  /// Negative = always all pairs.
  double pair_window{0.0};
  /// Qubit count at which the automatic mode starts windowing.
  int auto_window_qubits{150};

  /// Displacement-solver knobs (sweep budget, convergence threshold,
  /// feasible starts; see DisplacementSolver::Options).
  DisplacementSolver::Options solver{};
};

struct MacroLegalizeResult {
  bool success{false};
  double spacing_used{0.0};
  double total_displacement{0.0};
  double max_displacement{0.0};
  int axis_flips{0};
  int relaxations{0};  ///< how many times spacing had to be lowered
  /// False when at least one axis of the final solve stalled at
  /// max_sweeps — the layout is still verified feasible, but the solve
  /// is not a certified fixed point.
  bool solver_converged{true};
};

class MacroLegalizer {
 public:
  explicit MacroLegalizer(MacroLegalizerOptions opt = {}) : opt_(opt) {}

  /// Legalizes qubit positions in place (wire blocks untouched).
  MacroLegalizeResult legalize(QuantumNetlist& nl) const;

  [[nodiscard]] const MacroLegalizerOptions& options() const { return opt_; }

  /// Classic preset: plain overlap removal (Tetris/Abacus flows).
  [[nodiscard]] static MacroLegalizer classic();
  /// Quantum preset: ≥1-cell spacing, stringent start (qGDP / Q-flows).
  [[nodiscard]] static MacroLegalizer quantum();

 private:
  MacroLegalizerOptions opt_;
};

/// True when no two qubit rects overlap and all lie inside the die.
[[nodiscard]] bool qubits_legal(const QuantumNetlist& nl, double min_spacing = 0.0,
                                double eps = 1e-6);

}  // namespace qgdp
