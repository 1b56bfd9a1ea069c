// qGDP qubit legalization (paper §III-C).
//
// Wraps the constraint-graph macro legalization engine with the quantum
// preset — at least one standard-cell spacing between qubit macros so
// resonator blocks can slot between them and shield inter-qubit
// crosstalk, starting from a stringent spacing that is greedily relaxed
// — plus a robust greedy lattice fallback for pathologically dense
// inputs where the LP becomes infeasible even at the minimum spacing.
#pragma once

#include "legalization/macro_legalizer.h"
#include "netlist/quantum_netlist.h"

namespace qgdp {

struct QubitLegalizeResult {
  bool success{false};
  bool used_fallback{false};
  double spacing_used{0.0};
  double total_displacement{0.0};
  double max_displacement{0.0};
  int relaxations{0};
  int axis_flips{0};
  /// False when a displacement solve stalled at max_sweeps instead of
  /// reaching its fixed point (the layout is still verified feasible).
  /// Stays true on the greedy fallback path, which has no solver.
  bool solver_converged{true};
};

class QubitLegalizer {
 public:
  /// `quantum` selects the spacing-aware preset; false gives the classic
  /// macro legalizer used by the Tetris/Abacus baselines.
  explicit QubitLegalizer(bool quantum = true)
      : engine_(quantum ? MacroLegalizer::quantum() : MacroLegalizer::classic()),
        quantum_(quantum) {}

  explicit QubitLegalizer(MacroLegalizerOptions opts)
      : engine_(opts), quantum_(opts.min_spacing > 0.0) {}

  QubitLegalizeResult legalize(QuantumNetlist& nl) const;

  [[nodiscard]] bool quantum() const { return quantum_; }

 private:
  MacroLegalizer engine_;
  bool quantum_;
};

}  // namespace qgdp
