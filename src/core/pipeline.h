// End-to-end placement pipeline facade: GP → qubit LG → resonator LG
// [→ DP], assembling the exact flows compared in the paper's
// evaluation (§IV "Baselines"):
//
//   Tetris    classic macro LG + Tetris blocks          [27]
//   Abacus    classic macro LG + Abacus blocks          [29]
//   Q-Tetris  qGDP qubit LG    + Tetris blocks
//   Q-Abacus  qGDP qubit LG    + Abacus blocks
//   qGDP      qGDP qubit LG    + integration-aware blocks (+ DP)
#pragma once

#include <string>

#include "core/detailed_placer.h"
#include "core/qubit_legalizer.h"
#include "core/resonator_legalizer.h"
#include "legalization/abacus_legalizer.h"
#include "legalization/bin_grid.h"
#include "placement/global_placer.h"

namespace qgdp {

enum class LegalizerKind { kTetris, kAbacus, kQTetris, kQAbacus, kQgdp };

[[nodiscard]] std::string legalizer_name(LegalizerKind kind);

/// True for the flows that use the qGDP quantum-aware qubit legalizer
/// (qGDP, Q-Abacus, Q-Tetris); false for the classic baselines.
[[nodiscard]] constexpr bool quantum_flow(LegalizerKind kind) {
  return kind != LegalizerKind::kTetris && kind != LegalizerKind::kAbacus;
}

/// All five flows in the paper's reporting order
/// (qGDP, Q-Abacus, Q-Tetris, Abacus, Tetris).
[[nodiscard]] const std::vector<LegalizerKind>& all_legalizer_kinds();

struct PipelineOptions {
  GlobalPlacerOptions gp{};
  LegalizerKind legalizer{LegalizerKind::kQgdp};
  bool run_gp{true};        ///< false: positions are already globally placed
  bool run_detailed{false}; ///< qGDP-DP stage (only meaningful for kQgdp)
  ResonatorLegalizerOptions resonator{};
  AbacusLegalizerOptions abacus{};  ///< kAbacus / kQAbacus cost-engine options
  DetailedPlacerOptions dp{};
  /// Displacement-solver overrides for the qubit-legalization stage
  /// (see DisplacementSolver::Options). Applied on top of the flow's
  /// quantum/classic preset.
  DisplacementSolver::Options solver{};
};

struct PipelineResult {
  GlobalPlacerStats gp;
  QubitLegalizeResult qubit;
  BlockLegalizeResult blocks;
  DetailedPlaceResult dp;
  double gp_ms{0.0};
  double qubit_ms{0.0};      ///< Table II "tq"
  double resonator_ms{0.0};  ///< Table II "te"
  double dp_ms{0.0};
};

struct PipelineOutput {
  PipelineResult stats;
  BinGrid grid;  ///< final occupancy (qubits blocked, blocks occupied)
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions opt = {}) : opt_(opt) {}

  /// Runs the configured flow on `nl` in place and returns stage stats
  /// plus the final bin grid.
  [[nodiscard]] PipelineOutput run(QuantumNetlist& nl) const;

  [[nodiscard]] const PipelineOptions& options() const { return opt_; }

 private:
  PipelineOptions opt_;
};

}  // namespace qgdp
