// QPlacer-lite global placement (the paper's upstream stage, [12]).
//
// Components behave like charged particles: connection nets attract,
// overlapping components repel, and frequency-matched components repel
// additionally (spatial + frequency isolation). This intentionally
// reproduces the *output character* of QPlacer — rough, slightly
// overlapping positions that preserve the logical topology — which is
// the input contract of every legalizer evaluated in the paper. All
// baselines consume identical GP positions (paper §IV "all comparisons
// are based on the same GP positions with pseudo connections").
//
// The placer is multilevel (see placement/multilevel.h): the netlist is
// coarsened bottom-up (blocks of one resonator collapse into their
// edge's super-body, then heavy-edge matching), the coarsest level is
// placed with the full force loop, and each finer level only *refines*
// with a shrinking iteration budget. Force kernels run over
// runtime::parallel_for in an owner-computes layout (each body gathers
// its own net and neighbourhood forces in a fixed order), so positions
// are bit-identical at any thread count — the determinism contract the
// batch runtime established. The PR-2 flat single-thread loop is
// retained behind `flat_baseline` as the benchmark and differential
// reference.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/quantum_netlist.h"
#include "placement/nets.h"

namespace qgdp {

class ThreadPool;

struct GlobalPlacerOptions {
  ConnectionStyle style{ConnectionStyle::kPseudo};
  int iterations{220};            ///< budget of a single-level (flat) run
  double attraction{0.12};        ///< spring constant on nets
  double repulsion{0.45};         ///< overlap push strength
  double freq_repulsion{0.25};    ///< extra push for frequency-close pairs
  double freq_threshold{0.06};    ///< GHz; pairs closer than this repel
  double freq_radius{4.0};        ///< cells; frequency interaction radius
  double step_decay{0.995};       ///< per-iteration step decay (flat baseline)
  double initial_step{1.0};
  unsigned seed{1u};

  // Multilevel + parallel knobs (the new default path).
  int levels{0};                  ///< 0 = auto from component count; 1 = flat; ≤ 4
  int coarse_iterations{140};     ///< budget at the coarsest level
  double refine_factor{0.26};     ///< per-level budget shrink toward finer levels
  int min_refine_iterations{24};  ///< refinement budget floor at kilo-body
                                  ///< levels (small levels anneal longer)
  double refine_step_scale{0.8};  ///< initial step scale of refinement sweeps
  std::size_t jobs{0};            ///< parallel lanes (0 = pool size). Output is
                                  ///< bit-identical for any value.
  bool flat_baseline{false};      ///< run the retained PR-2 single-thread flat
                                  ///< loop instead (bench/differential reference)
};

struct GlobalPlacerStats {
  double total_wirelength{0.0};   ///< Σ net Manhattan lengths after GP
  double overlap_area{0.0};       ///< Σ pairwise overlap areas after GP
  int iterations_run{0};          ///< summed over all levels
  int levels_used{1};
  int hash_rebuilds{0};           ///< repulsion-grid flattens (membership changed)
  int bucket_value_refreshes{0};  ///< iterations that only rewrote slot values
  long long rebucketed_bodies{0}; ///< bodies whose grid cell changed, summed
  double net_ms{0.0};             ///< net-attraction kernel time
  double repulsion_ms{0.0};       ///< overlap+frequency kernel time
  double integrate_ms{0.0};       ///< integration/clamp time
  double coarsen_ms{0.0};         ///< hierarchy construction time
};

class GlobalPlacer {
 public:
  explicit GlobalPlacer(GlobalPlacerOptions opt = {}) : opt_(opt) {}
  /// Runs the parallel kernels on `pool` instead of ThreadPool::shared()
  /// (positions do not depend on the pool — this only picks the threads).
  GlobalPlacer(GlobalPlacerOptions opt, ThreadPool& pool) : opt_(opt), pool_(&pool) {}

  /// Runs GP in-place on the netlist positions. Deterministic for a
  /// fixed (netlist, options) pair at any thread count.
  GlobalPlacerStats place(QuantumNetlist& nl) const;

  [[nodiscard]] const GlobalPlacerOptions& options() const { return opt_; }

 private:
  GlobalPlacerStats place_flat_baseline(QuantumNetlist& nl) const;

  GlobalPlacerOptions opt_;
  ThreadPool* pool_{nullptr};
};

/// Total pairwise overlap area between all component rectangles —
/// the quantity legalization must drive to zero.
[[nodiscard]] double total_overlap_area(const QuantumNetlist& nl);

/// Total Manhattan wirelength over a net set.
[[nodiscard]] double total_wirelength(const QuantumNetlist& nl, const std::vector<Net>& nets);

}  // namespace qgdp
