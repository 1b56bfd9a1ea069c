// Cell-blocked repulsion kernels for the global placer.
//
// PR 3 made the repulsion gather owner-computes and grid-indexed, but it
// still walked scattered per-body state: every candidate cost an index
// load plus a cache line of AoS body data, the per-frequency-bin grids
// were rebuilt lazily against a drift slack (so every query rect was
// inflated by the slack and scanned ~2-3x the candidates that could
// interact), and the inner loops were branchy scalar math. At two
// kilo-qubits that gather was ~95% of GP wall time.
//
// This kernel rearchitects the path around two ideas:
//
//   1. cell-blocked SoA spans — bodies are counting-sorted into
//      row-major grid cells each time any body changes cell, and the
//      per-slot state (x, y, half extents, frequency) is kept in
//      structure-of-arrays form in slot order. A query row is one
//      contiguous span: the inner loops read sequential doubles with no
//      index indirection, and the accumulation passes process bodies in
//      slot order, so consecutive bodies touch the same grid rows and
//      the CSR metadata stays cache-resident (tile-by-tile gathering).
//
//   2. incremental grid maintenance — buckets are kept fresh every
//      iteration instead of drifting against a slack: the maintenance
//      pass re-buckets only bodies whose cell actually changed, and the
//      flatten (offset + scatter rebuild) runs per grid only when that
//      grid's membership changed; otherwise a cheap value refresh
//      updates slot positions in place. Fresh buckets mean query rects
//      cover exactly the interaction reach — no slack inflation, and
//      (for the contact field) ~3x fewer candidates per gather.
//
// Determinism contract (inherited from PR 3): forces are an owner-
// computes gather in a fixed per-body order — grids in a fixed
// sequence, rows ascending, slots ascending within a row — and all
// maintenance is serial, so accumulate() is bit-identical for any
// thread-pool size or `jobs` value. accumulate_reference() walks the
// same structures body-by-body with plain branchy loops and must
// produce bit-identical forces; the differential tests pin the blocked
// kernels to it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/rect.h"

namespace qgdp {

class ThreadPool;

struct RepulsionKernelOptions {
  double freq_threshold{0.06};  ///< GHz; pairs closer than this repel
  double freq_radius{4.0};      ///< cells; frequency interaction radius
  bool with_freq{true};         ///< build the frequency-bin grids at all
};

struct RepulsionKernelStats {
  int flattens{0};             ///< refreshes where >=1 grid re-sorted its slots
  int value_refreshes{0};      ///< refreshes that only rewrote slot positions
  long long rebucketed{0};     ///< bodies whose grid cell changed, summed
};

class RepulsionKernel {
 public:
  /// Geometry (`half_w`/`half_h`), frequencies and the die are fixed for
  /// the kernel's lifetime (one placement level); only positions move.
  /// The pointers must stay valid until the kernel is destroyed.
  RepulsionKernel(const Rect& die, std::size_t n, const double* half_w, const double* half_h,
                  const double* freq, const RepulsionKernelOptions& opt);

  /// Re-buckets bodies whose grid cell changed at (x, y) and refreshes
  /// the slot-ordered SoA state. Call once per iteration before
  /// accumulate(). Serial and deterministic.
  void refresh(const double* x, const double* y);

  /// Adds the contact and frequency repulsion forces at (x, y) into
  /// fx/fy (fx[i] += ...). `contact_repulsion` / `freq_repulsion` are
  /// the effective field strengths (options already scaled by any
  /// refinement boost). Blocked branchless kernels over `pool`;
  /// bit-identical output for any pool size or `jobs`.
  void accumulate(const double* x, const double* y, double contact_repulsion,
                  double freq_repulsion, double* fx, double* fy, ThreadPool& pool,
                  std::size_t jobs) const;

  /// Differential oracle: the same forces via a plain per-body gather
  /// (branchy scalar loops over the same structures, same enumeration
  /// order). Bit-identical to accumulate().
  void accumulate_reference(const double* x, const double* y, double contact_repulsion,
                            double freq_repulsion, double* fx, double* fy) const;

  [[nodiscard]] const RepulsionKernelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  /// One dense row-major CSR grid: per-cell spans of slot-ordered SoA
  /// state. `values` layout depends on the owner (contact vs frequency).
  struct Grid {
    double ox{0.0}, oy{0.0};   ///< area origin
    double cell{1.0};
    double inv_cell{1.0};
    int nx{1}, ny{1};
    int wr{1};                      ///< owner-window radius in cells (freq grids)
    std::vector<int32_t> members;   ///< body ids, ascending (fixed)
    std::vector<int32_t> cell_of;   ///< current cell per member ordinal
    std::vector<int32_t> counts;    ///< live bodies per cell
    std::vector<int32_t> off;       ///< CSR offsets (nx*ny + 1)
    std::vector<int32_t> items;     ///< body ids in (cell, id) slot order
    bool dirty{true};               ///< membership changed since last flatten

    // Slot-ordered SoA values (resized to members.size()).
    std::vector<double> sx, sy;
    std::vector<double> shw, shh;   ///< contact grids with non-uniform halves
    std::vector<double> sfreq;      ///< frequency grids only

    [[nodiscard]] int cx(double x) const;
    [[nodiscard]] int cy(double y) const;
    void init(const Rect& area, double cell_size);
  };

  void refresh_grid(Grid& g, const double* x, const double* y, bool store_halves,
                    bool store_freq);

  template <bool kBlocked>
  void contact_gather(int i, bool i_unit, double xi, double yi, const double* x,
                      const double* y, double rep, double* fx, double* fy) const;
  template <bool kBlocked>
  void freq_gather(int i, double xi, double yi, const double* x, const double* y, double rep,
                   double* fx, double* fy) const;

  std::size_t n_{0};
  const double* half_w_{nullptr};
  const double* half_h_{nullptr};
  const double* freq_{nullptr};
  RepulsionKernelOptions opt_;
  double max_macro_half_{0.5};
  bool unit_uniform_half_{true};  ///< every unit body is exactly 0.5 x 0.5
  int freq_wr_{1};                ///< shared window radius of the bin grids

  Grid unit_;
  Grid macro_;
  std::vector<Grid> bins_;              ///< one grid per dense frequency bin
  std::vector<int32_t> bin_of_;         ///< dense bin id per body
  std::vector<std::array<int, 3>> bin_nbr_;  ///< per bin: dense ids of key-1/key/key+1
  std::vector<std::size_t> bin_slot_off_;    ///< global freq slot -> grid mapping

  bool flattened_any_{false};    ///< scratch: any grid flattened this refresh
  std::vector<int32_t> cursor_;  ///< scratch: scatter cursors (reused)
  RepulsionKernelStats stats_;
};

}  // namespace qgdp
