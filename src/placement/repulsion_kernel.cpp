#include "placement/repulsion_kernel.h"

#include <algorithm>
#include <cmath>

// The blocked kernels are written with SSE2 compare-mask arithmetic,
// two doubles per step (span lengths here average 2-6 candidates, so
// wider vectors lose to their tail handling — measured on the scaling
// ladder). No FMA is used anywhere, so every lane is IEEE-identical to
// the scalar reference. The build may compile this TU with -mavx2 (see
// CMakeLists.txt) purely for the VEX encoding; lane results are
// unchanged. Without SSE2 the blocked path compiles to the reference
// loop shape, so results never depend on the ISA.
#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define QGDP_REPULSION_SSE2 1
#endif

#include "runtime/thread_pool.h"

namespace qgdp {

namespace {

/// Grows `base` (doubling) until the grid's cell count is proportional
/// to its member count: coarse levels place a few hundred bodies on the
/// same die, and per-iteration offset rebuilds must stay O(members),
/// not O(die area). Pure function of its arguments (determinism).
double fitted_cell(double base, double w, double h, std::size_t members,
                   std::size_t cells_per_member) {
  double cell = std::max(base, 1e-9);
  for (;;) {
    const auto nx = static_cast<std::size_t>(std::max(1.0, std::ceil(w / cell)));
    const auto ny = static_cast<std::size_t>(std::max(1.0, std::ceil(h / cell)));
    const std::size_t cells = nx * ny;
    if (cells <= 1024 || cells <= cells_per_member * std::max<std::size_t>(members, 1)) {
      return cell;
    }
    cell *= 2.0;
  }
}

// -------------------------------------------------------------------
// Two-lane accumulation contract (shared by the SIMD kernels and the
// per-body reference gather; the differential tests pin one to the
// other bit-for-bit):
//   * every gather keeps two accumulator lanes per axis; candidate k of
//     a span [lo, hi) contributes to lane (k - lo) & 1;
//   * the lanes are folded once per body, lane0 + lane1, after all
//     spans of all grids.
// Masked-out candidates contribute exactly +0.0, which cannot change
// an accumulator bit: accumulators start at +0.0 and only ever hold
// +0.0 or sums of non-zero terms (an exact cancellation rounds to
// +0.0 under round-to-nearest), so x + 0.0 == x bitwise throughout.

/// Scalar contact contribution of candidate j against body i; the same
/// expression shapes the SIMD lanes evaluate. Returns the (px, py)
/// increments via out params (0.0 when the pair does not touch).
inline void contact_pair(double dx, double dy, double gap_x, double gap_y, int i, int j,
                         double rep, double& cpx, double& cpy) {
  cpx = 0.0;
  cpy = 0.0;
  const double pen_x = gap_x - std::abs(dx);
  const double pen_y = gap_y - std::abs(dy);
  if (pen_x > 0.0 && pen_y > 0.0 && j != i) {
    // Separate along the axis of least penetration; exact coordinate
    // ties break by index so the two sides of a pair stay antisymmetric.
    if (pen_x < pen_y) {
      cpx = ((dx > 0.0) || (dx == 0.0 && j > i) ? -pen_x : pen_x) * rep;
    } else {
      cpy = ((dy > 0.0) || (dy == 0.0 && j > i) ? -pen_y : pen_y) * rep;
    }
  }
}

}  // namespace

int RepulsionKernel::Grid::cx(double x) const {
  // Truncation == floor for the in-die (non-negative) offsets; the
  // clamp makes the two agree for anything outside as well.
  const int c = static_cast<int>((x - ox) * inv_cell);
  return std::min(std::max(c, 0), nx - 1);
}

int RepulsionKernel::Grid::cy(double y) const {
  const int c = static_cast<int>((y - oy) * inv_cell);
  return std::min(std::max(c, 0), ny - 1);
}

void RepulsionKernel::Grid::init(const Rect& area, double cell_size) {
  ox = area.lo.x;
  oy = area.lo.y;
  cell = cell_size;
  inv_cell = 1.0 / cell_size;
  nx = std::max(1, static_cast<int>(std::ceil(area.width() / cell_size)));
  ny = std::max(1, static_cast<int>(std::ceil(area.height() / cell_size)));
  const std::size_t cells = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  counts.assign(cells, 0);
  off.assign(cells + 1, 0);
  cell_of.assign(members.size(), -1);  // every body "changed" on first refresh
  dirty = true;
}

RepulsionKernel::RepulsionKernel(const Rect& die, std::size_t n, const double* half_w,
                                 const double* half_h, const double* freq,
                                 const RepulsionKernelOptions& opt)
    : n_(n), half_w_(half_w), half_h_(half_h), freq_(freq), opt_(opt) {
  // Strict partition: the unit grid only holds bodies with half extents
  // <= 0.5 on both axes, so a unit-unit pair's interaction reach is
  // <= 1.0 <= the unit cell — adjacent-cell (3x3 owner window) coverage
  // is exact, with no epsilon hole. Everything else is a macro.
  for (std::size_t i = 0; i < n; ++i) {
    if (half_w[i] <= 0.5 && half_h[i] <= 0.5) {
      unit_.members.push_back(static_cast<int32_t>(i));
      if (half_w[i] != 0.5 || half_h[i] != 0.5) unit_uniform_half_ = false;
    } else {
      macro_.members.push_back(static_cast<int32_t>(i));
      max_macro_half_ = std::max({max_macro_half_, half_w[i], half_h[i]});
    }
  }
  const double w = die.width();
  const double h = die.height();
  unit_.init(die, fitted_cell(1.0, w, h, unit_.members.size(), 8));
  // The macro cell covers the widest unit-vs-macro pair, so unit bodies
  // can use the 3x3 owner window on this grid too. (Macro-vs-macro
  // reach can exceed the cell; macros use position-rect queries.)
  macro_.init(die, fitted_cell(std::max(2.0, max_macro_half_ + 0.5), w, h,
                               macro_.members.size(), 8));

  if (opt_.with_freq && n > 0) {
    // Bin key = floor(freq / threshold): an interacting pair (df <
    // threshold) is always in the same or an adjacent bin — and every
    // same-bin pair passes the frequency gate outright, which lets the
    // own-bin scan skip the detune test entirely.
    std::vector<long long> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<long long>(std::floor(freq[i] / opt_.freq_threshold));
    }
    std::vector<long long> bin_keys = keys;
    std::sort(bin_keys.begin(), bin_keys.end());
    bin_keys.erase(std::unique(bin_keys.begin(), bin_keys.end()), bin_keys.end());

    bins_.resize(bin_keys.size());
    bin_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = std::lower_bound(bin_keys.begin(), bin_keys.end(), keys[i]);
      const auto b = static_cast<std::size_t>(it - bin_keys.begin());
      bin_of_[i] = static_cast<int32_t>(b);
      bins_[b].members.push_back(static_cast<int32_t>(i));
    }
    bin_nbr_.resize(bin_keys.size());
    for (std::size_t b = 0; b < bin_keys.size(); ++b) {
      for (int d = -1; d <= 1; ++d) {
        const long long want = bin_keys[b] + d;
        const auto it = std::lower_bound(bin_keys.begin(), bin_keys.end(), want);
        bin_nbr_[b][static_cast<std::size_t>(d + 1)] =
            (it != bin_keys.end() && *it == want) ? static_cast<int>(it - bin_keys.begin())
                                                  : -1;
      }
    }
    // Bins bucket at cell = radius/2: same-frequency bodies cluster
    // spatially (one resonator's blocks share the edge frequency), so
    // the scan is candidate-bound, not lookup-bound — the 5x5 window at
    // radius/2 covers the disc with ~6x less overscan than a 3x3 at
    // cell = radius. All bins share one geometry so a body's window is
    // computed once and reused across the three bins it scans.
    const double base_cell = opt_.freq_radius / 2.0;
    const double freq_cell =
        fitted_cell(base_cell, w, h, std::max<std::size_t>(n / bins_.size(), 1), 32);
    freq_wr_ = std::max(1, static_cast<int>(std::ceil(opt_.freq_radius / freq_cell - 1e-12)));
    bin_slot_off_.assign(bins_.size() + 1, 0);
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      Grid& g = bins_[b];
      g.init(die, freq_cell);
      g.wr = freq_wr_;
      bin_slot_off_[b + 1] = bin_slot_off_[b] + g.members.size();
    }
  }
}

void RepulsionKernel::refresh_grid(Grid& g, const double* x, const double* y, bool store_halves,
                                   bool store_freq) {
  const std::size_t m_count = g.members.size();
  if (m_count == 0) return;
  // Re-bucket only bodies whose cell changed.
  int changed = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    const auto i = static_cast<std::size_t>(g.members[m]);
    const int32_t c = static_cast<int32_t>(g.cy(y[i])) * g.nx + static_cast<int32_t>(g.cx(x[i]));
    if (c != g.cell_of[m]) {
      if (g.cell_of[m] >= 0) --g.counts[static_cast<std::size_t>(g.cell_of[m])];
      ++g.counts[static_cast<std::size_t>(c)];
      g.cell_of[m] = c;
      ++changed;
    }
  }
  stats_.rebucketed += changed;
  if (changed > 0) g.dirty = true;

  if (g.dirty) {
    // Flatten: counting-sort members into (cell, ascending id) slot
    // order and scatter the SoA values alongside.
    const std::size_t cells = g.counts.size();
    for (std::size_t c = 0; c < cells; ++c) g.off[c + 1] = g.off[c] + g.counts[c];
    g.items.resize(m_count);
    g.sx.resize(m_count);
    g.sy.resize(m_count);
    if (store_halves) {
      g.shw.resize(m_count);
      g.shh.resize(m_count);
    }
    if (store_freq) g.sfreq.resize(m_count);
    cursor_.assign(g.off.begin(), g.off.end() - 1);
    for (std::size_t m = 0; m < m_count; ++m) {
      const int32_t i = g.members[m];
      const auto k = static_cast<std::size_t>(cursor_[static_cast<std::size_t>(g.cell_of[m])]++);
      g.items[k] = i;
      g.sx[k] = x[static_cast<std::size_t>(i)];
      g.sy[k] = y[static_cast<std::size_t>(i)];
      if (store_halves) {
        g.shw[k] = half_w_[static_cast<std::size_t>(i)];
        g.shh[k] = half_h_[static_cast<std::size_t>(i)];
      }
      if (store_freq) g.sfreq[k] = freq_[static_cast<std::size_t>(i)];
    }
    g.dirty = false;
    flattened_any_ = true;
  } else {
    // Value refresh: slot membership unchanged, rewrite positions only.
    for (std::size_t k = 0; k < m_count; ++k) {
      const auto i = static_cast<std::size_t>(g.items[k]);
      g.sx[k] = x[i];
      g.sy[k] = y[i];
    }
  }
}

void RepulsionKernel::refresh(const double* x, const double* y) {
  flattened_any_ = false;
  refresh_grid(unit_, x, y, /*store_halves=*/!unit_uniform_half_, /*store_freq=*/false);
  refresh_grid(macro_, x, y, /*store_halves=*/true, /*store_freq=*/false);
  for (auto& g : bins_) refresh_grid(g, x, y, /*store_halves=*/false, /*store_freq=*/true);
  if (flattened_any_) {
    ++stats_.flattens;
  } else {
    ++stats_.value_refreshes;
  }
}

// ---------------------------------------------------------------------
// Gather kernels. <kBlocked = true> is the production path: slot-SoA
// reads and SSE2 compare-mask arithmetic, two candidates per step (the
// scalar select chains were the measured bottleneck — compare masks +
// bitwise blends have no cmov dependency chain). <kBlocked = false> is
// the retained per-body gather oracle: plain branchy scalar loops over
// the same spans in the same order, with the two-lane accumulation
// contract documented above. Exact coordinate ties, self-candidates
// and span tails take a scalar path inside the SIMD kernel that packs
// the same scalar contributions into the same lanes, so the two paths
// are bit-identical.

template <bool kBlocked>
void RepulsionKernel::contact_gather(int i, bool i_unit, double xi, double yi, const double* x,
                                     const double* y, double rep, double* fx,
                                     double* fy) const {
  const auto ii = static_cast<std::size_t>(i);
  const double hwi = half_w_[ii];
  const double hhi = half_h_[ii];

#if defined(QGDP_REPULSION_SSE2)
  __m128d vpx = _mm_setzero_pd();
  __m128d vpy = _mm_setzero_pd();
  const __m128d vxi = _mm_set1_pd(xi);
  const __m128d vyi = _mm_set1_pd(yi);
  const __m128d vhwi = _mm_set1_pd(hwi);
  const __m128d vhhi = _mm_set1_pd(hhi);
  const __m128d vgapxu = _mm_set1_pd(hwi + 0.5);
  const __m128d vgapyu = _mm_set1_pd(hhi + 0.5);
  const __m128d vrep = _mm_set1_pd(rep);
  const __m128d vzero = _mm_setzero_pd();
  const __m128d vsign = _mm_set1_pd(-0.0);
#endif
  double px0 = 0.0, px1 = 0.0, py0 = 0.0, py1 = 0.0;

  // One row span [lo, hi) of grid g. `uniform` = every candidate has
  // half extents exactly (0.5, 0.5) (the unit grid's common case),
  // which drops the per-candidate gap loads.
  const auto scan_span = [&](const Grid& g, std::size_t lo, std::size_t hi, bool uniform) {
    const double gap_xu = hwi + 0.5;
    const double gap_yu = hhi + 0.5;
    if constexpr (kBlocked) {
#if defined(QGDP_REPULSION_SSE2)
      std::size_t k = lo;
      for (; k + 1 < hi; k += 2) {
        const __m128d dx = _mm_sub_pd(_mm_loadu_pd(&g.sx[k]), vxi);
        const __m128d dy = _mm_sub_pd(_mm_loadu_pd(&g.sy[k]), vyi);
        __m128d gx = vgapxu;
        __m128d gy = vgapyu;
        if (!uniform) {
          gx = _mm_add_pd(vhwi, _mm_loadu_pd(&g.shw[k]));
          gy = _mm_add_pd(vhhi, _mm_loadu_pd(&g.shh[k]));
        }
        const __m128d pen_x = _mm_sub_pd(gx, _mm_andnot_pd(vsign, dx));
        const __m128d pen_y = _mm_sub_pd(gy, _mm_andnot_pd(vsign, dy));
        const __m128d hit =
            _mm_and_pd(_mm_cmpgt_pd(pen_x, vzero), _mm_cmpgt_pd(pen_y, vzero));
        // A hit with an exactly-zero coordinate needs the index
        // tie-break (and covers the self candidate); take the scalar
        // route for this pair of lanes — packed into the same lanes,
        // so the accumulation sequence is unchanged.
        const __m128d any_zero =
            _mm_and_pd(hit, _mm_or_pd(_mm_cmpeq_pd(dx, vzero), _mm_cmpeq_pd(dy, vzero)));
        if (_mm_movemask_pd(any_zero) != 0) {
          double c0x, c0y, c1x, c1y;
          const double g0x = uniform ? gap_xu : hwi + g.shw[k];
          const double g0y = uniform ? gap_yu : hhi + g.shh[k];
          const double g1x = uniform ? gap_xu : hwi + g.shw[k + 1];
          const double g1y = uniform ? gap_yu : hhi + g.shh[k + 1];
          contact_pair(g.sx[k] - xi, g.sy[k] - yi, g0x, g0y, i, g.items[k], rep, c0x, c0y);
          contact_pair(g.sx[k + 1] - xi, g.sy[k + 1] - yi, g1x, g1y, i, g.items[k + 1], rep,
                       c1x, c1y);
          vpx = _mm_add_pd(vpx, _mm_set_pd(c1x, c0x));
          vpy = _mm_add_pd(vpy, _mm_set_pd(c1y, c0y));
          continue;
        }
        const __m128d use_x = _mm_cmplt_pd(pen_x, pen_y);
        // Signed penetration: flip the sign where dx > 0 (dx == 0 went
        // scalar above), then mask to the chosen axis and the hit set.
        const __m128d spx =
            _mm_xor_pd(pen_x, _mm_and_pd(_mm_cmpgt_pd(dx, vzero), vsign));
        const __m128d spy =
            _mm_xor_pd(pen_y, _mm_and_pd(_mm_cmpgt_pd(dy, vzero), vsign));
        vpx = _mm_add_pd(vpx, _mm_and_pd(_mm_and_pd(hit, use_x), _mm_mul_pd(spx, vrep)));
        vpy = _mm_add_pd(vpy, _mm_and_pd(_mm_andnot_pd(use_x, hit), _mm_mul_pd(spy, vrep)));
      }
      if (k < hi) {  // span tail -> lane 0
        double cx_, cy_;
        const double gtx = uniform ? gap_xu : hwi + g.shw[k];
        const double gty = uniform ? gap_yu : hhi + g.shh[k];
        contact_pair(g.sx[k] - xi, g.sy[k] - yi, gtx, gty, i, g.items[k], rep, cx_, cy_);
        vpx = _mm_add_pd(vpx, _mm_set_pd(0.0, cx_));
        vpy = _mm_add_pd(vpy, _mm_set_pd(0.0, cy_));
      }
#else
      // No SSE2: fall through to the reference loop shape (identical
      // two-lane semantics, so results do not depend on the ISA).
      for (std::size_t k = lo; k < hi; ++k) {
        const double gx = uniform ? gap_xu : hwi + g.shw[k];
        const double gy = uniform ? gap_yu : hhi + g.shh[k];
        double cx_, cy_;
        contact_pair(g.sx[k] - xi, g.sy[k] - yi, gx, gy, i, g.items[k], rep, cx_, cy_);
        if (((k - lo) & 1) == 0) {
          px0 += cx_;
          py0 += cy_;
        } else {
          px1 += cx_;
          py1 += cy_;
        }
      }
#endif
    } else {
      (void)uniform;
      for (std::size_t k = lo; k < hi; ++k) {
        const int j = g.items[k];
        const auto jj = static_cast<std::size_t>(j);
        double cx_, cy_;
        contact_pair(x[jj] - xi, y[jj] - yi, hwi + half_w_[jj], hhi + half_h_[jj], i, j, rep,
                     cx_, cy_);
        if (((k - lo) & 1) == 0) {
          px0 += cx_;
          py0 += cy_;
        } else {
          px1 += cx_;
          py1 += cy_;
        }
      }
    }
  };

  // 3x3 owner-cell window: valid whenever the pair reach against this
  // grid's widest member is <= the grid cell.
  const auto scan_window = [&](const Grid& g, bool uniform) {
    const int cxo = g.cx(xi);
    const int cyo = g.cy(yi);
    const int x0 = std::max(cxo - 1, 0);
    const int x1 = std::min(cxo + 1, g.nx - 1);
    const int y0 = std::max(cyo - 1, 0);
    const int y1 = std::min(cyo + 1, g.ny - 1);
    for (int yy = y0; yy <= y1; ++yy) {
      const std::size_t row = static_cast<std::size_t>(yy) * static_cast<std::size_t>(g.nx);
      scan_span(g, static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x0)]),
                static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x1) + 1]),
                uniform);
    }
  };
  // Position-rect scan for reaches that exceed the grid cell.
  const auto scan_rect = [&](const Grid& g, double reach, bool uniform) {
    const int x0 = g.cx(xi - reach);
    const int x1 = g.cx(xi + reach);
    const int y0 = g.cy(yi - reach);
    const int y1 = g.cy(yi + reach);
    for (int yy = y0; yy <= y1; ++yy) {
      const std::size_t row = static_cast<std::size_t>(yy) * static_cast<std::size_t>(g.nx);
      scan_span(g, static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x0)]),
                static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x1) + 1]),
                uniform);
    }
  };

  if (i_unit) {
    // Unit body: both reaches fit inside one cell of the target grids.
    scan_window(unit_, unit_uniform_half_);
    if (!macro_.members.empty()) scan_window(macro_, false);
  } else {
    const double half_i = std::max(hwi, hhi);
    if (!unit_.members.empty()) scan_rect(unit_, half_i + 0.5, unit_uniform_half_);
    if (!macro_.members.empty()) scan_rect(macro_, half_i + max_macro_half_, false);
  }

#if defined(QGDP_REPULSION_SSE2)
  if constexpr (kBlocked) {
    double lx[2], ly[2];
    _mm_storeu_pd(lx, vpx);
    _mm_storeu_pd(ly, vpy);
    px0 = lx[0];
    px1 = lx[1];
    py0 = ly[0];
    py1 = ly[1];
  }
#endif
  fx[ii] += px0 + px1;
  fy[ii] += py0 + py1;
}

template <bool kBlocked>
void RepulsionKernel::freq_gather(int i, double xi, double yi, const double* x,
                                  const double* y, double rep, double* fx, double* fy) const {
  const auto ii = static_cast<std::size_t>(i);
  const double fqi = freq_[ii];
  const double r = opt_.freq_radius;
  const double r2 = r * r;
  const double thr = opt_.freq_threshold;
#if defined(QGDP_REPULSION_SSE2)
  __m128d vpx = _mm_setzero_pd();
  __m128d vpy = _mm_setzero_pd();
  const __m128d vxi = _mm_set1_pd(xi);
  const __m128d vyi = _mm_set1_pd(yi);
  const __m128d vfqi = _mm_set1_pd(fqi);
  const __m128d vr2 = _mm_set1_pd(r2);
  const __m128d vthr = _mm_set1_pd(thr);
  const __m128d vsign = _mm_set1_pd(-0.0);
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128d veps = _mm_set1_pd(1e-4);
  const __m128d vrepb = _mm_set1_pd(rep);
  const __m128d vinvr = _mm_set1_pd(1.0 / r);
#endif
  double px0 = 0.0, px1 = 0.0, py0 = 0.0, py1 = 0.0;

  // Same-frequency components within the interaction radius push apart
  // radially (QPlacer's charged-particle analogy). One candidate's
  // contribution — identical expression in both template branches (one
  // square root, one division; s folds the magnitude and the unit
  // vector's normalization).
  const double inv_r = 1.0 / r;
  const auto pair_contrib = [&](double dx, double dy, double d2, double& cpx, double& cpy) {
    const double dist = std::sqrt(std::max(d2, 1e-4));
    const double s = rep * (1.0 - dist * inv_r) / dist;
    cpx = -(dx * s);
    cpy = -(dy * s);
  };
  // One row span, exact candidates. `own_bin` pairs always pass the
  // frequency gate (bin width == threshold), so their prefilter is
  // distance-only.
  const auto scan_span = [&](const Grid& g, std::size_t lo, std::size_t hi, bool own_bin) {
    if constexpr (kBlocked) {
#if defined(QGDP_REPULSION_SSE2)
      std::size_t k = lo;
      for (; k + 1 < hi; k += 2) {
        const __m128d dx = _mm_sub_pd(_mm_loadu_pd(&g.sx[k]), vxi);
        const __m128d dy = _mm_sub_pd(_mm_loadu_pd(&g.sy[k]), vyi);
        const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
        __m128d pass = _mm_cmplt_pd(d2, vr2);
        if (!own_bin) {
          const __m128d df =
              _mm_andnot_pd(vsign, _mm_sub_pd(_mm_loadu_pd(&g.sfreq[k]), vfqi));
          pass = _mm_and_pd(pass, _mm_cmplt_pd(df, vthr));
        }
        const int mask = _mm_movemask_pd(pass);
        if (mask == 0) continue;
        if (mask == 3) {
          // Both lanes contribute (clustered same-frequency bodies sit
          // in adjacent slots): one vector sqrt/div covers both. Lane
          // arithmetic is elementwise-identical to pair_contrib.
          const __m128d dist = _mm_sqrt_pd(_mm_max_pd(d2, veps));
          const __m128d s = _mm_div_pd(
              _mm_mul_pd(vrepb, _mm_sub_pd(vone, _mm_mul_pd(dist, vinvr))), dist);
          vpx = _mm_add_pd(vpx, _mm_xor_pd(_mm_mul_pd(dx, s), vsign));
          vpy = _mm_add_pd(vpy, _mm_xor_pd(_mm_mul_pd(dy, s), vsign));
        } else {
          double d2l[2], dxl[2], dyl[2];
          _mm_storeu_pd(d2l, d2);
          _mm_storeu_pd(dxl, dx);
          _mm_storeu_pd(dyl, dy);
          double c0x = 0.0, c0y = 0.0, c1x = 0.0, c1y = 0.0;
          if (mask & 1) pair_contrib(dxl[0], dyl[0], d2l[0], c0x, c0y);
          if (mask & 2) pair_contrib(dxl[1], dyl[1], d2l[1], c1x, c1y);
          vpx = _mm_add_pd(vpx, _mm_set_pd(c1x, c0x));
          vpy = _mm_add_pd(vpy, _mm_set_pd(c1y, c0y));
        }
      }
      if (k < hi) {  // span tail -> lane 0
        const double dx = g.sx[k] - xi;
        const double dy = g.sy[k] - yi;
        const double d2 = dx * dx + dy * dy;
        const bool pass =
            (d2 < r2) && (own_bin || std::abs(g.sfreq[k] - fqi) < thr);
        if (pass) {
          double cx_, cy_;
          pair_contrib(dx, dy, d2, cx_, cy_);
          vpx = _mm_add_pd(vpx, _mm_set_pd(0.0, cx_));
          vpy = _mm_add_pd(vpy, _mm_set_pd(0.0, cy_));
        }
      }
#else
      for (std::size_t k = lo; k < hi; ++k) {
        const double dx = g.sx[k] - xi;
        const double dy = g.sy[k] - yi;
        const double d2 = dx * dx + dy * dy;
        if (d2 < r2 && (own_bin || std::abs(g.sfreq[k] - fqi) < thr)) {
          double cx_, cy_;
          pair_contrib(dx, dy, d2, cx_, cy_);
          if (((k - lo) & 1) == 0) {
            px0 += cx_;
            py0 += cy_;
          } else {
            px1 += cx_;
            py1 += cy_;
          }
        }
      }
#endif
    } else {
      for (std::size_t k = lo; k < hi; ++k) {
        const auto jj = static_cast<std::size_t>(g.items[k]);
        const double dx = x[jj] - xi;
        const double dy = y[jj] - yi;
        const double d2 = dx * dx + dy * dy;
        if (d2 < r2 && (own_bin || std::abs(freq_[jj] - fqi) < thr)) {
          double cx_, cy_;
          pair_contrib(dx, dy, d2, cx_, cy_);
          if (((k - lo) & 1) == 0) {
            px0 += cx_;
            py0 += cy_;
          } else {
            px1 += cx_;
            py1 += cy_;
          }
        }
      }
    }
  };

  const auto own_bin_id = bin_of_[ii];
  // All bin grids share one geometry, so the owner-cell window of
  // radius wr (= ceil(radius / cell); covers the full interaction disc
  // by construction) is computed once for the three scanned bins.
  const Grid& g0 = bins_[static_cast<std::size_t>(own_bin_id)];
  const int cxq = g0.cx(xi);
  const int cyq = g0.cy(yi);
  const int x0 = std::max(cxq - freq_wr_, 0);
  const int x1 = std::min(cxq + freq_wr_, g0.nx - 1);
  const int y0 = std::max(cyq - freq_wr_, 0);
  const int y1 = std::min(cyq + freq_wr_, g0.ny - 1);
  for (const int gi : bin_nbr_[static_cast<std::size_t>(own_bin_id)]) {
    if (gi < 0) continue;
    const Grid& g = bins_[static_cast<std::size_t>(gi)];
    if (g.members.empty()) continue;
    const bool own_bin = gi == own_bin_id;
    for (int yy = y0; yy <= y1; ++yy) {
      const std::size_t row = static_cast<std::size_t>(yy) * static_cast<std::size_t>(g.nx);
      scan_span(g, static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x0)]),
                static_cast<std::size_t>(g.off[row + static_cast<std::size_t>(x1) + 1]), own_bin);
    }
  }

#if defined(QGDP_REPULSION_SSE2)
  if constexpr (kBlocked) {
    double lx[2], ly[2];
    _mm_storeu_pd(lx, vpx);
    _mm_storeu_pd(ly, vpy);
    px0 = lx[0];
    px1 = lx[1];
    py0 = ly[0];
    py1 = ly[1];
  }
#endif
  fx[ii] += px0 + px1;
  fy[ii] += py0 + py1;
}

void RepulsionKernel::accumulate(const double* x, const double* y, double contact_repulsion,
                                 double freq_repulsion, double* fx, double* fy,
                                 ThreadPool& pool, std::size_t jobs) const {
  if (n_ == 0) return;
  // Contact pass, in slot order (unit slots, then macro slots):
  // consecutive bodies share grid rows, keeping the CSR metadata hot.
  const std::size_t unit_slots = unit_.items.size();
  parallel_for(pool, 0, n_, jobs, [&](std::size_t p) {
    const bool is_unit = p < unit_slots;
    const Grid& g = is_unit ? unit_ : macro_;
    const std::size_t k = is_unit ? p : p - unit_slots;
    // A body's own position comes from its slot (sequential reads; the
    // refresh pass copied the identical doubles there).
    contact_gather<true>(g.items[k], is_unit, g.sx[k], g.sy[k], x, y, contact_repulsion, fx,
                         fy);
  });
  if (!opt_.with_freq || bins_.empty() || freq_repulsion <= 0.0) return;
  // Frequency pass, in (bin, slot) order.
  parallel_for(pool, 0, n_, jobs, [&](std::size_t p) {
    const auto it = std::upper_bound(bin_slot_off_.begin() + 1, bin_slot_off_.end(), p);
    const auto b = static_cast<std::size_t>(it - (bin_slot_off_.begin() + 1));
    const Grid& g = bins_[b];
    const std::size_t k = p - bin_slot_off_[b];
    freq_gather<true>(g.items[k], g.sx[k], g.sy[k], x, y, freq_repulsion, fx, fy);
  });
}

void RepulsionKernel::accumulate_reference(const double* x, const double* y,
                                           double contact_repulsion, double freq_repulsion,
                                           double* fx, double* fy) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const bool is_unit = half_w_[i] <= 0.5 && half_h_[i] <= 0.5;
    contact_gather<false>(static_cast<int>(i), is_unit, x[i], y[i], x, y, contact_repulsion,
                          fx, fy);
  }
  if (!opt_.with_freq || bins_.empty() || freq_repulsion <= 0.0) return;
  for (std::size_t i = 0; i < n_; ++i) {
    freq_gather<false>(static_cast<int>(i), x[i], y[i], x, y, freq_repulsion, fx, fy);
  }
}

}  // namespace qgdp
