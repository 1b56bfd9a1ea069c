#include "legalization/macro_legalizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "geometry/spatial_hash.h"
#include "runtime/thread_pool.h"

namespace qgdp {

namespace {

enum class Axis { kX, kY };

struct PairConstraint {
  int a{0};       ///< qubit placed lower on the chosen axis
  int b{0};       ///< qubit placed higher
  Axis axis{Axis::kX};
  double gap_x{0.0};
  double gap_y{0.0};
  double spacing{0.0};  ///< spacing component of the gaps (per-pair relaxable)
};

/// Snap a center so the macro's corners are integral.
double snap_center(double c, double extent) {
  return std::round(c - extent / 2) + extent / 2;
}

/// True when every pair already sits at the hard spacing floor.
bool spacing_fully_relaxed(const std::vector<PairConstraint>& pairs, double min_spacing) {
  for (const auto& pc : pairs) {
    if (pc.spacing > min_spacing + 1e-12) return false;
  }
  return true;
}

}  // namespace

MacroLegalizer MacroLegalizer::classic() {
  return MacroLegalizer{{.min_spacing = 0.0, .start_spacing = 0.0}};
}

MacroLegalizer MacroLegalizer::quantum() {
  // §III-C: at least one standard-cell spacing, aggressive initial value.
  return MacroLegalizer{{.min_spacing = 1.0, .start_spacing = 2.0}};
}

bool qubits_legal(const QuantumNetlist& nl, double min_spacing, double eps) {
  const Rect die = nl.die();
  const auto& qs = nl.qubits();
  for (const auto& q : qs) {
    const Rect r = q.rect();
    if (!die.inflated(eps).contains(r)) return false;
  }
  if (qs.empty()) return true;
  // Pairwise separation via a spatial hash: a violating pair is within
  // (max extent + spacing) on both axes, so a cell of that size makes
  // the 3×3 neighbourhood exhaustive — same verdict as the all-pairs
  // scan at O(n · neighbourhood).
  double max_extent = 0.0;
  for (const auto& q : qs) max_extent = std::max({max_extent, q.width, q.height});
  const double cell = std::max(1.0, max_extent + min_spacing);
  SpatialHash hash(die.inflated(cell), cell);
  for (const auto& q : qs) hash.insert(q.id, q.pos);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    bool bad = false;
    hash.for_each_near(qs[i].pos, [&](int j) {
      if (static_cast<std::size_t>(j) <= i || bad) return;
      const auto& qj = qs[static_cast<std::size_t>(j)];
      const double need_x = (qs[i].width + qj.width) / 2 + min_spacing;
      const double need_y = (qs[i].height + qj.height) / 2 + min_spacing;
      const double dx = std::abs(qs[i].pos.x - qj.pos.x);
      const double dy = std::abs(qs[i].pos.y - qj.pos.y);
      if (dx < need_x - eps && dy < need_y - eps) bad = true;
    });
    if (bad) return false;
  }
  return true;
}

MacroLegalizeResult MacroLegalizer::legalize(QuantumNetlist& nl) const {
  MacroLegalizeResult result;
  const int n = static_cast<int>(nl.qubit_count());
  if (n == 0) {
    result.success = true;
    return result;
  }
  const Rect die = nl.die();

  // Targets = GP positions, optionally snapped to the macro lattice so
  // that integer gaps yield integral (grid-aligned) solutions.
  std::vector<Point> target(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& q = nl.qubit(i);
    target[static_cast<std::size_t>(i)] =
        opt_.snap_to_grid ? Point{snap_center(q.pos.x, q.width), snap_center(q.pos.y, q.height)}
                          : q.pos;
  }

  // Pair-constraint window: 0 means every pair gets a constraint; when
  // windowed, only pairs whose targets are within `window` (Chebyshev)
  // do. The final qubits_legal() verification still covers all pairs,
  // and a missed far-pair collision (never observed in practice — the
  // window is several times the realistic legalization displacement)
  // lands in the caller's greedy fallback, so legality is unaffected.
  double window = opt_.pair_window;
  if (window < 0.0) {
    window = 0.0;
  } else if (window == 0.0 && n > opt_.auto_window_qubits) {
    double max_extent = 0.0;
    for (const auto& q : nl.qubits()) max_extent = std::max({max_extent, q.width, q.height});
    window = std::max(16.0, 4.0 * (max_extent + std::max(opt_.start_spacing, opt_.min_spacing)));
  }

  // Initial axis assignment for every pair: the axis with more slack at
  // the GP positions receives the separation constraint.
  auto make_pair = [&](int i, int j, double spacing) {
    const auto& qi = nl.qubit(i);
    const auto& qj = nl.qubit(j);
    PairConstraint pc;
    pc.spacing = spacing;
    pc.gap_x = (qi.width + qj.width) / 2 + spacing;
    pc.gap_y = (qi.height + qj.height) / 2 + spacing;
    const Point ti = target[static_cast<std::size_t>(i)];
    const Point tj = target[static_cast<std::size_t>(j)];
    const double slack_x = std::abs(ti.x - tj.x) - pc.gap_x;
    const double slack_y = std::abs(ti.y - tj.y) - pc.gap_y;
    pc.axis = (slack_x >= slack_y) ? Axis::kX : Axis::kY;
    const bool i_first = (pc.axis == Axis::kX) ? (ti.x <= tj.x) : (ti.y <= tj.y);
    pc.a = i_first ? i : j;
    pc.b = i_first ? j : i;
    return pc;
  };
  auto build_pairs = [&](double spacing) {
    std::vector<PairConstraint> pairs;
    if (window <= 0.0) {
      pairs.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) pairs.push_back(make_pair(i, j, spacing));
      }
      return pairs;
    }
    // Windowed: candidate partners from a spatial hash over the targets
    // (cell = window, so the 3×3 neighbourhood covers the window).
    // Partners are sorted per anchor, keeping the (i, j) emission order
    // of the dense loop for the pairs that survive.
    SpatialHash hash(die.inflated(window), window);
    for (int i = 0; i < n; ++i) hash.insert(i, target[static_cast<std::size_t>(i)]);
    std::vector<int> partners;
    for (int i = 0; i < n; ++i) {
      partners.clear();
      const Point ti = target[static_cast<std::size_t>(i)];
      hash.for_each_near(ti, [&](int j) {
        if (j <= i) return;
        const Point tj = target[static_cast<std::size_t>(j)];
        if (std::max(std::abs(ti.x - tj.x), std::abs(ti.y - tj.y)) <= window) {
          partners.push_back(j);
        }
      });
      std::sort(partners.begin(), partners.end());
      for (const int j : partners) pairs.push_back(make_pair(i, j, spacing));
    }
    return pairs;
  };
  auto set_pair_spacing = [&](PairConstraint& pc, double spacing) {
    const auto& qa = nl.qubit(pc.a);
    const auto& qb = nl.qubit(pc.b);
    pc.spacing = spacing;
    pc.gap_x = (qa.width + qb.width) / 2 + spacing;
    pc.gap_y = (qa.height + qb.height) / 2 + spacing;
  };

  auto build_graph = [&](const std::vector<PairConstraint>& pairs, Axis axis) {
    ConstraintGraph g(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto& q = nl.qubit(i);
      const double half = (axis == Axis::kX) ? q.width / 2 : q.height / 2;
      const double lo = (axis == Axis::kX) ? die.lo.x : die.lo.y;
      const double hi = (axis == Axis::kX) ? die.hi.x : die.hi.y;
      g.set_bounds(i, lo + half, hi - half);
    }
    for (const auto& pc : pairs) {
      if (pc.axis != axis) continue;
      g.add_constraint(pc.a, pc.b, axis == Axis::kX ? pc.gap_x : pc.gap_y);
    }
    return g;
  };

  // Try spacings from stringent to the hard floor (greedy relaxation).
  double spacing = std::max(opt_.start_spacing, opt_.min_spacing);
  std::vector<PairConstraint> pairs;
  std::vector<double> tx(static_cast<std::size_t>(n));
  std::vector<double> ty(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tx[static_cast<std::size_t>(i)] = target[static_cast<std::size_t>(i)].x;
    ty[static_cast<std::size_t>(i)] = target[static_cast<std::size_t>(i)].y;
  }

  bool solved = false;
  DisplacementSolver::Solution sol_x;
  DisplacementSolver::Solution sol_y;
  pairs = build_pairs(spacing);
  int flips = 0;
  int relax_rounds_left = 4 * n + 16;  // per-pair relaxation budget
  while (true) {
    ConstraintGraph gx = build_graph(pairs, Axis::kX);
    ConstraintGraph gy = build_graph(pairs, Axis::kY);
    const auto bad_x = gx.infeasible_nodes();
    const auto bad_y = gy.infeasible_nodes();
    if (bad_x.empty() && bad_y.empty()) {
      // The two axis solves share nothing (separate graphs, separate
      // targets, const solver); run them on two lanes. parallel_for's
      // caller-helps contract keeps this safe under the batch
      // runner's outer parallelism, and each solve is deterministic
      // on its own.
      parallel_for(ThreadPool::shared(), 0, 2, 2, [&](std::size_t i) {
        DisplacementSolver s(opt_.solver);
        if (i == 0) {
          sol_x = s.solve(gx, tx);
        } else {
          sol_y = s.solve(gy, ty);
        }
      });
      if (sol_x.feasible && sol_y.feasible) {
        solved = true;
        break;
      }
    }
    const Axis failing = bad_x.empty() ? Axis::kY : Axis::kX;
    const auto& bad = bad_x.empty() ? bad_y : bad_x;
    const std::set<int> bad_set(bad.begin(), bad.end());

    // Repair 1 — flip the constraint on the failing axis whose move to
    // the other axis is cheapest (smallest required push there).
    if (flips < opt_.max_axis_flips) {
      PairConstraint* flip = nullptr;
      double best_cost = std::numeric_limits<double>::infinity();
      for (auto& pc : pairs) {
        if (pc.axis != failing) continue;
        if (!bad_set.count(pc.a) && !bad_set.count(pc.b)) continue;
        const Point ta = target[static_cast<std::size_t>(pc.a)];
        const Point tb = target[static_cast<std::size_t>(pc.b)];
        const double other_slack = (failing == Axis::kX)
                                       ? std::abs(ta.y - tb.y) - pc.gap_y
                                       : std::abs(ta.x - tb.x) - pc.gap_x;
        const double cost = std::max(0.0, -other_slack);
        if (cost < best_cost) {
          best_cost = cost;
          flip = &pc;
        }
      }
      if (flip != nullptr && best_cost < 1e-9) {
        // A free flip exists; take it before touching any spacing.
        const Point ta = target[static_cast<std::size_t>(flip->a)];
        const Point tb = target[static_cast<std::size_t>(flip->b)];
        if (flip->axis == Axis::kX) {
          flip->axis = Axis::kY;
          if (ta.y > tb.y) std::swap(flip->a, flip->b);
        } else {
          flip->axis = Axis::kX;
          if (ta.x > tb.x) std::swap(flip->a, flip->b);
        }
        ++flips;
        ++result.axis_flips;
        continue;
      }
      // No free flip: remember the cheapest one for later.
      if (flip != nullptr &&
          (opt_.relaxation == SpacingRelaxation::kGlobal ||
           spacing_fully_relaxed(pairs, opt_.min_spacing))) {
        const Point ta = target[static_cast<std::size_t>(flip->a)];
        const Point tb = target[static_cast<std::size_t>(flip->b)];
        if (flip->axis == Axis::kX) {
          flip->axis = Axis::kY;
          if (ta.y > tb.y) std::swap(flip->a, flip->b);
        } else {
          flip->axis = Axis::kX;
          if (ta.x > tb.x) std::swap(flip->a, flip->b);
        }
        ++flips;
        ++result.axis_flips;
        continue;  // re-check feasibility before relaxing any spacing
      }
    }

    // Repair 2 — greedy spacing relaxation.
    if (opt_.relaxation == SpacingRelaxation::kPerPair) {
      // Lower only pairs touching the infeasible chains.
      bool relaxed_any = false;
      if (relax_rounds_left-- > 0) {
        for (auto& pc : pairs) {
          if (pc.axis != failing) continue;
          if (pc.spacing <= opt_.min_spacing + 1e-12) continue;
          if (!bad_set.count(pc.a) && !bad_set.count(pc.b)) continue;
          set_pair_spacing(pc, std::max(opt_.min_spacing, pc.spacing - opt_.relax_step));
          relaxed_any = true;
        }
      }
      if (relaxed_any) {
        ++result.relaxations;
        continue;
      }
      break;  // nothing left to relax or flip
    }
    // Global relaxation: drop the spacing level for every pair.
    if (spacing <= opt_.min_spacing + 1e-12) break;
    spacing = std::max(opt_.min_spacing, spacing - opt_.relax_step);
    pairs = build_pairs(spacing);
    flips = 0;
    ++result.relaxations;
  }

  if (!solved) return result;  // success stays false; caller may fall back

  result.solver_converged = sol_x.converged && sol_y.converged;

  // Report the weakest spacing still guaranteed between any pair.
  double spacing_floor = spacing;
  for (const auto& pc : pairs) spacing_floor = std::min(spacing_floor, pc.spacing);
  result.spacing_used = spacing_floor;
  for (int i = 0; i < n; ++i) {
    const Point old = nl.qubit(i).pos;
    const Point np{sol_x.position[static_cast<std::size_t>(i)],
                   sol_y.position[static_cast<std::size_t>(i)]};
    nl.qubit(i).pos = np;
    const double d = distance(old, np);
    result.total_displacement += d;
    result.max_displacement = std::max(result.max_displacement, d);
  }
  result.success = qubits_legal(nl, 0.0);
  return result;
}

}  // namespace qgdp
