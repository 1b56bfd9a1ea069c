#include "core/qubit_legalizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "geometry/spatial_hash.h"

namespace qgdp {

namespace {

/// Greedy lattice fallback: qubits in distance-stable order, each to
/// the nearest lattice center respecting spacing against placed ones.
bool greedy_fallback(QuantumNetlist& nl, double spacing, QubitLegalizeResult& res) {
  const Rect die = nl.die();
  const int n = static_cast<int>(nl.qubit_count());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // Stable order: left-to-right, bottom-to-top of GP positions.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Point pa = nl.qubit(a).pos;
    const Point pb = nl.qubit(b).pos;
    return pa.x != pb.x ? pa.x < pb.x : pa.y < pb.y;
  });
  std::vector<Point> placed;
  std::vector<int> placed_ids;
  // Spacing checks against already placed qubits go through a spatial
  // hash: a conflicting neighbour is within (max extent + spacing) on
  // both axes, so that cell size makes the 3×3 query exhaustive.
  double max_extent = 0.0;
  for (const auto& q : nl.qubits()) max_extent = std::max({max_extent, q.width, q.height});
  const double cell = std::max(1.0, max_extent + spacing);
  SpatialHash placed_hash(die.inflated(cell), cell);
  for (const int qi : order) {
    auto& q = nl.qubit(qi);
    const double half_w = q.width / 2;
    const double half_h = q.height / 2;
    // Spiral search over lattice candidates around the target.
    const Point t = q.pos;
    double best = std::numeric_limits<double>::infinity();
    Point best_pos;
    bool found = false;
    const int max_r = static_cast<int>(std::max(die.width(), die.height()));
    for (int r = 0; r <= max_r; ++r) {
      if (found && static_cast<double>(r - 1) > std::sqrt(best)) break;
      for (int dx = -r; dx <= r; ++dx) {
        for (int dy = -r; dy <= r; ++dy) {
          if (std::max(std::abs(dx), std::abs(dy)) != r) continue;  // ring only
          const Point c{std::round(t.x - half_w) + half_w + dx,
                        std::round(t.y - half_h) + half_h + dy};
          if (c.x < die.lo.x + half_w || c.x > die.hi.x - half_w ||
              c.y < die.lo.y + half_h || c.y > die.hi.y - half_h) {
            continue;
          }
          bool ok = true;
          placed_hash.for_each_near(c, [&](int k) {
            if (!ok) return;
            const auto& other = nl.qubit(placed_ids[static_cast<std::size_t>(k)]);
            const double need_x = (q.width + other.width) / 2 + spacing;
            const double need_y = (q.height + other.height) / 2 + spacing;
            if (std::abs(c.x - placed[static_cast<std::size_t>(k)].x) < need_x - 1e-9 &&
                std::abs(c.y - placed[static_cast<std::size_t>(k)].y) < need_y - 1e-9) {
              ok = false;
            }
          });
          if (!ok) continue;
          const double d2 = distance2(c, t);
          if (d2 < best) {
            best = d2;
            best_pos = c;
            found = true;
          }
        }
      }
    }
    if (!found) return false;
    const double d = distance(q.pos, best_pos);
    res.total_displacement += d;
    res.max_displacement = std::max(res.max_displacement, d);
    q.pos = best_pos;
    placed_hash.insert(static_cast<int>(placed.size()), best_pos);
    placed.push_back(best_pos);
    placed_ids.push_back(qi);
  }
  return true;
}

}  // namespace

QubitLegalizeResult QubitLegalizer::legalize(QuantumNetlist& nl) const {
  QubitLegalizeResult res;
  const auto engine_res = engine_.legalize(nl);
  res.spacing_used = engine_res.spacing_used;
  res.total_displacement = engine_res.total_displacement;
  res.max_displacement = engine_res.max_displacement;
  res.relaxations = engine_res.relaxations;
  res.axis_flips = engine_res.axis_flips;
  res.solver_converged = engine_res.solver_converged;
  if (engine_res.success) {
    res.success = true;
    return res;
  }
  // LP path failed (extremely dense input): greedy lattice fallback at
  // the hard minimum spacing.
  res.used_fallback = true;
  res.total_displacement = 0.0;
  res.max_displacement = 0.0;
  res.success = greedy_fallback(nl, engine_.options().min_spacing, res);
  res.spacing_used = engine_.options().min_spacing;
  return res;
}

}  // namespace qgdp
