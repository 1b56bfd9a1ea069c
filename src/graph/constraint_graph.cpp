#include "graph/constraint_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/min_cost_flow.h"
#include "graph/union_find.h"

namespace qgdp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Arcs within this slack of equality are "tight" and clump rigidly.
constexpr double kTightEps = 1e-7;
/// Post-hoc feasibility verification tolerance.
constexpr double kFeasEps = 1e-7;
}

ConstraintGraph::ConstraintGraph(std::size_t node_count)
    : lower_(node_count, -kInf), upper_(node_count, kInf) {}

void ConstraintGraph::add_constraint(int from, int to, double gap) {
  assert(from >= 0 && static_cast<std::size_t>(from) < node_count());
  assert(to >= 0 && static_cast<std::size_t>(to) < node_count());
  assert(from != to);
  arcs_.push_back({from, to, gap});
  adjacency_dirty_ = true;
  topo_dirty_ = true;
}

void ConstraintGraph::set_bounds(int node, double lower, double upper) {
  lower_[static_cast<std::size_t>(node)] = lower;
  upper_[static_cast<std::size_t>(node)] = upper;
}

void ConstraintGraph::build_adjacency_() const {
  if (!adjacency_dirty_) return;
  // Counting-sort both CSR views straight from the arc list — no
  // per-node vectors. Arcs are visited in insertion order, so each
  // node's slice keeps the per-node arc order the solver's
  // floating-point folds have always seen.
  const std::size_t n = node_count();
  const std::size_t m = arcs_.size();
  auto build = [&](bool incoming, CsrAdjacency& csr) {
    csr.off.assign(n + 1, 0);
    csr.node.resize(m);
    csr.gap.resize(m);
    for (const auto& a : arcs_) {
      ++csr.off[static_cast<std::size_t>(incoming ? a.to : a.from) + 1];
    }
    for (std::size_t u = 0; u < n; ++u) csr.off[u + 1] += csr.off[u];
    std::vector<int> cursor(csr.off.begin(), csr.off.end() - 1);
    for (const auto& a : arcs_) {
      const auto key = static_cast<std::size_t>(incoming ? a.to : a.from);
      const auto pos = static_cast<std::size_t>(cursor[key]++);
      csr.node[pos] = incoming ? a.from : a.to;
      csr.gap[pos] = a.gap;
    }
  };
  build(false, out_csr_);
  build(true, in_csr_);
  adjacency_dirty_ = false;
}

const ConstraintGraph::CsrAdjacency& ConstraintGraph::out_csr() const {
  build_adjacency_();
  return out_csr_;
}

const ConstraintGraph::CsrAdjacency& ConstraintGraph::in_csr() const {
  build_adjacency_();
  return in_csr_;
}

const std::vector<int>& ConstraintGraph::topological_order_() const {
  if (topo_dirty_) {
    topo_cache_ = topological_order();
    topo_dirty_ = false;
  }
  return topo_cache_;
}

std::vector<int> ConstraintGraph::topological_order() const {
  build_adjacency_();
  std::vector<int> indegree(node_count(), 0);
  for (const auto& a : arcs_) ++indegree[static_cast<std::size_t>(a.to)];
  std::queue<int> q;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (indegree[i] == 0) q.push(static_cast<int>(i));
  }
  std::vector<int> order;
  order.reserve(node_count());
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    order.push_back(u);
    for (int k = out_csr_.off[static_cast<std::size_t>(u)];
         k < out_csr_.off[static_cast<std::size_t>(u) + 1]; ++k) {
      const int v = out_csr_.node[static_cast<std::size_t>(k)];
      if (--indegree[static_cast<std::size_t>(v)] == 0) q.push(v);
    }
  }
  if (order.size() != node_count()) return {};  // cycle
  return order;
}

std::vector<double> ConstraintGraph::tightest_lower_bounds() const {
  const auto& order = topological_order_();
  if (order.empty() && node_count() > 0) {
    throw std::logic_error("ConstraintGraph: cycle detected in tightest_lower_bounds");
  }
  const CsrAdjacency& out = out_csr();
  std::vector<double> L(lower_);
  for (const int u : order) {
    const double base = L[static_cast<std::size_t>(u)];
    for (int k = out.off[static_cast<std::size_t>(u)];
         k < out.off[static_cast<std::size_t>(u) + 1]; ++k) {
      const auto v = static_cast<std::size_t>(out.node[static_cast<std::size_t>(k)]);
      L[v] = std::max(L[v], base + out.gap[static_cast<std::size_t>(k)]);
    }
  }
  return L;
}

std::vector<double> ConstraintGraph::tightest_upper_bounds() const {
  const auto& order = topological_order_();
  if (order.empty() && node_count() > 0) {
    throw std::logic_error("ConstraintGraph: cycle detected in tightest_upper_bounds");
  }
  const CsrAdjacency& in = in_csr();
  std::vector<double> U(upper_);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const double base = U[static_cast<std::size_t>(*it)];
    for (int k = in.off[static_cast<std::size_t>(*it)];
         k < in.off[static_cast<std::size_t>(*it) + 1]; ++k) {
      const auto v = static_cast<std::size_t>(in.node[static_cast<std::size_t>(k)]);
      U[v] = std::min(U[v], base - in.gap[static_cast<std::size_t>(k)]);
    }
  }
  return U;
}

bool ConstraintGraph::feasible(double eps) const {
  return infeasible_nodes(eps).empty();
}

std::vector<int> ConstraintGraph::infeasible_nodes(double eps) const {
  if (topological_order_().empty() && !arcs_.empty()) {
    // A cyclic graph is treated as fully infeasible.
    std::vector<int> all(node_count());
    for (std::size_t i = 0; i < node_count(); ++i) all[i] = static_cast<int>(i);
    return all;
  }
  const auto L = tightest_lower_bounds();
  const auto U = tightest_upper_bounds();
  std::vector<int> bad;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (L[i] > U[i] + eps) bad.push_back(static_cast<int>(i));
  }
  return bad;
}

DisplacementSolver::Solution DisplacementSolver::solve(const ConstraintGraph& g,
                                                       const std::vector<double>& target,
                                                       const std::vector<double>& weight) const {
  const std::size_t n = g.node_count();
  assert(target.size() == n);
  Solution sol;
  sol.position.assign(n, 0.0);
  const auto& order = g.topo_order();
  if (order.empty() && n > 0) return sol;  // cyclic: infeasible

  const auto L = g.tightest_lower_bounds();
  const auto U = g.tightest_upper_bounds();
  // Inline feasibility check (same test as ConstraintGraph::feasible);
  // L and U are needed for the sweep inits anyway, so the solver pays
  // for the bound propagation exactly once.
  for (std::size_t i = 0; i < n; ++i) {
    if (L[i] > U[i] + 1e-9) return sol;  // over-constrained: infeasible
  }
  const auto& arcs = g.constraints();
  // Flat CSR adjacency: the sweeps below fold over each node's arcs
  // thousands of times, and chasing per-node index vectors into the
  // arc array dominated the qubit-legalization profile. The CSR view
  // yields the same (neighbour, gap) sequence per node, so every
  // max/min fold sees the identical operand order.
  const ConstraintGraph::CsrAdjacency& in = g.in_csr();
  const ConstraintGraph::CsrAdjacency& out = g.out_csr();
  auto& x = sol.position;

  // Refinement: alternate (a) coordinate-wise sweeps — optimal move of
  // one node given fixed neighbours — with (b) clump moves: nodes
  // connected by *tight* constraints shift jointly to the weighted
  // median of their residuals (the L1 analogue of Abacus clumping;
  // single-node descent alone stalls on tight chains).
  // The max/min folds below run with two independent accumulators to
  // break the serial dependence chain (the per-arc adds are
  // element-wise and max/min select an operand without rounding, so
  // any fold order produces the identical bound).
  auto fold_lo = [&](int u, const double* xs) {
    const int k0 = in.off[static_cast<std::size_t>(u)];
    const int k1 = in.off[static_cast<std::size_t>(u) + 1];
    double a = g.lower(u);
    double b = -std::numeric_limits<double>::infinity();
    int k = k0;
    for (; k + 1 < k1; k += 2) {
      a = std::max(a, xs[in.node[static_cast<std::size_t>(k)]] +
                          in.gap[static_cast<std::size_t>(k)]);
      b = std::max(b, xs[in.node[static_cast<std::size_t>(k + 1)]] +
                          in.gap[static_cast<std::size_t>(k + 1)]);
    }
    if (k < k1) {
      a = std::max(a, xs[in.node[static_cast<std::size_t>(k)]] +
                          in.gap[static_cast<std::size_t>(k)]);
    }
    return std::max(a, b);
  };
  auto fold_hi = [&](int u, const double* xs) {
    const int k0 = out.off[static_cast<std::size_t>(u)];
    const int k1 = out.off[static_cast<std::size_t>(u) + 1];
    double a = g.upper(u);
    double b = std::numeric_limits<double>::infinity();
    int k = k0;
    for (; k + 1 < k1; k += 2) {
      a = std::min(a, xs[out.node[static_cast<std::size_t>(k)]] -
                          out.gap[static_cast<std::size_t>(k)]);
      b = std::min(b, xs[out.node[static_cast<std::size_t>(k + 1)]] -
                          out.gap[static_cast<std::size_t>(k + 1)]);
    }
    if (k < k1) {
      a = std::min(a, xs[out.node[static_cast<std::size_t>(k)]] -
                          out.gap[static_cast<std::size_t>(k)]);
    }
    return std::min(a, b);
  };
  auto relax_node = [&](int u, double& moved) {
    const double lo = fold_lo(u, x.data());
    const double hi = fold_hi(u, x.data());
    if (lo > hi) return;  // neighbours pin this node; keep position
    const double nx = std::clamp(target[static_cast<std::size_t>(u)], lo, hi);
    moved += std::abs(nx - x[static_cast<std::size_t>(u)]);
    x[static_cast<std::size_t>(u)] = nx;
  };

  // Forward init: feasible by construction (see DESIGN.md §6.1) —
  // every node is pushed right just enough to clear its predecessors,
  // and clamping to the tightest upper bound cannot violate them.
  std::vector<double> x_fwd(n);
  for (const int u : order) {
    const double lo = fold_lo(u, x_fwd.data());
    x_fwd[static_cast<std::size_t>(u)] = std::clamp(
        target[static_cast<std::size_t>(u)], lo, std::max(lo, U[static_cast<std::size_t>(u)]));
  }
  // Backward init: symmetric, pulled left just enough to clear
  // successors; also feasible.
  std::vector<double> x_bwd(n);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    const double hi = fold_hi(u, x_bwd.data());
    x_bwd[static_cast<std::size_t>(u)] = std::clamp(
        target[static_cast<std::size_t>(u)], std::min(L[static_cast<std::size_t>(u)], hi), hi);
  }
  // clump_pass workspace, reused across sweeps. Members and boundary
  // arcs are grouped per cluster root in CSR form so one pass touches
  // every arc O(1) times — the previous per-cluster rescan of the full
  // arc list was the pipeline's super-linear hot spot on dense classic
  // (spacing-0) inputs, where nearly every constraint is tight and the
  // cluster count tracks n.
  std::vector<int> root_of(n);
  std::vector<int> member_off, member_items;           // members per root
  std::vector<int> boundary_off, boundary_items;       // boundary arcs per root
  std::vector<std::pair<double, double>> residual;     // (value, weight) scratch
  auto clump_pass = [&]() {
    double moved = 0.0;
    UnionFind uf(n);
    for (const auto& a : arcs) {
      if (std::abs(x[static_cast<std::size_t>(a.to)] - x[static_cast<std::size_t>(a.from)] -
                   a.gap) <= kTightEps) {
        uf.unite(static_cast<std::size_t>(a.from), static_cast<std::size_t>(a.to));
      }
    }
    for (std::size_t i = 0; i < n; ++i) root_of[i] = static_cast<int>(uf.find(i));
    // Members per cluster root (counting sort: ascending node id within
    // each root, exactly the order the per-root vectors used to hold).
    member_off.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++member_off[static_cast<std::size_t>(root_of[i]) + 1];
    for (std::size_t r = 0; r < n; ++r) member_off[r + 1] += member_off[r];
    member_items.resize(n);
    {
      std::vector<int> cursor(member_off.begin(), member_off.end() - 1);
      for (std::size_t i = 0; i < n; ++i) {
        member_items[static_cast<std::size_t>(cursor[static_cast<std::size_t>(root_of[i])]++)] =
            static_cast<int>(i);
      }
    }
    // Boundary arcs per root (arc order preserved within each root, so
    // the shift_lo/shift_hi accumulation sees the same sequence as the
    // historical full-arc scan — min/max folds are order-exact anyway).
    boundary_off.assign(n + 1, 0);
    for (const auto& a : arcs) {
      const int rf = root_of[static_cast<std::size_t>(a.from)];
      const int rt = root_of[static_cast<std::size_t>(a.to)];
      if (rf == rt) continue;
      ++boundary_off[static_cast<std::size_t>(rf) + 1];
      ++boundary_off[static_cast<std::size_t>(rt) + 1];
    }
    for (std::size_t r = 0; r < n; ++r) boundary_off[r + 1] += boundary_off[r];
    boundary_items.resize(boundary_off[n]);
    {
      std::vector<int> cursor(boundary_off.begin(), boundary_off.end() - 1);
      for (std::size_t k = 0; k < arcs.size(); ++k) {
        const auto& a = arcs[k];
        const int rf = root_of[static_cast<std::size_t>(a.from)];
        const int rt = root_of[static_cast<std::size_t>(a.to)];
        if (rf == rt) continue;
        boundary_items[static_cast<std::size_t>(cursor[static_cast<std::size_t>(rf)]++)] =
            static_cast<int>(k);
        boundary_items[static_cast<std::size_t>(cursor[static_cast<std::size_t>(rt)]++)] =
            static_cast<int>(k);
      }
    }
    for (std::size_t root = 0; root < n; ++root) {
      const int m_lo = member_off[root];
      const int m_hi = member_off[root + 1];
      if (m_hi - m_lo < 2) continue;
      // Allowed uniform shift range from bounds and non-tight external
      // constraints (tight intra-cluster arcs shift rigidly).
      double shift_lo = -kInf;
      double shift_hi = kInf;
      for (int m = m_lo; m < m_hi; ++m) {
        const int u = member_items[static_cast<std::size_t>(m)];
        shift_lo = std::max(shift_lo, g.lower(u) - x[static_cast<std::size_t>(u)]);
        shift_hi = std::min(shift_hi, g.upper(u) - x[static_cast<std::size_t>(u)]);
      }
      for (int b = boundary_off[root]; b < boundary_off[root + 1]; ++b) {
        const auto& a = arcs[static_cast<std::size_t>(boundary_items[static_cast<std::size_t>(b)])];
        const bool from_in = root_of[static_cast<std::size_t>(a.from)] == static_cast<int>(root);
        const double slack = x[static_cast<std::size_t>(a.to)] -
                             x[static_cast<std::size_t>(a.from)] - a.gap;
        if (from_in) {
          shift_hi = std::min(shift_hi, slack);  // moving right eats slack
        } else {
          shift_lo = std::max(shift_lo, -slack);
        }
      }
      if (shift_lo > shift_hi) continue;
      // Optimal shift: weighted median of residuals (the L1 optimum of
      // a rigid translation). The scratch vector lives outside the
      // pass so each cluster reuses its allocation.
      residual.clear();
      residual.reserve(static_cast<std::size_t>(m_hi - m_lo));
      double total_w = 0.0;
      for (int m = m_lo; m < m_hi; ++m) {
        const int u = member_items[static_cast<std::size_t>(m)];
        const double w = weight.empty() ? 1.0 : weight[static_cast<std::size_t>(u)];
        residual.emplace_back(
            target[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(u)], w);
        total_w += w;
      }
      std::sort(residual.begin(), residual.end());
      double acc = 0.0;
      double median = residual.back().first;
      for (const auto& [v, w] : residual) {
        acc += w;
        if (acc >= total_w / 2) {
          median = v;
          break;
        }
      }
      const double s = std::clamp(median, shift_lo, shift_hi);
      if (std::abs(s) <= kTightEps) continue;
      for (int m = m_lo; m < m_hi; ++m) {
        x[static_cast<std::size_t>(member_items[static_cast<std::size_t>(m)])] += s;
      }
      moved += std::abs(s) * static_cast<double>(m_hi - m_lo);
    }
    return moved;
  };

  auto objective_of = [&](const std::vector<double>& pos) {
    double o = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight.empty() ? 1.0 : weight[i];
      o += w * std::abs(pos[i] - target[i]);
    }
    return o;
  };

  // Full-sweep refinement: every sweep relaxes all n nodes, alternating
  // backward and forward topological order, then re-clumps the whole
  // graph, until the total movement of a sweep drops below
  // convergence_eps or max_sweeps is reached.
  auto refine = [&](std::vector<double> init, bool& conv) {
    x = std::move(init);
    conv = false;
    for (int s = 0; s < opt_.max_sweeps; ++s) {
      ++sol.sweeps_used;
      double moved = 0.0;
      const bool backward = (s % 2 == 0);
      if (backward) {
        for (auto it = order.rbegin(); it != order.rend(); ++it) relax_node(*it, moved);
      } else {
        for (const int u : order) relax_node(u, moved);
      }
      moved += clump_pass();
      if (moved < opt_.convergence_eps) {
        conv = true;
        break;
      }
    }
    return x;
  };

  const bool run_fwd = opt_.start != Start::kBackward;
  const bool run_bwd = opt_.start != Start::kForward;
  bool conv_fwd = false;
  bool conv_bwd = false;
  std::vector<double> sol_fwd;
  std::vector<double> sol_bwd;
  if (run_fwd) sol_fwd = refine(std::move(x_fwd), conv_fwd);
  if (run_bwd) sol_bwd = refine(std::move(x_bwd), conv_bwd);
  const bool pick_fwd =
      !run_bwd || (run_fwd && objective_of(sol_fwd) <= objective_of(sol_bwd));
  x = std::move(pick_fwd ? sol_fwd : sol_bwd);
  sol.converged = pick_fwd ? conv_fwd : conv_bwd;

  // Verify feasibility and compute the objective. This runs on the
  // final iterate regardless of how refinement ended, so a max_sweeps
  // stall (converged == false) still reports an honest `feasible`.
  sol.feasible = true;
  for (const auto& a : arcs) {
    if (x[static_cast<std::size_t>(a.to)] - x[static_cast<std::size_t>(a.from)] <
        a.gap - kFeasEps) {
      sol.feasible = false;
      break;
    }
  }
  for (std::size_t i = 0; i < n && sol.feasible; ++i) {
    if (x[i] < g.lower(static_cast<int>(i)) - kFeasEps ||
        x[i] > g.upper(static_cast<int>(i)) + kFeasEps) {
      sol.feasible = false;
    }
  }
  sol.objective = objective_of(x);
  return sol;
}

double DisplacementSolver::dual_lower_bound(const ConstraintGraph& g,
                                            const std::vector<double>& target,
                                            const std::vector<double>& weight) const {
  // LP dual (see min_cost_flow.h): maximize Σ s_a · y_a over flows y ≥ 0
  // with per-node net-outflow capacity weight[i]. Bounds are modelled as
  // constraints against two heavy wall nodes pinned at their targets.
  const int n = static_cast<int>(g.node_count());
  if (n == 0) return 0.0;
  constexpr std::int64_t kScale = 1 << 20;
  const int wall_lo = n;
  const int wall_hi = n + 1;
  const int S = n + 2;
  const int T = n + 3;
  MinCostFlow mcf(n + 4);

  const std::int64_t heavy = 64LL * (n + 2);
  auto node_weight = [&](int i) -> std::int64_t {
    if (i == wall_lo || i == wall_hi) return heavy;
    const double w = weight.empty() ? 1.0 : weight[static_cast<std::size_t>(i)];
    return static_cast<std::int64_t>(std::llround(w));
  };
  for (int i = 0; i < n + 2; ++i) {
    mcf.add_arc(S, i, node_weight(i), 0);
    mcf.add_arc(i, T, node_weight(i), 0);
  }
  auto add_dual_arc = [&](int from, int to, double gap, double g_from, double g_to) {
    const double s = gap - (g_to - g_from);
    const auto sc = static_cast<std::int64_t>(std::llround(s * kScale));
    mcf.add_arc(from, to, 16LL * heavy, -sc);
  };
  // Wall targets: pin at the extreme bounds actually present.
  double lo_pos = 0.0;
  double hi_pos = 0.0;
  for (int i = 0; i < n; ++i) {
    if (std::isfinite(g.lower(i))) lo_pos = std::min(lo_pos, g.lower(i));
    if (std::isfinite(g.upper(i))) hi_pos = std::max(hi_pos, g.upper(i));
  }
  for (const auto& a : g.constraints()) {
    add_dual_arc(a.from, a.to, a.gap, target[static_cast<std::size_t>(a.from)],
                 target[static_cast<std::size_t>(a.to)]);
  }
  for (int i = 0; i < n; ++i) {
    if (std::isfinite(g.lower(i))) {
      add_dual_arc(wall_lo, i, g.lower(i) - lo_pos, lo_pos, target[static_cast<std::size_t>(i)]);
    }
    if (std::isfinite(g.upper(i))) {
      add_dual_arc(i, wall_hi, hi_pos - g.upper(i), target[static_cast<std::size_t>(i)], hi_pos);
    }
  }
  const auto res = mcf.solve_min_cost(S, T);
  return static_cast<double>(-res.cost) / static_cast<double>(kScale);
}

}  // namespace qgdp
