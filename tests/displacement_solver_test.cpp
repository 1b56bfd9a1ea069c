// DisplacementSolver: feasibility, convergence and dual certification
// on random legalization-shaped instances, flow-level audits on paper
// topologies, fp-dust convergence, stall reporting, and the Start
// selection modes.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/pipeline.h"
#include "graph/constraint_graph.h"
#include "metrics/audit.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"

namespace qgdp {
namespace {

/// Random legalization-shaped instance: forward arcs (acyclic by
/// construction), box bounds, clustered targets so tight clumps form.
struct Instance {
  ConstraintGraph g;
  std::vector<double> target;
  explicit Instance(int n) : g(static_cast<std::size_t>(n)), target(static_cast<std::size_t>(n)) {}
};

Instance random_instance(unsigned seed, int n) {
  std::mt19937 rng(seed);
  Instance inst(n);
  const double span = 4.0 * n;
  std::uniform_real_distribution<double> pos(0.0, span / 2);  // crowded lower half
  std::uniform_int_distribution<int> gap(1, 3);
  for (int i = 0; i < n; ++i) {
    inst.g.set_bounds(i, 0.0, span);
    inst.target[static_cast<std::size_t>(i)] = pos(rng);
  }
  // A spine chain keeps everything coupled; extra shortcut arcs add
  // the fan-in/fan-out the legalizer graphs have.
  for (int i = 0; i + 1 < n; ++i) inst.g.add_constraint(i, i + 1, gap(rng));
  std::uniform_int_distribution<int> node(0, n - 1);
  for (int k = 0; k < n; ++k) {
    const int a = node(rng);
    const int b = node(rng);
    if (a < b) inst.g.add_constraint(a, b, gap(rng) + (b - a) / 2);
  }
  return inst;
}

double max_violation(const ConstraintGraph& g, const std::vector<double>& x) {
  double v = 0.0;
  for (const auto& a : g.constraints()) {
    v = std::max(v, a.gap - (x[static_cast<std::size_t>(a.to)] -
                             x[static_cast<std::size_t>(a.from)]));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    v = std::max(v, g.lower(static_cast<int>(i)) - x[i]);
    v = std::max(v, x[i] - g.upper(static_cast<int>(i)));
  }
  return v;
}

// ---- solution quality -------------------------------------------------

TEST(DisplacementSolverQuality, FeasibleAndConvergedOnRandomInstances) {
  for (const unsigned seed : {11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u}) {
    for (const int n : {20, 90, 300}) {
      const Instance inst = random_instance(seed, n);
      if (!inst.g.feasible()) continue;
      const auto sol = DisplacementSolver().solve(inst.g, inst.target);
      ASSERT_TRUE(sol.feasible) << "seed " << seed << " n " << n;
      EXPECT_TRUE(sol.converged) << "seed " << seed << " n " << n;
      EXPECT_LE(max_violation(inst.g, sol.position), 1e-7);
    }
  }
}

// A feasible primal can never beat the min-cost-flow lower bound, and
// on these instances the gap also bounds solution quality.
TEST(DisplacementSolverQuality, DualCertifiedOnRandomInstances) {
  for (const unsigned seed : {5u, 6u, 7u, 8u}) {
    const Instance inst = random_instance(seed, 60);
    if (!inst.g.feasible()) continue;
    const DisplacementSolver solver;
    const double lb = solver.dual_lower_bound(inst.g, inst.target);
    const auto sol = solver.solve(inst.g, inst.target);
    ASSERT_TRUE(sol.feasible);
    EXPECT_GE(sol.objective, lb - std::max(1e-3, 1e-6 * lb));
    EXPECT_LE(sol.objective, 1.5 * lb + 2.0);
  }
}

// Flow level: the qubit solves converge and the layouts audit clean.
TEST(DisplacementSolverQuality, PipelineAuditCleanOnPaperTopologies) {
  const std::vector<DeviceSpec> specs = {make_grid_device(), make_falcon27(),
                                         make_heavy_hex_device(7, 12)};
  for (const auto& spec : specs) {
    QuantumNetlist nl = build_netlist(spec);
    const auto out = Pipeline().run(nl);
    EXPECT_TRUE(out.stats.qubit.solver_converged) << spec.name;
    AuditOptions aopt;
    aopt.qubit_min_spacing = out.stats.qubit.spacing_used;
    EXPECT_TRUE(audit_layout(nl, aopt).clean()) << spec.name;
  }
}

// ---- fp dust ---------------------------------------------------------

// Gaps that are not exactly representable make every projection land
// with an ulp or two of dust. The convergence test must still trip in
// a handful of sweeps instead of chasing the dust through the whole
// sweep budget, and the result must stay feasible at the 1e-7
// verification tolerance.
TEST(Convergence, FpDustGapsConvergeQuickly) {
  const int n = 120;
  ConstraintGraph g(static_cast<std::size_t>(n));
  std::vector<double> target(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    g.set_bounds(i, 0.0, 100.0);
    // 0.1 and 0.3 are repeating fractions in binary: every projection
    // through these gaps carries representation error.
    target[static_cast<std::size_t>(i)] = 50.0 + 0.1 * i - 0.3 * (i % 7);
  }
  for (int i = 0; i + 1 < n; ++i) g.add_constraint(i, i + 1, 0.1);
  for (int i = 0; i + 13 < n; ++i) g.add_constraint(i, i + 13, 1.3);
  ASSERT_TRUE(g.feasible());

  DisplacementSolver::Options opt;
  opt.max_sweeps = 64;
  const auto sol = DisplacementSolver(opt).solve(g, target);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.converged);
  EXPECT_LT(sol.sweeps_used, 32);
  EXPECT_LE(max_violation(g, sol.position), 1e-7);
}

// ---- convergence reporting (silent-stall bugfix) --------------------

// Hitting max_sweeps used to be indistinguishable from convergence.
// Now: converged=false, while `feasible` stays an honest verdict on
// the returned (still feasible) iterate.
TEST(Convergence, StallAtMaxSweepsIsReportedHonestly) {
  const Instance inst = random_instance(7u, 200);
  ASSERT_TRUE(inst.g.feasible());
  DisplacementSolver::Options strangled;
  strangled.max_sweeps = 1;
  strangled.start = DisplacementSolver::Start::kForward;  // one refinement
  const auto stalled = DisplacementSolver(strangled).solve(inst.g, inst.target);
  EXPECT_FALSE(stalled.converged);
  EXPECT_EQ(stalled.sweeps_used, 1);
  // The iterate is still a feasible point — the inits are feasible by
  // construction and projections preserve feasibility.
  EXPECT_TRUE(stalled.feasible);
  EXPECT_LE(max_violation(inst.g, stalled.position), 1e-7);

  const auto full = DisplacementSolver().solve(inst.g, inst.target);
  EXPECT_TRUE(full.converged);
  EXPECT_LE(full.objective, stalled.objective + 1e-9);
}

// ---- start selection ------------------------------------------------

TEST(StartSelection, BothIsTheBetterOfForwardAndBackward) {
  for (const unsigned seed : {1u, 2u, 3u, 4u}) {
    const Instance inst = random_instance(seed, 100);
    if (!inst.g.feasible()) continue;
    auto with_start = [&](DisplacementSolver::Start s) {
      DisplacementSolver::Options o;
      o.start = s;
      return DisplacementSolver(o).solve(inst.g, inst.target);
    };
    const auto fwd = with_start(DisplacementSolver::Start::kForward);
    const auto bwd = with_start(DisplacementSolver::Start::kBackward);
    const auto both = with_start(DisplacementSolver::Start::kBoth);
    ASSERT_TRUE(fwd.feasible);
    ASSERT_TRUE(bwd.feasible);
    // kBoth is exactly min(fwd, bwd) with ties to forward.
    EXPECT_DOUBLE_EQ(both.objective, std::min(fwd.objective, bwd.objective));
  }
}

}  // namespace
}  // namespace qgdp
