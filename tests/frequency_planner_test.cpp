// Tests for the frequency planning module.
#include <gtest/gtest.h>

#include <cmath>

#include "netlist/frequency_planner.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

struct StrategyCase {
  ColoringStrategy strategy;
  const char* name;
};

void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class ColoringTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(ColoringTest, GridThreeColorsNoAdjacentCollision) {
  // A square lattice is 2-colorable; any proper strategy with 3 groups
  // must avoid adjacent collisions entirely.
  const auto spec = make_grid_device();
  const auto colors = color_qubit_graph(spec, 3, GetParam().strategy);
  if (GetParam().strategy == ColoringStrategy::kRoundRobin) {
    GTEST_SKIP() << "round-robin is the no-guarantee baseline";
  }
  for (const auto& [a, b] : spec.couplings) {
    EXPECT_NE(colors[static_cast<std::size_t>(a)], colors[static_cast<std::size_t>(b)])
        << GetParam().name << ": adjacent qubits " << a << "," << b << " share a group";
  }
}

TEST_P(ColoringTest, ColorsWithinRange) {
  for (const auto& spec : all_paper_topologies()) {
    const auto colors = color_qubit_graph(spec, 3, GetParam().strategy);
    ASSERT_EQ(colors.size(), static_cast<std::size_t>(spec.qubit_count));
    for (const int c : colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ColoringTest,
                         ::testing::Values(StrategyCase{ColoringStrategy::kGreedy, "greedy"},
                                           StrategyCase{ColoringStrategy::kDsatur, "dsatur"},
                                           StrategyCase{ColoringStrategy::kRoundRobin,
                                                        "round-robin"}),
                         test_support::PrintedParamName{});

TEST(ColoringQuality, DsaturNoWorseThanRoundRobinOnXtree) {
  const auto spec = make_xtree();
  auto collisions = [&](ColoringStrategy s) {
    const auto colors = color_qubit_graph(spec, 3, s);
    int c = 0;
    for (const auto& [a, b] : spec.couplings) {
      c += colors[static_cast<std::size_t>(a)] == colors[static_cast<std::size_t>(b)] ? 1 : 0;
    }
    return c;
  };
  EXPECT_LE(collisions(ColoringStrategy::kDsatur), collisions(ColoringStrategy::kRoundRobin));
  EXPECT_EQ(collisions(ColoringStrategy::kDsatur), 0);  // trees are 2-colorable
}

TEST(QubitFrequencies, GroupsAndJitterBounds) {
  const auto spec = make_falcon27();
  QubitFrequencyPlan plan;
  const auto freq = assign_qubit_frequencies(spec, plan);
  for (const double f : freq) {
    EXPECT_GE(f, plan.base_ghz - plan.jitter_ghz - 1e-12);
    EXPECT_LE(f, plan.base_ghz + 2 * plan.step_ghz + plan.jitter_ghz + 1e-12);
  }
}

TEST(QubitFrequencies, DeterministicPerSeed) {
  const auto spec = make_falcon27();
  QubitFrequencyPlan plan;
  const auto a = assign_qubit_frequencies(spec, plan);
  const auto b = assign_qubit_frequencies(spec, plan);
  EXPECT_EQ(a, b);
  plan.seed = 99;
  EXPECT_NE(assign_qubit_frequencies(spec, plan), a);
}

TEST(ResonatorFrequencies, WithinBandAndDetunedAtSharedQubits) {
  const auto spec = make_grid_device();
  ResonatorFrequencyPlan plan;
  const auto freq = assign_resonator_frequencies(spec, plan);
  ASSERT_EQ(freq.size(), static_cast<std::size_t>(spec.edge_count()));
  for (const double f : freq) {
    EXPECT_GT(f, plan.band_lo_ghz);
    EXPECT_LT(f, plan.band_hi_ghz);
  }
  // Shared-qubit detuning at least one slot width apart.
  const int slots = std::max(8, spec.edge_count());
  const double slot_width = (plan.band_hi_ghz - plan.band_lo_ghz) / slots;
  std::vector<std::vector<int>> at_qubit(static_cast<std::size_t>(spec.qubit_count));
  for (int e = 0; e < spec.edge_count(); ++e) {
    const auto [a, b] = spec.couplings[static_cast<std::size_t>(e)];
    at_qubit[static_cast<std::size_t>(a)].push_back(e);
    at_qubit[static_cast<std::size_t>(b)].push_back(e);
  }
  for (const auto& inc : at_qubit) {
    for (std::size_t i = 0; i < inc.size(); ++i) {
      for (std::size_t j = i + 1; j < inc.size(); ++j) {
        EXPECT_GT(std::abs(freq[static_cast<std::size_t>(inc[i])] -
                           freq[static_cast<std::size_t>(inc[j])]),
                  slot_width * 0.99);
      }
    }
  }
}

TEST(PlanReport, CleanPlanScoresClean) {
  const auto spec = make_grid_device();
  const auto colors = color_qubit_graph(spec, 3, ColoringStrategy::kGreedy);
  QubitFrequencyPlan qplan;
  const auto qfreq = assign_qubit_frequencies(spec, qplan);
  const auto rfreq = assign_resonator_frequencies(spec, {});
  const auto rep = evaluate_frequency_plan(spec, qfreq, colors, rfreq);
  EXPECT_EQ(rep.adjacent_same_group, 0);
  EXPECT_GT(rep.min_adjacent_detuning, 0.03);
  EXPECT_GT(rep.min_shared_qubit_resonator_detuning, 0.0);
}

TEST(PlanReport, RoundRobinShowsCollisions) {
  // On a 3-wide grid, vertical neighbours differ by 3 ≡ 0 (mod 3):
  // round-robin coloring collides on every vertical coupling.
  const auto spec = make_grid_device(3, 3);
  const auto colors = color_qubit_graph(spec, 3, ColoringStrategy::kRoundRobin);
  QubitFrequencyPlan qplan;
  qplan.strategy = ColoringStrategy::kRoundRobin;
  const auto qfreq = assign_qubit_frequencies(spec, qplan);
  const auto rfreq = assign_resonator_frequencies(spec, {});
  const auto rep = evaluate_frequency_plan(spec, qfreq, colors, rfreq);
  EXPECT_EQ(rep.adjacent_same_group, 6);  // all vertical couplings
}

TEST(BuilderIntegration, StrategySelectable) {
  BuilderParams p;
  p.coloring = ColoringStrategy::kDsatur;
  const auto nl = build_netlist(make_xtree(), p);
  for (const auto& e : nl.edges()) {
    EXPECT_GT(std::abs(nl.qubit(e.q0).frequency - nl.qubit(e.q1).frequency), 0.03);
  }
}

}  // namespace
}  // namespace qgdp
