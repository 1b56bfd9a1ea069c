// Integration tests for the qGDP core: qubit legalizer, the
// integration-aware resonator legalizer (Algorithm 1), the detailed
// placer (Algorithm 2), and the end-to-end pipeline on every topology.
#include <gtest/gtest.h>

#include <set>

#include "core/detailed_placer.h"
#include "core/pipeline.h"
#include "core/qubit_legalizer.h"
#include "core/resonator_legalizer.h"
#include "legalization/tetris_legalizer.h"
#include "metrics/clusters.h"
#include "metrics/crossings.h"
#include "metrics/hotspots.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "placement/global_placer.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

QuantumNetlist placed_netlist(const DeviceSpec& spec, unsigned seed = 1) {
  QuantumNetlist nl = build_netlist(spec);
  GlobalPlacerOptions opt;
  opt.seed = seed;
  GlobalPlacer(opt).place(nl);
  return nl;
}

void expect_layout_legal(const QuantumNetlist& nl, double qubit_spacing) {
  EXPECT_TRUE(qubits_legal(nl, qubit_spacing - 1e-9));
  std::set<std::pair<long, long>> taken;
  for (const auto& b : nl.blocks()) {
    EXPECT_TRUE(nl.die().inflated(1e-6).contains(b.rect()));
    const auto key = std::make_pair(std::lround(b.pos.x * 2), std::lround(b.pos.y * 2));
    EXPECT_TRUE(taken.insert(key).second) << "blocks stacked at " << b.pos.x << "," << b.pos.y;
    for (const auto& q : nl.qubits()) {
      EXPECT_FALSE(q.rect().overlaps(b.rect()));
    }
  }
}

TEST(QubitLegalizerTest, QuantumPresetSpacing) {
  QuantumNetlist nl = placed_netlist(make_falcon27());
  QubitLegalizer ql(true);
  const auto res = ql.legalize(nl);
  ASSERT_TRUE(res.success);
  EXPECT_FALSE(res.used_fallback);
  EXPECT_GE(res.spacing_used, 1.0);
  EXPECT_TRUE(qubits_legal(nl, res.spacing_used - 1e-9));
}

TEST(QubitLegalizerTest, FallbackHandlesDegenerateStacks) {
  // All qubits on the same point: the constraint graph path or the
  // lattice fallback must still produce a legal layout.
  QuantumNetlist nl;
  for (int i = 0; i < 9; ++i) nl.add_qubit({15.0, 15.0}, 3, 3, 5.0);
  nl.set_die(Rect{0, 0, 30, 30});
  QubitLegalizer ql(true);
  const auto res = ql.legalize(nl);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(qubits_legal(nl, 1.0 - 1e-9));
}

TEST(ResonatorLegalizerTest, PlacesEverythingAndUnifiesMost) {
  QuantumNetlist nl = placed_netlist(make_grid_device());
  QubitLegalizer(true).legalize(nl);
  BinGrid grid(nl.die());
  for (const auto& q : nl.qubits()) grid.block_rect(q.rect());
  const auto res = ResonatorLegalizer{}.legalize(nl, grid);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.placed, static_cast<int>(nl.block_count()));
  expect_layout_legal(nl, 1.0);
  // Integration-awareness: the overwhelming majority of edges unified.
  EXPECT_GE(unified_edge_count(nl), static_cast<int>(nl.edge_count()) - 2);
}

TEST(ResonatorLegalizerTest, BeatsTetrisOnClusterCount) {
  QuantumNetlist base = placed_netlist(make_falcon27());
  QubitLegalizer(true).legalize(base);

  auto run = [&](const BlockLegalizer& lg) {
    QuantumNetlist nl = base;
    BinGrid grid(nl.die());
    for (const auto& q : nl.qubits()) grid.block_rect(q.rect());
    lg.legalize(nl, grid);
    return total_cluster_count(nl);
  };
  const int qgdp_clusters = run(ResonatorLegalizer{});
  const int tetris_clusters = run(TetrisLegalizer{});
  EXPECT_LT(qgdp_clusters, tetris_clusters);
  // qGDP should be near the ideal Σ|Ce| = |E| (Eq. 3).
  EXPECT_LE(qgdp_clusters, static_cast<int>(base.edge_count()) + 4);
}

TEST(ResonatorLegalizerTest, IntegrationAblation) {
  // Disabling the Baa discipline must not *improve* cluster counts.
  QuantumNetlist base = placed_netlist(make_falcon27());
  QubitLegalizer(true).legalize(base);
  auto run = [&](bool aware) {
    QuantumNetlist nl = base;
    BinGrid grid(nl.die());
    for (const auto& q : nl.qubits()) grid.block_rect(q.rect());
    ResonatorLegalizerOptions opt;
    opt.integration_aware = aware;
    ResonatorLegalizer{opt}.legalize(nl, grid);
    return total_cluster_count(nl);
  };
  EXPECT_LE(run(true), run(false));
}

TEST(ResonatorLegalizerTest, EdgeOrderOptionsAllLegal) {
  QuantumNetlist base = placed_netlist(make_grid_device());
  QubitLegalizer(true).legalize(base);
  using Order = ResonatorLegalizerOptions::EdgeOrder;
  for (const Order order : {Order::kIndex, Order::kSizeDesc, Order::kContention}) {
    QuantumNetlist nl = base;
    BinGrid grid(nl.die());
    for (const auto& q : nl.qubits()) grid.block_rect(q.rect());
    ResonatorLegalizerOptions opt;
    opt.order = order;
    const auto res = ResonatorLegalizer{opt}.legalize(nl, grid);
    EXPECT_TRUE(res.success);
    expect_layout_legal(nl, 1.0);
  }
}

TEST(DetailedPlacerTest, NeverDegradesClustersOrHotspots) {
  QuantumNetlist nl = placed_netlist(make_eagle127());
  PipelineOptions opt;
  opt.run_gp = false;
  opt.legalizer = LegalizerKind::kQgdp;
  auto out = Pipeline(opt).run(nl);

  const int clusters_before = total_cluster_count(nl);
  const double ph_before = compute_hotspots(nl).ph;

  DetailedPlacer dp;
  const auto res = dp.place(nl, out.grid);
  EXPECT_GE(res.examined, 0);

  EXPECT_LE(total_cluster_count(nl), clusters_before);
  EXPECT_LE(compute_hotspots(nl).ph, ph_before + 1e-12);
  expect_layout_legal(nl, 1.0);
}

TEST(DetailedPlacerTest, GridStateConsistentAfterDp) {
  QuantumNetlist nl = placed_netlist(make_falcon27());
  PipelineOptions opt;
  opt.run_gp = false;
  opt.legalizer = LegalizerKind::kQgdp;
  opt.run_detailed = true;
  auto out = Pipeline(opt).run(nl);
  // Every block position must match an occupied bin holding its id.
  for (const auto& b : nl.blocks()) {
    const BinCoord bin = out.grid.bin_at(b.pos);
    EXPECT_EQ(out.grid.occupant(bin), b.id);
    EXPECT_EQ(out.grid.center_of(bin), b.pos);
  }
}

struct PipelineCase {
  const char* topology;
  LegalizerKind kind;
};

void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << c.topology << '_' << legalizer_name(c.kind);
}

class PipelineMatrix : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineMatrix, ProducesLegalLayout) {
  const auto p = GetParam();
  const auto topos = all_paper_topologies();
  const auto it = std::find_if(topos.begin(), topos.end(),
                               [&](const DeviceSpec& d) { return d.name == p.topology; });
  ASSERT_NE(it, topos.end());
  QuantumNetlist nl = build_netlist(*it);
  PipelineOptions opt;
  opt.legalizer = p.kind;
  opt.run_detailed = (p.kind == LegalizerKind::kQgdp);
  const auto out = Pipeline(opt).run(nl);
  EXPECT_TRUE(out.stats.qubit.success);
  EXPECT_TRUE(out.stats.blocks.success);
  expect_layout_legal(nl, quantum_flow(p.kind) ? out.stats.qubit.spacing_used : 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlows, PipelineMatrix,
    ::testing::Values(PipelineCase{"Grid", LegalizerKind::kQgdp},
                      PipelineCase{"Grid", LegalizerKind::kTetris},
                      PipelineCase{"Grid", LegalizerKind::kAbacus},
                      PipelineCase{"Grid", LegalizerKind::kQTetris},
                      PipelineCase{"Grid", LegalizerKind::kQAbacus},
                      PipelineCase{"Falcon", LegalizerKind::kQgdp},
                      PipelineCase{"Falcon", LegalizerKind::kTetris},
                      PipelineCase{"Xtree", LegalizerKind::kQgdp},
                      PipelineCase{"Aspen-11", LegalizerKind::kQgdp},
                      PipelineCase{"Aspen-M", LegalizerKind::kQAbacus},
                      PipelineCase{"Eagle", LegalizerKind::kQgdp},
                      PipelineCase{"Eagle", LegalizerKind::kAbacus}),
    test_support::PrintedParamName{});

TEST(PipelineTest, QgdpDominatesBaselinesOnCrossings) {
  // The headline claim: integration-aware legalization slashes
  // resonator crossings versus classic cell legalizers.
  QuantumNetlist gp = placed_netlist(make_falcon27());
  auto run = [&](LegalizerKind kind) {
    QuantumNetlist nl = gp;
    PipelineOptions opt;
    opt.run_gp = false;
    opt.legalizer = kind;
    Pipeline(opt).run(nl);
    return compute_crossings(nl).total;
  };
  const int x_qgdp = run(LegalizerKind::kQgdp);
  const int x_tetris = run(LegalizerKind::kTetris);
  const int x_abacus = run(LegalizerKind::kAbacus);
  EXPECT_LT(x_qgdp, x_tetris / 2);
  EXPECT_LT(x_qgdp, x_abacus / 2);
}

TEST(PipelineTest, NamesAndOrder) {
  EXPECT_EQ(legalizer_name(LegalizerKind::kQgdp), "qGDP");
  EXPECT_EQ(legalizer_name(LegalizerKind::kQTetris), "Q-Tetris");
  const auto& kinds = all_legalizer_kinds();
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(kinds.front(), LegalizerKind::kQgdp);
}

}  // namespace
}  // namespace qgdp
