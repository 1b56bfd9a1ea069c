// Differential suite for the Abacus block-legalization cost engine:
// the incremental clump-stack pricing (live per-interval cluster
// state, merge-cascade trials) must be bit-identical — placements,
// displacement, final grid occupancy, and every priced cost — to the
// retained from-scratch repack baseline, across seeds × the six paper
// topologies plus a pathological single-row all-blocks-clump case.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/pipeline.h"
#include "legalization/abacus_legalizer.h"
#include "legalization/interval_pack.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "placement/global_placer.h"
#include "runtime/batch_runner.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

// ---- ClumpInterval unit level ----------------------------------------

TEST(ClumpInterval, IncrementalPricingMatchesRepackOnAscendingInsertions) {
  std::mt19937 rng(12345u);
  std::uniform_real_distribution<double> step(0.0, 3.0);
  for (int trial = 0; trial < 50; ++trial) {
    const double lo = static_cast<double>(rng() % 5);
    const double hi = lo + 12.0 + static_cast<double>(rng() % 20);
    ClumpInterval inc(lo, hi, /*repack_baseline=*/false);
    ClumpInterval rep(lo, hi, /*repack_baseline=*/true);
    double tx = lo - 2.0;
    for (int i = 0; i < static_cast<int>(inc.capacity()); ++i) {
      tx += step(rng);  // ascending targets, arbitrary spacing → clumps
      ASSERT_EQ(inc.current_cost(), rep.current_cost()) << "trial " << trial << " cell " << i;
      // Trial pricing is pure and bit-identical, including repeats.
      ASSERT_EQ(inc.trial_cost(tx), rep.trial_cost(tx));
      ASSERT_EQ(inc.trial_cost(tx + 0.75), rep.trial_cost(tx + 0.75));
      inc.commit(i, tx);
      rep.commit(i, tx);
    }
    ASSERT_EQ(inc.final_columns(), rep.final_columns()) << "trial " << trial;
  }
}

TEST(ClumpInterval, LiveStackMatchesFromScratchPack) {
  // The live cluster stack after any commit sequence must hold exactly
  // the positions a from-scratch pack of the final targets computes —
  // the invariant that makes trial pricing and final_columns exact.
  std::mt19937 rng(777u);
  std::uniform_real_distribution<double> step(0.0, 2.0);
  ClumpInterval iv(2.0, 34.0, /*repack_baseline=*/false);
  std::vector<double> targets;
  double tx = 0.0;
  for (int i = 0; i < 30; ++i) {
    tx += step(rng);
    targets.push_back(tx);
    iv.commit(i, tx);

    std::vector<double> ref_pos;
    const double ref_cost = iv.pack(targets, &ref_pos);
    ASSERT_EQ(iv.current_cost(), ref_cost) << "cell " << i;
    std::size_t cells = 0;
    for (const auto& c : iv.clusters()) {
      for (int k = 0; k < static_cast<int>(c.w); ++k) {
        const std::size_t idx = static_cast<std::size_t>(c.first + k);
        ASSERT_EQ(c.x + k, ref_pos[idx]) << "cell " << i << " member " << idx;
        ++cells;
      }
    }
    ASSERT_EQ(cells, targets.size());
  }
}

TEST(ClumpInterval, SingleIntervalFullClumpPathological) {
  // Every cell targets the same spot in one wide interval: each commit
  // cascades into a single growing cluster — the worst case for the
  // merge path. Cost, stack, and columns must still track the repack
  // engine exactly, and the final cluster must span every cell.
  const double lo = 0.0;
  const double hi = 64.0;
  ClumpInterval inc(lo, hi, false);
  ClumpInterval rep(lo, hi, true);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(inc.can_accept());
    ASSERT_EQ(inc.trial_cost(30.0), rep.trial_cost(30.0)) << "cell " << i;
    inc.commit(i, 30.0);
    rep.commit(i, 30.0);
    ASSERT_EQ(inc.current_cost(), rep.current_cost()) << "cell " << i;
  }
  EXPECT_EQ(inc.clusters().size(), 1u);
  EXPECT_EQ(static_cast<int>(inc.clusters().front().w), 64);
  EXPECT_FALSE(inc.can_accept());
  EXPECT_EQ(inc.final_columns(), rep.final_columns());
}

TEST(ClumpInterval, OutOfOrderInsertionFallsBackToRepack) {
  // The legalization sweep only appends (ascending x), but the engine
  // stays correct for arbitrary insertion order via a one-off rebuild.
  ClumpInterval inc(0.0, 16.0, false);
  ClumpInterval rep(0.0, 16.0, true);
  const double txs[] = {8.0, 3.0, 11.0, 3.5, 8.2, 1.0};
  int id = 0;
  for (const double tx : txs) {
    ASSERT_EQ(inc.trial_cost(tx), rep.trial_cost(tx)) << "tx " << tx;
    inc.commit(id, tx);
    rep.commit(id, tx);
    ++id;
    ASSERT_EQ(inc.current_cost(), rep.current_cost()) << "tx " << tx;
  }
  EXPECT_EQ(inc.final_columns(), rep.final_columns());
}

// ---- whole-legalizer differential ------------------------------------

struct EngineRun {
  QuantumNetlist nl;
  BlockLegalizeResult res;
  std::vector<int> occupancy;  ///< occupant per bin, row-major
};

EngineRun run_engine(const QuantumNetlist& placed, bool repack_baseline) {
  EngineRun out{placed, {}, {}};
  BinGrid grid(out.nl.die());
  for (const auto& q : out.nl.qubits()) grid.block_rect(q.rect());
  AbacusLegalizerOptions opt;
  opt.repack_baseline = repack_baseline;
  out.res = AbacusLegalizer(opt).legalize(out.nl, grid);
  out.occupancy.reserve(static_cast<std::size_t>(grid.width()) *
                        static_cast<std::size_t>(grid.height()));
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) out.occupancy.push_back(grid.occupant({x, y}));
  }
  return out;
}

void expect_bit_identical(const EngineRun& a, const EngineRun& b, const std::string& what) {
  EXPECT_EQ(a.res.success, b.res.success) << what;
  EXPECT_EQ(a.res.placed, b.res.placed) << what;
  EXPECT_EQ(a.res.failed, b.res.failed) << what;
  // Displacements accumulate in materialization order — identical
  // placements make them bit-equal, not merely close.
  EXPECT_EQ(a.res.total_displacement, b.res.total_displacement) << what;
  EXPECT_EQ(a.res.max_displacement, b.res.max_displacement) << what;
  EXPECT_TRUE(identical_layout(a.nl, b.nl)) << what;
  EXPECT_EQ(a.occupancy, b.occupancy) << what;
}

struct DiffCase {
  std::string topology;
  unsigned seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.topology << "_s" << c.seed; }

class AbacusEngineDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(AbacusEngineDifferential, IncrementalBitIdenticalToRepack) {
  const auto& param = GetParam();
  const auto spec = topology_by_name(param.topology);
  ASSERT_TRUE(spec.has_value());
  QuantumNetlist nl = build_netlist(*spec);
  GlobalPlacerOptions gopt;
  gopt.seed = param.seed;
  GlobalPlacer(gopt).place(nl);
  QubitLegalizer(false).legalize(nl);  // classic macro LG, the Abacus flow's stage 2

  const EngineRun inc = run_engine(nl, false);
  const EngineRun rep = run_engine(nl, true);
  ASSERT_TRUE(inc.res.success);
  expect_bit_identical(inc, rep, param.topology + " seed " + std::to_string(param.seed));
}

INSTANTIATE_TEST_SUITE_P(
    PaperTopologiesTimesSeeds, AbacusEngineDifferential,
    ::testing::Values(DiffCase{"Grid", 1u}, DiffCase{"Grid", 7u}, DiffCase{"Xtree", 1u},
                      DiffCase{"Xtree", 7u}, DiffCase{"Falcon", 1u}, DiffCase{"Falcon", 7u},
                      DiffCase{"Eagle", 1u}, DiffCase{"Eagle", 7u}, DiffCase{"Aspen-11", 1u},
                      DiffCase{"Aspen-11", 7u}, DiffCase{"Aspen-M", 1u}, DiffCase{"Aspen-M", 7u},
                      DiffCase{"heavyhex-11x18", 1u}),
    test_support::PrintedParamName{});

TEST(AbacusEngineDifferential, SingleRowAllBlocksClump) {
  // Pathological end-to-end case: one free row, every block's GP
  // position piled onto the same column — the whole row packs into one
  // cascading cluster per engine.
  const double width = 40.0;
  QuantumNetlist nl;
  nl.add_qubit({3.0, 8.0}, 3, 3, 5.0);
  nl.add_qubit({37.0, 8.0}, 3, 3, 5.07);
  nl.add_edge(0, 1, 6.5, 34.0);  // 34 wire blocks
  nl.partition_all_edges();
  nl.set_die(Rect{0, 0, width, 12});
  for (int k = 0; k < static_cast<int>(nl.block_count()); ++k) {
    nl.block(k).pos = {20.0 + 1e-4 * k, 0.5};  // same spot, stable order
  }
  QuantumNetlist placed = nl;
  auto run_single_row = [&](bool baseline) {
    EngineRun out{placed, {}, {}};
    BinGrid grid(out.nl.die());
    grid.block_rect(Rect{0, 2, width, 12});  // only row 0 free
    AbacusLegalizerOptions opt;
    opt.repack_baseline = baseline;
    out.res = AbacusLegalizer(opt).legalize(out.nl, grid);
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) out.occupancy.push_back(grid.occupant({x, y}));
    }
    return out;
  };
  const EngineRun inc = run_single_row(false);
  const EngineRun rep = run_single_row(true);
  ASSERT_TRUE(inc.res.success);
  expect_bit_identical(inc, rep, "single row clump");
}

TEST(AbacusEngineDifferential, PipelinePlumbingSelectsEngines) {
  // The repack_baseline option must reach the legalizer through
  // PipelineOptions (and thus qgdp_tool/bench flags) and yield the
  // same layout either way.
  QuantumNetlist base = build_netlist(make_falcon27());
  GlobalPlacerOptions gopt;
  gopt.seed = 3;
  GlobalPlacer(gopt).place(base);
  auto run = [&](bool baseline) {
    QuantumNetlist nl = base;
    PipelineOptions opt;
    opt.run_gp = false;
    opt.legalizer = LegalizerKind::kQAbacus;
    opt.abacus.repack_baseline = baseline;
    (void)Pipeline(opt).run(nl);
    return nl;
  };
  const QuantumNetlist a = run(false);
  const QuantumNetlist b = run(true);
  EXPECT_TRUE(identical_layout(a, b));
}

}  // namespace
}  // namespace qgdp
