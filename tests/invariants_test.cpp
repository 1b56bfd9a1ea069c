// Property-based legality suite: every flow must produce an invariant-
// clean layout on every topology, for every GP seed — the randomized
// matrix that hardens the legalizers against inputs the paper set
// never exercised (kilo-qubit families included via scaled-down
// instances so the suite stays fast).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "support/invariants.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

using test_support::InvariantOptions;
using test_support::check_legality_invariants;

struct MatrixCase {
  std::string topology;
  unsigned seed;
};

void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.topology << "_seed" << c.seed; }

/// Old (paper) and new (parameterized family) topologies. The family
/// instances are sized to keep the full matrix under test-suite
/// budgets while still exceeding the paper's largest device.
const std::vector<std::string> kTopologies = {
    "Grid", "Xtree", "Falcon", "Aspen-11", "grid-10x10", "heavyhex-7x12", "hex-9x12",
    "octagon-2x3",
};
const std::vector<unsigned> kSeeds = {1u, 7u, 42u};

class InvariantMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(InvariantMatrix, AllFlowsLegalFromSharedGp) {
  const auto& param = GetParam();
  const auto spec = topology_by_name(param.topology);
  ASSERT_TRUE(spec.has_value()) << param.topology;

  QuantumNetlist gp_nl = build_netlist(*spec);
  GlobalPlacerOptions gp_opt;
  gp_opt.seed = param.seed;
  GlobalPlacer(gp_opt).place(gp_nl);

  for (const LegalizerKind kind : all_legalizer_kinds()) {
    QuantumNetlist nl = gp_nl;
    PipelineOptions opt;
    opt.run_gp = false;
    opt.legalizer = kind;
    const auto out = Pipeline(opt).run(nl);

    InvariantOptions iopt;
    iopt.qubit_min_spacing = quantum_flow(kind) ? out.stats.qubit.spacing_used : 0.0;
    const auto failures = check_legality_invariants(nl, iopt);
    EXPECT_TRUE(failures.empty())
        << param.topology << " seed " << param.seed << " flow " << legalizer_name(kind)
        << ": " << failures.size() << " violation(s), first: " << failures.front();
  }
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const auto& t : kTopologies) {
    for (const unsigned s : kSeeds) cases.push_back({t, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FlowsTopologiesSeeds, InvariantMatrix,
                         ::testing::ValuesIn(matrix_cases()),
                         test_support::PrintedParamName{});

// The detailed-placement stage must preserve every invariant the
// legalizer established (it only swaps/slides within legal sites).
TEST(InvariantMatrix, DetailedPlacementPreservesLegality) {
  for (const unsigned seed : kSeeds) {
    const auto spec = topology_by_name("heavyhex-7x12");
    ASSERT_TRUE(spec.has_value());
    QuantumNetlist nl = build_netlist(*spec);
    PipelineOptions opt;
    opt.legalizer = LegalizerKind::kQgdp;
    opt.run_detailed = true;
    opt.gp.seed = seed;
    const auto out = Pipeline(opt).run(nl);

    InvariantOptions iopt;
    iopt.qubit_min_spacing = out.stats.qubit.spacing_used;
    const auto failures = check_legality_invariants(nl, iopt);
    EXPECT_TRUE(failures.empty()) << "seed " << seed << ": " << failures.size()
                                  << " violation(s), first: " << failures.front();
  }
}

}  // namespace
}  // namespace qgdp
