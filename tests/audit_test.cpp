// Tests for the layout design-rule checker.
#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.h"
#include "metrics/audit.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

QuantumNetlist tiny() {
  QuantumNetlist nl;
  nl.add_qubit({3.5, 3.5}, 3, 3, 5.0);
  nl.add_qubit({10.5, 3.5}, 3, 3, 5.07);
  nl.add_edge(0, 1, 6.5, 4.0);
  nl.partition_all_edges();
  nl.set_die(Rect{0, 0, 16, 16});
  // Park the blocks legally on the lattice.
  for (int k = 0; k < 4; ++k) nl.block(k).pos = {5.5 + k, 8.5};
  return nl;
}

TEST(Audit, CleanLayoutPasses) {
  const auto nl = tiny();
  const auto rep = audit_layout(nl);
  EXPECT_TRUE(rep.clean()) << [&] {
    std::ostringstream os;
    rep.print(os);
    return os.str();
  }();
}

TEST(Audit, DetectsOverlap) {
  auto nl = tiny();
  nl.block(1).pos = nl.block(0).pos;  // stack two blocks
  const auto rep = audit_layout(nl);
  EXPECT_FALSE(rep.clean());
  EXPECT_GE(rep.count(ViolationKind::kOverlap), 1);
}

TEST(Audit, DetectsOutOfBounds) {
  auto nl = tiny();
  nl.qubit(0).pos = {1.0, 3.5};  // rect [-0.5, 2.5] leaves the die
  const auto rep = audit_layout(nl);
  EXPECT_GE(rep.count(ViolationKind::kOutOfBounds), 1);
}

TEST(Audit, DetectsOffGrid) {
  auto nl = tiny();
  nl.block(2).pos = {5.73, 8.5};
  AuditOptions opt;
  const auto rep = audit_layout(nl, opt);
  EXPECT_EQ(rep.count(ViolationKind::kOffGrid), 1);
  opt.check_grid_alignment = false;
  EXPECT_EQ(audit_layout(nl, opt).count(ViolationKind::kOffGrid), 0);
}

TEST(Audit, DetectsSpacingViolation) {
  auto nl = tiny();
  nl.qubit(1).pos = {6.6, 3.5};  // per-axis gap 0.1 < 1.0 rule
  AuditOptions opt;
  opt.qubit_min_spacing = 1.0;
  const auto rep = audit_layout(nl, opt);
  EXPECT_GE(rep.count(ViolationKind::kQubitSpacing), 1);
  // Diagonal separation satisfies the per-axis rule.
  nl.qubit(1).pos = {7.5, 7.5};
  EXPECT_EQ(audit_layout(nl, opt).count(ViolationKind::kQubitSpacing), 0);
}

TEST(Audit, DetectsUnplacedStack) {
  auto nl = tiny();
  for (const int b : nl.edge(0).blocks) nl.block(b).pos = {8.0, 8.0};
  const auto rep = audit_layout(nl);
  EXPECT_GE(rep.count(ViolationKind::kUnplacedBlock), 1);
}

TEST(Audit, PrintTruncates) {
  auto nl = tiny();
  for (const int b : nl.edge(0).blocks) nl.block(b).pos = {8.0, 8.0};
  const auto rep = audit_layout(nl);
  std::ostringstream os;
  rep.print(os, 1);
  EXPECT_NE(os.str().find("violation"), std::string::npos);
}

// The pipeline's output must always be audit-clean at its guaranteed
// spacing — across every topology and every flow.
struct AuditCase {
  const char* topology;
  LegalizerKind kind;
};

void PrintTo(const AuditCase& c, std::ostream* os) {
  *os << c.topology << '_' << legalizer_name(c.kind);
}

class PipelineAudit : public ::testing::TestWithParam<AuditCase> {};

TEST_P(PipelineAudit, FlowOutputIsClean) {
  const auto p = GetParam();
  DeviceSpec spec;
  for (const auto& d : all_paper_topologies()) {
    if (d.name == p.topology) spec = d;
  }
  QuantumNetlist nl = build_netlist(spec);
  PipelineOptions opt;
  opt.legalizer = p.kind;
  opt.run_detailed = (p.kind == LegalizerKind::kQgdp);
  const auto out = Pipeline(opt).run(nl);
  AuditOptions audit_opt;
  audit_opt.qubit_min_spacing = quantum_flow(p.kind) ? out.stats.qubit.spacing_used : 0.0;
  const auto rep = audit_layout(nl, audit_opt);
  std::ostringstream os;
  rep.print(os);
  EXPECT_TRUE(rep.clean()) << os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineAudit,
    ::testing::Values(AuditCase{"Grid", LegalizerKind::kQgdp},
                      AuditCase{"Grid", LegalizerKind::kAbacus},
                      AuditCase{"Falcon", LegalizerKind::kQgdp},
                      AuditCase{"Falcon", LegalizerKind::kQTetris},
                      AuditCase{"Xtree", LegalizerKind::kQAbacus},
                      AuditCase{"Aspen-11", LegalizerKind::kTetris},
                      AuditCase{"Aspen-M", LegalizerKind::kQgdp},
                      AuditCase{"Eagle", LegalizerKind::kQgdp}),
    test_support::PrintedParamName{});

}  // namespace
}  // namespace qgdp
