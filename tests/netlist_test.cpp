// Tests for the quantum netlist, topology generators (Table I counts),
// partitioning (Eq. 6), and the netlist builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/union_find.h"
#include "netlist/netlist_builder.h"
#include "netlist/quantum_netlist.h"
#include "netlist/topologies.h"
#include "support/param_name.h"

namespace qgdp {
namespace {

TEST(QuantumNetlist, AddAndQuery) {
  QuantumNetlist nl;
  const int q0 = nl.add_qubit({1, 1}, 3, 3, 5.0);
  const int q1 = nl.add_qubit({8, 1}, 3, 3, 5.07);
  const int e = nl.add_edge(q0, q1, 6.5, 12.0);
  EXPECT_EQ(nl.qubit_count(), 2u);
  EXPECT_EQ(nl.edge_count(), 1u);
  EXPECT_EQ(nl.edge_between(q0, q1), e);
  EXPECT_EQ(nl.edge_between(q1, q0), e);
  const auto nbrs = nl.neighbors(q0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], q1);
}

TEST(QuantumNetlist, PartitionEq6) {
  QuantumNetlist nl;
  const int q0 = nl.add_qubit({0, 0}, 3, 3, 5.0);
  const int q1 = nl.add_qubit({10, 0}, 3, 3, 5.07);
  nl.add_edge(q0, q1, 6.5, 12.0, 1.0);
  nl.partition_all_edges();
  // Eq. 6: lpad·L = n·lb² → n = 12 for L = 12, lpad = 1, lb = 1.
  EXPECT_EQ(nl.edge(0).block_count(), 12);
  EXPECT_EQ(nl.block_count(), 12u);
  for (const int b : nl.edge(0).blocks) {
    EXPECT_EQ(nl.block(b).edge, 0);
  }
}

TEST(QuantumNetlist, TotalComponentArea) {
  QuantumNetlist nl;
  nl.add_qubit({0, 0}, 3, 3, 5.0);
  nl.add_qubit({10, 0}, 3, 3, 5.0);
  nl.add_edge(0, 1, 6.5, 10.0, 1.0);
  nl.partition_all_edges();
  EXPECT_DOUBLE_EQ(nl.total_component_area(), 9.0 + 9.0 + 10.0);
}

struct TopologyCase {
  const char* name;
  int qubits;
  int edges;
};

void PrintTo(const TopologyCase& c, std::ostream* os) { *os << c.name; }

class TopologyCounts : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologyCounts, MatchesPaperTableI) {
  const auto p = GetParam();
  const auto topos = all_paper_topologies();
  const auto it = std::find_if(topos.begin(), topos.end(),
                               [&](const DeviceSpec& d) { return d.name == p.name; });
  ASSERT_NE(it, topos.end()) << "missing topology " << p.name;
  EXPECT_EQ(it->qubit_count, p.qubits);
  EXPECT_EQ(it->edge_count(), p.edges);
  EXPECT_EQ(static_cast<int>(it->coords.size()), p.qubits);
}

INSTANTIATE_TEST_SUITE_P(PaperTopologies, TopologyCounts,
                         ::testing::Values(TopologyCase{"Grid", 25, 40},
                                           TopologyCase{"Xtree", 53, 52},
                                           TopologyCase{"Falcon", 27, 28},
                                           TopologyCase{"Eagle", 127, 144},
                                           TopologyCase{"Aspen-11", 40, 48},
                                           TopologyCase{"Aspen-M", 80, 106}),
                         test_support::PrintedParamName{});

TEST(Topologies, AllConnectedAndSimple) {
  for (const auto& d : all_paper_topologies()) {
    UnionFind uf(static_cast<std::size_t>(d.qubit_count));
    std::set<std::pair<int, int>> seen;
    for (const auto& [a, b] : d.couplings) {
      ASSERT_GE(a, 0);
      ASSERT_LT(a, d.qubit_count);
      ASSERT_GE(b, 0);
      ASSERT_LT(b, d.qubit_count);
      ASSERT_NE(a, b) << d.name << " has a self-loop";
      const auto key = std::minmax(a, b);
      EXPECT_TRUE(seen.insert({key.first, key.second}).second)
          << d.name << " has duplicate edge " << a << "-" << b;
      uf.unite(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    }
    EXPECT_EQ(uf.component_count(), 1u) << d.name << " is disconnected";
  }
}

TEST(Topologies, HeavyHexDegreeBounds) {
  // Heavy-hex devices have max degree 3 (chains + connectors).
  for (const auto& d : {make_falcon27(), make_eagle127()}) {
    std::vector<int> deg(static_cast<std::size_t>(d.qubit_count), 0);
    for (const auto& [a, b] : d.couplings) {
      ++deg[static_cast<std::size_t>(a)];
      ++deg[static_cast<std::size_t>(b)];
    }
    EXPECT_LE(*std::max_element(deg.begin(), deg.end()), 3) << d.name;
  }
}

TEST(Topologies, XtreeIsTree) {
  const auto d = make_xtree();
  EXPECT_EQ(d.edge_count(), d.qubit_count - 1);  // tree invariant
}

TEST(Topologies, OctagonDegrees) {
  // Every octagon qubit has ring degree 2 plus at most 2 inter-octagon
  // links.
  const auto d = make_octagon_device(2, 5);
  std::vector<int> deg(static_cast<std::size_t>(d.qubit_count), 0);
  for (const auto& [a, b] : d.couplings) {
    ++deg[static_cast<std::size_t>(a)];
    ++deg[static_cast<std::size_t>(b)];
  }
  for (const int dg : deg) {
    EXPECT_GE(dg, 2);
    EXPECT_LE(dg, 4);
  }
}

TEST(NetlistBuilder, BuildsAllTopologies) {
  for (const auto& spec : all_paper_topologies()) {
    const auto nl = build_netlist(spec);
    EXPECT_EQ(static_cast<int>(nl.qubit_count()), spec.qubit_count);
    EXPECT_EQ(static_cast<int>(nl.edge_count()), spec.edge_count());
    EXPECT_GT(nl.block_count(), 0u);
    // Die sized for ≈55% utilization.
    const double util = nl.total_component_area() / nl.die().area();
    EXPECT_GT(util, 0.35) << spec.name;
    EXPECT_LT(util, 0.70) << spec.name;
    // All seeded positions inside the die.
    for (const auto& q : nl.qubits()) {
      EXPECT_TRUE(nl.die().contains(q.rect())) << spec.name << " qubit " << q.id;
    }
  }
}

TEST(NetlistBuilder, AdjacentQubitsGetDifferentFrequencyGroups) {
  const auto nl = build_netlist(make_grid_device());
  for (const auto& e : nl.edges()) {
    const double df = std::abs(nl.qubit(e.q0).frequency - nl.qubit(e.q1).frequency);
    EXPECT_GT(df, 0.03) << "adjacent qubits " << e.q0 << "," << e.q1
                        << " too close in frequency";
  }
}

TEST(NetlistBuilder, ResonatorsSharingQubitDetuned) {
  const auto nl = build_netlist(make_grid_device());
  for (const auto& q : nl.qubits()) {
    const auto& inc = nl.incident_edges(q.id);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      for (std::size_t j = i + 1; j < inc.size(); ++j) {
        const double df =
            std::abs(nl.edge(inc[i]).frequency - nl.edge(inc[j]).frequency);
        EXPECT_GT(df, 1e-6) << "degenerate resonators at qubit " << q.id;
      }
    }
  }
}

TEST(NetlistBuilder, BlockCountsMatchTableIIIScale) {
  // Paper Table III reports ≈12.5 wire blocks per resonator
  // (e.g. Eagle: 1801 cells / 144 edges).
  const auto nl = build_netlist(make_eagle127());
  const double per_edge =
      static_cast<double>(nl.block_count()) / static_cast<double>(nl.edge_count());
  EXPECT_GT(per_edge, 10.0);
  EXPECT_LT(per_edge, 15.0);
}

TEST(NetlistBuilder, Deterministic) {
  const auto a = build_netlist(make_falcon27());
  const auto b = build_netlist(make_falcon27());
  ASSERT_EQ(a.qubit_count(), b.qubit_count());
  for (std::size_t i = 0; i < a.qubit_count(); ++i) {
    EXPECT_DOUBLE_EQ(a.qubit(static_cast<int>(i)).frequency,
                     b.qubit(static_cast<int>(i)).frequency);
    EXPECT_EQ(a.qubit(static_cast<int>(i)).pos, b.qubit(static_cast<int>(i)).pos);
  }
}

}  // namespace
}  // namespace qgdp
