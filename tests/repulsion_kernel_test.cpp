// Differential coverage for the cell-blocked repulsion kernels
// (placement/repulsion_kernel.h): the SIMD blocked path is pinned
// bit-for-bit to the retained per-body gather oracle
// (accumulate_reference), across thread-pool sizes 1/4/8 and across
// several refresh cycles with drifting positions (exercising the
// incremental re-bucketing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "placement/global_placer.h"
#include "placement/multilevel.h"
#include "placement/nets.h"
#include "placement/repulsion_kernel.h"
#include "runtime/thread_pool.h"

namespace qgdp {
namespace {

struct LevelState {
  PlacementLevel level;
  Rect die;
};

/// Finest placement level of a topology after a default GP run — a
/// realistic mid-flight body distribution (clustered resonator blocks,
/// settled qubit macros).
LevelState settled_level(const std::string& topology) {
  const auto spec = topology_by_name(topology);
  EXPECT_TRUE(spec.has_value()) << topology;
  QuantumNetlist nl = build_netlist(*spec);
  GlobalPlacerOptions opt;
  opt.seed = 1u;
  GlobalPlacer(opt).place(nl);
  const auto nets = build_connection_nets(nl, ConnectionStyle::kPseudo);
  return {make_finest_level(nl, nets), nl.die()};
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The core contract of the rearchitecture: the blocked SIMD kernels
// must produce byte-identical forces to the per-body reference gather,
// at any pool size, through refresh cycles that re-bucket drifting
// bodies.
TEST(RepulsionKernelDifferential, BlockedMatchesReferenceBitIdentical) {
  for (const std::string topology : {std::string("Falcon"), std::string("heavyhex-7x12")}) {
    auto state = settled_level(topology);
    PlacementLevel& lvl = state.level;
    const std::size_t n = lvl.size();
    ASSERT_GT(n, 0u);

    RepulsionKernel kernel(state.die, n, lvl.half_w.data(), lvl.half_h.data(),
                           lvl.freq.data(), RepulsionKernelOptions{});
    std::vector<double> x = lvl.x, y = lvl.y;
    for (int it = 0; it < 6; ++it) {
      kernel.refresh(x.data(), y.data());
      std::vector<double> blocked(2 * n, 0.0);
      {
        ThreadPool pool(1);
        kernel.accumulate(x.data(), y.data(), 0.45, 0.25, blocked.data(),
                          blocked.data() + n, pool, 0);
      }
      for (const std::size_t threads : {4u, 8u}) {
        ThreadPool pool(threads);
        std::vector<double> f(2 * n, 0.0);
        kernel.accumulate(x.data(), y.data(), 0.45, 0.25, f.data(), f.data() + n, pool, 0);
        EXPECT_TRUE(bytes_equal(blocked, f))
            << topology << " it=" << it << ": forces differ between pool sizes 1 and " << threads;
      }
      std::vector<double> reference(2 * n, 0.0);
      kernel.accumulate_reference(x.data(), y.data(), 0.45, 0.25, reference.data(),
                                  reference.data() + n);
      ASSERT_TRUE(bytes_equal(blocked, reference))
          << topology << " it=" << it << ": blocked kernel differs from the per-body gather oracle";

      // Drift with the computed forces so later refreshes re-bucket a
      // realistic subset of bodies.
      for (std::size_t k = 0; k < n; ++k) {
        x[k] = std::min(std::max(x[k] + blocked[k] * 0.4, state.die.lo.x), state.die.hi.x);
        y[k] = std::min(std::max(y[k] + blocked[k + n] * 0.4, state.die.lo.y),
                        state.die.hi.y);
      }
    }
    // The drift loop above must actually have exercised incremental
    // maintenance, not just value refreshes.
    EXPECT_GT(kernel.stats().rebucketed, 0);
    EXPECT_GE(kernel.stats().flattens, 1);
  }
}

}  // namespace
}  // namespace qgdp
