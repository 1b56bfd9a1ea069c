// Golden-file regressions on the six seed topologies.
//
// Table II stats: the full flow × topology matrix is re-run and
// compared against the checked-in JSON snapshot, so a refactor that
// silently drifts placement quality (displacement, resonator
// integrity, crossings, hotspot rate) fails loudly instead of slipping
// through. Timing columns are excluded (machine dependent); doubles
// compare with a small relative tolerance so a compiler's
// reassociation cannot flip the verdict.
//
// Output manifest: the fnv1a64 of every flow's written layout, with the
// kOutputVersion it was recorded at. Any change to the bytes a flow
// produces fails here until kOutputVersion is bumped (so durable caches
// drop the stale layouts) and the manifest is regenerated.
//
// Regenerate both intentionally with
//   QGDP_UPDATE_GOLDEN=1 ./golden_test
// and commit the diff of tests/golden/ alongside the change that
// explains it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/output_version.h"
#include "io/serialization.h"
#include "metrics/clusters.h"
#include "metrics/crossings.h"
#include "metrics/hotspots.h"
#include "server/protocol.h"

#include "../bench/common.h"

#ifndef QGDP_GOLDEN_DIR
#define QGDP_GOLDEN_DIR "tests/golden"
#endif

namespace qgdp {
namespace {

using Stats = std::map<std::string, double>;

/// Flat stat map keyed "Topology/Flow/metric" for the whole matrix.
Stats collect_stats() {
  Stats stats;
  for (const auto& runs : bench::run_matrix(all_paper_topologies())) {
    for (const auto& flow : runs.flows) {
      const std::string prefix = runs.spec.name + "/" + flow.name + "/";
      const auto hs = compute_hotspots(flow.netlist);
      const auto cr = compute_crossings(flow.netlist);
      stats[prefix + "qubit_disp"] = flow.stats.qubit.total_displacement;
      stats[prefix + "block_disp"] = flow.stats.blocks.total_displacement;
      stats[prefix + "spacing"] = flow.stats.qubit.spacing_used;
      stats[prefix + "unified"] = unified_edge_count(flow.netlist);
      stats[prefix + "crossings"] = cr.total;
      stats[prefix + "ph_pct"] = hs.ph * 100.0;
      stats[prefix + "spacing_violations"] = hs.spacing_violations;
    }
  }
  return stats;
}

std::string golden_path() { return std::string(QGDP_GOLDEN_DIR) + "/table2_stats.json"; }

void write_golden(const Stats& stats) {
  std::ofstream os(golden_path());
  ASSERT_TRUE(os.good()) << "cannot write " << golden_path();
  os.precision(9);
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : stats) {
    os << "  \"" << key << "\": " << value << (++i < stats.size() ? "," : "") << "\n";
  }
  os << "}\n";
}

/// Parses flat one-entry-per-line JSON (`"key": value,`) into raw
/// value strings, quotes stripped.
std::map<std::string, std::string> read_flat_json(const std::string& path) {
  std::map<std::string, std::string> entries;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    const auto k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    const auto k1 = line.find('"', k0 + 1);
    const auto colon = line.find(':', k1);
    if (k1 == std::string::npos || colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.back() == ',') value.pop_back();
    const auto v0 = value.find_first_not_of(" \"");
    const auto v1 = value.find_last_not_of(" \"");
    entries[line.substr(k0 + 1, k1 - k0 - 1)] =
        v0 == std::string::npos ? "" : value.substr(v0, v1 - v0 + 1);
  }
  return entries;
}

Stats read_golden() {
  Stats stats;
  for (const auto& [key, value] : read_flat_json(golden_path())) stats[key] = std::stod(value);
  return stats;
}

TEST(GoldenTable2, SeedTopologyStatsMatchSnapshot) {
  const Stats current = collect_stats();
  if (std::getenv("QGDP_UPDATE_GOLDEN") != nullptr) {
    write_golden(current);
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path();
  }
  const Stats golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "missing or empty " << golden_path()
                               << " — run with QGDP_UPDATE_GOLDEN=1 to create it";

  for (const auto& [key, expected] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "stat disappeared: " << key;
    const double tol = 1e-6 * std::max(1.0, std::abs(expected));
    EXPECT_NEAR(it->second, expected, tol) << key;
  }
  for (const auto& [key, value] : current) {
    (void)value;
    EXPECT_TRUE(golden.count(key)) << "new stat not in snapshot (regenerate): " << key;
  }
}

// ---- output manifest -------------------------------------------------

using Manifest = std::map<std::string, std::string>;  ///< "Device/Flow" -> hex64

std::string manifest_path() { return std::string(QGDP_GOLDEN_DIR) + "/layout_hashes.json"; }

/// Layout hashes of the six paper devices × five flows from one shared
/// seed-1 GP, qGDP with DP on the same devices, and qgdp on a
/// kilo-qubit heavy-hex device without DP. `jobs` drives both the GP
/// lanes and the BatchRunner lanes; the bytes must not depend on it.
Manifest compute_manifest(std::size_t jobs) {
  const auto specs = all_paper_topologies();
  std::vector<QuantumNetlist> gp_layouts(specs.size());
  std::vector<BatchJob> batch;
  std::vector<std::string> keys;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    gp_layouts[t] = build_netlist(specs[t]);
    GlobalPlacerOptions gp_opt;
    gp_opt.seed = 1u;
    gp_opt.jobs = jobs;
    GlobalPlacer(gp_opt).place(gp_layouts[t]);
    for (auto& job : BatchRunner::shared_gp_flows(specs[t], all_legalizer_kinds(),
                                                  gp_layouts[t], 1u)) {
      keys.push_back(specs[t].name + "/" + legalizer_name(job.kind));
      batch.push_back(std::move(job));
    }
    for (auto& job : BatchRunner::shared_gp_flows(specs[t], {LegalizerKind::kQgdp},
                                                  gp_layouts[t], 1u, true)) {
      keys.push_back(specs[t].name + "/qGDP+DP");
      batch.push_back(std::move(job));
    }
  }
  BatchJob big;
  big.spec = *topology_by_name("heavyhex-23x39");
  big.kind = LegalizerKind::kQgdp;
  big.gp_seed = 1u;
  keys.push_back(big.spec.name + "/qGDP");
  batch.push_back(std::move(big));

  BatchOptions bopt;
  bopt.jobs = jobs;
  const auto results = BatchRunner(bopt).run(batch);
  Manifest manifest;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::ostringstream os;
    write_layout(results[i].netlist, os);
    manifest[keys[i]] = server::hex64(server::fnv1a64(os.str()));
  }
  return manifest;
}

void write_manifest(const Manifest& manifest) {
  std::ofstream os(manifest_path());
  ASSERT_TRUE(os.good()) << "cannot write " << manifest_path();
  os << "{\n  \"output_version\": " << kOutputVersion;
  for (const auto& [key, hash] : manifest) os << ",\n  \"" << key << "\": \"" << hash << "\"";
  os << "\n}\n";
}

TEST(LayoutManifest, HashesMatchAtJobs1And4) {
  const Manifest serial = compute_manifest(1);
  const Manifest parallel = compute_manifest(4);
  EXPECT_EQ(serial, parallel) << "layout bytes depend on the lane count";
  if (std::getenv("QGDP_UPDATE_GOLDEN") != nullptr) {
    write_manifest(serial);
    GTEST_SKIP() << "layout manifest regenerated at " << manifest_path();
  }
  Manifest recorded = read_flat_json(manifest_path());
  ASSERT_TRUE(recorded.count("output_version"))
      << "missing or malformed " << manifest_path()
      << " — run with QGDP_UPDATE_GOLDEN=1 to create it";
  const int recorded_version = std::stoi(recorded["output_version"]);
  recorded.erase("output_version");
  ASSERT_EQ(recorded_version, kOutputVersion)
      << "manifest recorded at output version " << recorded_version
      << "; regenerate it with QGDP_UPDATE_GOLDEN=1 for version " << kOutputVersion;
  for (const auto& [key, hash] : serial) {
    const auto it = recorded.find(key);
    ASSERT_NE(it, recorded.end()) << "layout not in manifest (regenerate): " << key;
    EXPECT_EQ(hash, it->second)
        << key << ": layout bytes changed while kOutputVersion is still " << kOutputVersion
        << " — bump it in src/core/output_version.h, then regenerate the manifest";
  }
  EXPECT_EQ(recorded.size(), serial.size()) << "manifest lists layouts no longer produced";
}

}  // namespace
}  // namespace qgdp
