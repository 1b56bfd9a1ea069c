// qgdp_tool: command-line driver for the full qGDP flow.
//
// Runs GP → legalization → (optional) DP on a built-in topology or a
// .qdev device file, audits the result, and writes the layout artifacts
// a physical-design hand-off needs (.qlay + .svg + metrics report).
//
//   $ ./examples/qgdp_tool --topology Falcon --flow qgdp --dp \
//         --out falcon_layout.qlay --svg falcon_layout.svg
//   $ ./examples/qgdp_tool --device mychip.qdev --flow q-abacus
//   $ ./examples/qgdp_tool --list
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "core/pipeline.h"
#include "io/serialization.h"
#include "io/svg_writer.h"
#include "io/table.h"
#include "metrics/audit.h"
#include "metrics/clusters.h"
#include "metrics/crossings.h"
#include "metrics/hotspots.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "runtime/batch_runner.h"

namespace {

using namespace qgdp;

void print_usage() {
  std::cout <<
      R"(qgdp_tool — quantum legalization and detailed placement driver

options:
  --topology NAME   built-in topology: a paper device (Grid, Xtree,
                    Falcon, Eagle, Aspen-11, Aspen-M) or a parameterized
                    family like grid-32x32, heavyhex-27x43, hex-32x32,
                    octagon-8x16 (see --list)
  --device FILE     load a .qdev device description instead
  --flow FLOW       qgdp | q-abacus | q-tetris | abacus | tetris | all
                    (default qgdp; "all" batch-runs the five flows from
                    one shared GP layout and prints a comparison)
  --dp              run the detailed-placement stage (qgdp flow only)
  --seed N          global-placement seed (default 1)
  --gp-levels N     global-placement hierarchy depth: 0 = auto from the
                    component count (default), 1 = single level (flat),
                    up to 4
  --jobs N          concurrent lanes for batch modes and the GP force
                    kernels (default: all hardware threads; results are
                    bit-identical for any N)
  --abacus-baseline price Abacus candidates with the retained
                    from-scratch repack engine instead of the
                    incremental cluster stacks (bit-identical output;
                    the differential/perf reference for abacus and
                    q-abacus flows)
  --out FILE        write the final layout as .qlay
  --svg FILE        render the final layout as SVG
  --list            list built-in topologies and exit
  --help            this text
)";
}

std::optional<LegalizerKind> parse_flow(const std::string& s) {
  if (s == "qgdp") return LegalizerKind::kQgdp;
  if (s == "q-abacus") return LegalizerKind::kQAbacus;
  if (s == "q-tetris") return LegalizerKind::kQTetris;
  if (s == "abacus") return LegalizerKind::kAbacus;
  if (s == "tetris") return LegalizerKind::kTetris;
  return std::nullopt;
}

/// "--flow all": the five-flow comparison matrix from one shared GP
/// layout, batch-executed over `jobs` lanes. Takes ownership of the
/// freshly built netlist and places it.
int run_all_flows(const DeviceSpec& spec, QuantumNetlist gp_nl, unsigned seed, int gp_levels,
                  bool run_dp, std::size_t jobs, bool abacus_baseline) {
  {
    GlobalPlacerOptions gp_opt;
    gp_opt.seed = seed;
    gp_opt.levels = gp_levels;
    gp_opt.jobs = jobs;
    GlobalPlacer(gp_opt).place(gp_nl);
  }
  auto matrix = BatchRunner::shared_gp_flows(spec, all_legalizer_kinds(), gp_nl, seed, run_dp);
  for (auto& job : matrix) job.abacus.repack_baseline = abacus_baseline;
  BatchOptions bopt;
  bopt.jobs = jobs;
  const auto results = BatchRunner(bopt).run(matrix);

  Table t({"flow", "qubit disp", "block disp", "unified", "X", "Ph %", "viol", "tq ms", "te ms"});
  int exit_code = 0;
  for (const auto& res : results) {
    const auto hs = compute_hotspots(res.netlist);
    const auto cr = compute_crossings(res.netlist);
    AuditOptions audit_opt;
    audit_opt.qubit_min_spacing =
        quantum_flow(res.job.kind) ? res.stats.qubit.spacing_used : 0.0;
    const auto audit = audit_layout(res.netlist, audit_opt);
    if (!audit.clean()) {
      exit_code = 2;
      std::cout << "audit failed for flow " << legalizer_name(res.job.kind) << ":\n";
      audit.print(std::cout);
    }
    // shared_gp_flows already gates run_detailed on the qGDP flow.
    t.add_row({legalizer_name(res.job.kind) + (res.job.run_detailed ? "+DP" : ""),
               fmt(res.stats.qubit.total_displacement, 2),
               fmt(res.stats.blocks.total_displacement, 2),
               std::to_string(unified_edge_count(res.netlist)) + "/" +
                   std::to_string(res.netlist.edge_count()),
               std::to_string(cr.total), fmt(hs.ph * 100, 3),
               std::to_string(hs.spacing_violations), fmt(res.stats.qubit_ms, 2),
               fmt(res.stats.resonator_ms, 2)});
  }
  t.print(std::cout);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology = "Grid";
  std::string device_file;
  std::string flow_name = "qgdp";
  std::string out_file;
  std::string svg_file;
  bool run_dp = false;
  unsigned seed = 1;
  int gp_levels = 0;     // 0 = auto from component count
  std::size_t jobs = 0;  // 0 = hardware concurrency
  bool abacus_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    auto numeric_value = [&](unsigned long max_value) -> unsigned long {
      const std::string v = value();
      // Digits only: std::stoul alone would accept "-1" by wrapping.
      if (!v.empty() && v.find_first_not_of("0123456789") == std::string::npos) {
        try {
          const unsigned long n = std::stoul(v);
          if (n <= max_value) return n;
        } catch (const std::exception&) {  // out of range
        }
      }
      std::cerr << "invalid number '" << v << "' for " << arg << "\n";
      std::exit(1);
    };
    if (arg == "--help") {
      print_usage();
      return 0;
    } else if (arg == "--list") {
      for (const auto& line : topology_catalog()) std::cout << line << "\n";
      return 0;
    } else if (arg == "--topology") {
      topology = value();
    } else if (arg == "--device") {
      device_file = value();
    } else if (arg == "--flow") {
      flow_name = value();
    } else if (arg == "--dp") {
      run_dp = true;
    } else if (arg == "--seed") {
      seed = static_cast<unsigned>(numeric_value(std::numeric_limits<unsigned>::max()));
    } else if (arg == "--gp-levels") {
      gp_levels = static_cast<int>(numeric_value(4));
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(numeric_value(std::numeric_limits<std::size_t>::max()));
    } else if (arg == "--abacus-baseline") {
      abacus_baseline = true;
    } else if (arg == "--out") {
      out_file = value();
    } else if (arg == "--svg") {
      svg_file = value();
    } else {
      std::cerr << "unknown option " << arg << " (try --help)\n";
      return 1;
    }
  }

  const auto flow = parse_flow(flow_name);
  if (!flow && flow_name != "all") {
    std::cerr << "unknown flow '" << flow_name << "' (try --help)\n";
    return 1;
  }

  // Resolve the device.
  DeviceSpec spec;
  if (!device_file.empty()) {
    spec = read_device_file(device_file);
  } else {
    auto resolved = topology_by_name(topology);
    if (!resolved) {
      std::cerr << "unknown topology '" << topology << "' (see --list)\n";
      return 1;
    }
    spec = std::move(*resolved);
  }

  QuantumNetlist nl = build_netlist(spec);
  std::cout << "device " << spec.name << ": " << nl.qubit_count() << " qubits, "
            << nl.edge_count() << " resonators, " << nl.block_count() << " blocks, die "
            << nl.die().width() << "x" << nl.die().height() << "\n";

  if (!flow) {
    if (!out_file.empty() || !svg_file.empty()) {
      std::cerr << "warning: --out/--svg are ignored with --flow all "
                   "(no single final layout); run one flow to write artifacts\n";
    }
    return run_all_flows(spec, std::move(nl), seed, gp_levels, run_dp, jobs, abacus_baseline);
  }

  PipelineOptions opt;
  opt.legalizer = *flow;
  opt.run_detailed = run_dp && *flow == LegalizerKind::kQgdp;
  opt.abacus.repack_baseline = abacus_baseline;
  opt.gp.seed = seed;
  opt.gp.levels = gp_levels;
  opt.gp.jobs = jobs;
  const auto out = Pipeline(opt).run(nl);

  // Metrics + audit.
  const auto hs = compute_hotspots(nl);
  const auto cr = compute_crossings(nl);
  Table t({"metric", "value"});
  t.add_row({"flow", legalizer_name(*flow) + (opt.run_detailed ? "+DP" : "")});
  t.add_row({"qubit displacement", fmt(out.stats.qubit.total_displacement, 2)});
  t.add_row({"qubit spacing", fmt(out.stats.qubit.spacing_used, 1)});
  t.add_row({"block displacement", fmt(out.stats.blocks.total_displacement, 2)});
  t.add_row({"unified resonators",
             std::to_string(unified_edge_count(nl)) + "/" + std::to_string(nl.edge_count())});
  t.add_row({"crossings X", std::to_string(cr.total)});
  t.add_row({"hotspot Ph %", fmt(hs.ph * 100, 3)});
  t.add_row({"hotspot HQ", std::to_string(hs.hq)});
  t.add_row({"spacing violations", std::to_string(hs.spacing_violations)});
  t.add_row({"runtime tq ms", fmt(out.stats.qubit_ms, 2)});
  t.add_row({"runtime te ms", fmt(out.stats.resonator_ms, 2)});
  if (opt.run_detailed) t.add_row({"runtime dp ms", fmt(out.stats.dp_ms, 2)});
  t.print(std::cout);

  AuditOptions audit_opt;
  audit_opt.qubit_min_spacing = quantum_flow(*flow) ? out.stats.qubit.spacing_used : 0.0;
  const auto audit = audit_layout(nl, audit_opt);
  audit.print(std::cout);
  if (!audit.clean()) return 2;

  if (!out_file.empty()) {
    write_layout_file(nl, out_file);
    std::cout << "layout written to " << out_file << "\n";
  }
  if (!svg_file.empty()) {
    SvgOptions svg_opt;
    svg_opt.draw_crossings = true;
    write_layout_svg(nl, svg_file, svg_opt);
    std::cout << "svg written to " << svg_file << "\n";
  }
  return 0;
}
