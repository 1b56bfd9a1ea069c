// qgdp_perfbench: the qgdp benchmark, one program, four workloads.
//
//   cold-place     one client sends cold `place` requests (cache
//                  bypassed, flow qgdp) for heavyhex-30x53 (1982q) to
//                  an in-process qgdpd, cycling three GP seeds.
//   eco-stream     two sessions on heavyhex-23x39 (1117q) stream 8-move
//                  ECO edits, re-reading a layout from the cache every
//                  four edits.
//   paper-eval     in-process BatchRunner over all_paper_topologies() x
//                  all_legalizer_kinds() with DP on the qGDP jobs, from
//                  fresh netlists and from shared GP positions, plus
//                  audit/crossings/hotspots per result.
//   fork-isolated  a --isolation fork daemon, two sessions on
//                  heavyhex-23x39: cold place, two ECO edits, warm place.
//
// Every workload reports every end-to-end metric: a request class that
// is not the workload's focus comes from a light probe or from set-up
// (see README.md). With --trace 1 the program first runs the workload untraced for half
// the time, then replays the same request sequence through each layer's
// public functions under spans and reports the per-layer metrics.
//
//   qgdp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-dir DIR] [--source-id ID]
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. Any failed request or correctness gate makes the
// exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "io/serialization.h"
#include "legalization/tetris_legalizer.h"
#include "metrics/audit.h"
#include "metrics/clusters.h"
#include "metrics/crossings.h"
#include "metrics/hotspots.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "runtime/batch_runner.h"
#include "server/client.h"
#include "server/layout_cache.h"
#include "server/protocol.h"
#include "server/qgdpd.h"
#include "server/validation.h"
#include "server/worker_pool.h"
#include "span_recorder.h"

namespace {

using namespace qgdp;
using namespace qgdp::server;
using perfbench::SpanRecorder;
using Scope = SpanRecorder::Scope;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Linear-interpolated percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Progress lines on stderr, with seconds since the program started.
void log_phase(const std::string& what) {
  static const auto start = Clock::now();
  std::cerr << "perfbench: [" << std::fixed << std::setprecision(2) << ms_since(start) / 1000.0
            << " s] " << what << std::defaultfloat << std::endl;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// ---- metrics ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"cold_p50_ms", "ms", "lower"},
    {"cold_tail_ms", "ms", "lower"},
    {"warm_p50_ms", "ms", "lower"},
    {"warm_tail_ms", "ms", "lower"},
    {"eco_p50_ms", "ms", "lower"},
    {"eco_tail_ms", "ms", "lower"},
    {"ops_per_s", "1/s", "higher"},
    {"ok_ratio", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
    {"crossings_per_edge", "count", "lower"},
    {"hotspot_ph_pct", "%", "lower"},
    {"unified_pct", "%", "higher"},
};

constexpr MetricDef kPerLayer[] = {
    {"netlist.build_ms", "ms", "lower"},
    {"placement.gp_ms", "ms", "lower"},
    {"placement.gp_net_ms", "ms", "lower"},
    {"placement.gp_repulsion_ms", "ms", "lower"},
    {"placement.gp_integrate_ms", "ms", "lower"},
    {"placement.gp_coarsen_ms", "ms", "lower"},
    {"placement.gp_iterations", "count", "lower"},
    {"placement.gp_grid_flattens", "count", "lower"},
    {"placement.gp_rebucketed_bodies", "count", "lower"},
    {"core.qubit_lg_ms", "ms", "lower"},
    {"core.resonator_lg_ms", "ms", "lower"},
    {"legalization.block_lg_ms", "ms", "lower"},
    {"core.dp_ms", "ms", "lower"},
    {"core.dp_examined", "count", "lower"},
    {"core.dp_accept_ratio", "ratio", "higher"},
    {"core.eco_ms", "ms", "lower"},
    {"core.eco_bins_touched", "count", "lower"},
    {"core.eco_replaced_blocks", "count", "lower"},
    {"core.eco_window_growths", "count", "lower"},
    {"core.grid_for_ms", "ms", "lower"},
    {"io.write_layout_ms", "ms", "lower"},
    {"io.read_layout_ms", "ms", "lower"},
    {"io.layout_bytes", "bytes", "lower"},
    {"metrics.audit_ms", "ms", "lower"},
    {"metrics.crossings_ms", "ms", "lower"},
    {"metrics.hotspots_ms", "ms", "lower"},
    {"server.hash_ms", "ms", "lower"},
    {"server.encode_ms", "ms", "lower"},
    {"server.decode_ms", "ms", "lower"},
    {"server.cache_get_ms", "ms", "lower"},
    {"server.cache_put_ms", "ms", "lower"},
    {"server.cache_hit_ratio", "ratio", "higher"},
    {"server.reply_bytes", "bytes", "lower"},
    {"server.place_ms", "ms", "lower"},
    {"server.eco_ms", "ms", "lower"},
    {"server.transport_ms", "ms", "lower"},
    {"server.worker_run_ms", "ms", "lower"},
    {"server.worker_overhead_ms", "ms", "lower"},
    {"server.worker_child_rss_mb", "MB", "lower"},
    {"server.worker_child_cpu_s", "s", "lower"},
    {"server.hedges_launched", "count", "lower"},
    {"server.hedge_wins", "count", "lower"},
    {"server.worker_failures", "count", "lower"},
    {"runtime.batch_efficiency", "ratio", "higher"},
    {"trace.unattributed_ms", "ms", "lower"},
};

// ---- workloads -------------------------------------------------------

enum class Workload { kColdPlace, kEcoStream, kPaperEval, kForkIsolated };

/// Request classes. In paper-eval a "cold" sample is a pass's
/// fresh-netlist matrix call, "warm" its shared-GP calls, "eco" its
/// library edits; its traced replay runs them job by job.
enum Cls { kCold = 0, kWarm = 1, kEco = 2 };
constexpr const char* kClsName[] = {"cold", "warm", "eco"};

struct WorkloadDef {
  const char* name;
  Workload w;
  const char* topology;  ///< daemon workloads only
  int sessions;
  Cls primary;  ///< the class unattributed time and per-layer medians use
  /// Tail percentile per class: the highest with at least ten samples
  /// beyond it at 20 s runs on a 4-vCPU host, p50 where no percentile
  /// has (README.md lists them).
  double tail[3];
};

constexpr WorkloadDef kWorkloads[] = {
    {"cold-place", Workload::kColdPlace, "heavyhex-30x53", 1, kCold, {0.70, 0.70, 0.70}},
    {"eco-stream", Workload::kEcoStream, "heavyhex-23x39", 2, kEco, {0.50, 0.93, 0.98}},
    {"paper-eval", Workload::kPaperEval, "", 1, kCold, {0.50, 0.50, 0.50}},
    {"fork-isolated", Workload::kForkIsolated, "heavyhex-23x39", 2, kCold, {0.80, 0.80, 0.90}},
};

constexpr int kEcoMoves = 8;
/// Each run cycles through this many edit sets (qubit choices), so its
/// ECO figures average over them instead of resting on one seed's pick;
/// (layout, edit) pairs still repeat, which the determinism gate needs.
constexpr int kEditVariants = 4;
constexpr int kSetupReps = 5;

struct Args {
  const WorkloadDef* workload{nullptr};
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string trace_dir;
  std::string source_id{"unknown"};
};

/// Inputs derived from the workload seed. Every run serves the same
/// three GP seeds, so the set of layouts, and with it every quality
/// figure, is the same from run to run (quality varies by tens of
/// percent between GP seeds at 1117q); the workload seed sets their
/// order, the ECO skew and which qubits the edits move.
struct Inputs {
  std::vector<unsigned> gp_seeds;
  double skew{0.0};
  std::size_t offset{0};
};

Inputs derive_inputs(std::uint64_t seed) {
  Inputs in;
  const auto rotation = static_cast<unsigned>(splitmix64(seed * 8) % 3);
  for (unsigned k = 0; k < 3; ++k) in.gp_seeds.push_back(1 + (rotation + k) % 3);
  in.skew = static_cast<double>(splitmix64(seed * 8 + 5) % 4) * 0.25;
  in.offset = static_cast<std::size_t>(splitmix64(seed * 8 + 6) % 64);
  return in;
}

// ---- request helpers -------------------------------------------------

struct QubitPos {
  int id{0};
  double x{0.0};
  double y{0.0};
};

/// The "q <id> <x> <y> ..." lines of a .qlay text.
std::vector<QubitPos> qubit_positions(const std::string& qlay) {
  std::vector<QubitPos> out;
  std::istringstream is(qlay);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 2 || line[0] != 'q' || line[1] != ' ') continue;
    QubitPos p;
    std::istringstream ss(line.substr(2));
    ss >> p.id >> p.x >> p.y;
    if (!ss.fail()) out.push_back(p);
  }
  return out;
}

std::vector<QubitPos> qubit_positions(const QuantumNetlist& nl) {
  std::vector<QubitPos> out;
  for (const Qubit& q : nl.qubits()) out.push_back({q.id, q.pos.x, q.pos.y});
  return out;
}

/// One ECO edit of `count` qubits spread over the id range: pushed a
/// couple of sites off their home position on even rounds and pulled
/// back on odd rounds, so a stream oscillates instead of drifting.
/// `variant` shifts which qubits move.
EcoRequest eco_edit(int round, const std::vector<QubitPos>& home, int count, double skew,
                    std::size_t offset, int variant) {
  offset += 31 * static_cast<std::size_t>(variant % kEditVariants);
  EcoRequest eco;
  eco.want_layout = false;
  const std::size_t n = home.size();
  for (int k = 0; k < count && n > 0; ++k) {
    const std::size_t base =
        static_cast<std::size_t>(k + 1) * n / static_cast<std::size_t>(count + 1);
    const QubitPos& p = home[(base + offset % std::max<std::size_t>(1, n / (count + 1))) % n];
    EcoMove m;
    m.qubit = p.id;
    m.x = round % 2 == 0 ? p.x + 2.0 + skew : p.x;
    m.y = round % 2 == 0 ? p.y + 1.0 : p.y;
    eco.moves.push_back(m);
  }
  return eco;
}

PlaceRequest place_request(const std::string& topology, unsigned seed, bool use_cache) {
  PlaceRequest req;
  req.topology = topology;
  req.flow = "qgdp";
  req.seed = seed;
  req.use_cache = use_cache;
  req.want_layout = true;
  return req;
}

std::string request_identity(const PlaceRequest& r) {
  return r.topology + '/' + r.flow + '/' + std::to_string(r.seed) + "/dp" +
         std::to_string(r.run_detailed) + "/l" + std::to_string(r.gp_levels);
}

/// Mirrors the daemon's options fingerprint (cache-key input).
std::string options_fingerprint(const PlaceRequest& req) {
  return "dp=" + std::to_string(req.run_detailed ? 1 : 0) +
         ";gp_levels=" + std::to_string(req.gp_levels);
}

std::size_t qlay_count(const std::string& qlay, const char* key) {
  const std::string needle = std::string("\n") + key + ' ';
  const std::size_t pos = qlay.find(needle);
  if (pos == std::string::npos) return 0;
  return static_cast<std::size_t>(std::strtoull(qlay.c_str() + pos + needle.size(), nullptr, 10));
}

/// Hash of every component position: the determinism check of the
/// library path, where no layout text is produced.
std::string position_hash(const QuantumNetlist& nl) {
  std::vector<double> xy;
  xy.reserve(2 * nl.component_count());
  for (const Qubit& q : nl.qubits()) xy.insert(xy.end(), {q.pos.x, q.pos.y});
  for (const WireBlock& b : nl.blocks()) xy.insert(xy.end(), {b.pos.x, b.pos.y});
  return hex64(fnv1a64(xy.data(), xy.size() * sizeof(double)));
}

// ---- results ---------------------------------------------------------

/// Counts attempted operations and failures of operations and gates.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Layout quality, pooled over the distinct layouts a run produced.
struct Quality {
  double crossings{0.0};
  double edges{0.0};
  double unified{0.0};
  double ph_pct_sum{0.0};
  int layouts{0};

  void add(const QuantumNetlist& nl, const CrossingReport& cr, const HotspotReport& hs) {
    crossings += cr.total;
    edges += static_cast<double>(nl.edge_count());
    unified += unified_edge_count(nl);
    ph_pct_sum += hs.ph * 100.0;
    ++layouts;
  }
};

/// Audits one layout (spacing violations fail the gate) and adds its
/// quality; spans go to `rec` when tracing.
void audit_and_measure(const QuantumNetlist& nl, double spacing, const std::string& what,
                       Outcome& out, Quality* quality, SpanRecorder* rec) {
  AuditOptions aopt;
  aopt.qubit_min_spacing = spacing;
  AuditReport audit;
  {
    Scope s(rec, "metrics.audit");
    audit = audit_layout(nl, aopt);
  }
  out.check(audit.clean() && audit.count(ViolationKind::kQubitSpacing) == 0,
            what + ": audit found " + std::to_string(audit.violations.size()) + " violations");
  CrossingReport cr;
  HotspotReport hs;
  {
    Scope s(rec, "metrics.crossings");
    cr = compute_crossings(nl);
  }
  {
    Scope s(rec, "metrics.hotspots");
    hs = compute_hotspots(nl);
  }
  if (quality) quality->add(nl, cr, hs);
}

/// What the untraced run measured, and the gates of the whole run.
struct Run {
  std::vector<double> latency[3];    ///< client-observed ms (window only)
  std::vector<double> server_ms[3];  ///< server-side ms read from replies
  /// Pipeline stage ms of each timed cold place (paper-eval: of each
  /// fresh-netlist job).
  std::vector<double> job_ms;
  std::vector<double> fill_ms;       ///< client ms of the set-up cache fills
  std::vector<double> setup_s;
  double window_s{0.0};
  std::uint64_t ops{0};  ///< completed requests or matrix jobs in the window
  double peak_rss_mb{0.0};
  Quality quality;
  Outcome outcome;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- traced pipeline (shared by the daemon replay and paper-eval) ----

struct PipelineRun {
  QuantumNetlist nl;
  std::optional<BinGrid> grid;
  PipelineResult stats;
};

/// run_batch_job + Pipeline::run, one public call per span.
PipelineRun traced_pipeline(const DeviceSpec& spec, LegalizerKind kind, unsigned gp_seed,
                            int gp_levels, bool detailed, const QuantumNetlist* gp_layout,
                            SpanRecorder* rec) {
  PipelineRun run;
  {
    Scope s(rec, "netlist.build");
    run.nl = gp_layout ? *gp_layout : build_netlist(spec);
  }
  if (!gp_layout) {
    Scope s(rec, "placement.gp");
    GlobalPlacerOptions gopt;
    gopt.seed = gp_seed;
    gopt.levels = gp_levels;
    run.stats.gp = GlobalPlacer(gopt).place(run.nl);
  }
  const PipelineOptions popt;
  {
    Scope s(rec, "core.qubit_lg");
    MacroLegalizerOptions mopt = quantum_flow(kind) ? MacroLegalizer::quantum().options()
                                                    : MacroLegalizer::classic().options();
    mopt.solver = popt.solver;
    run.stats.qubit = QubitLegalizer(mopt).legalize(run.nl);
  }
  if (!run.stats.qubit.success) throw std::runtime_error("qubit legalization failed");
  {
    Scope s(rec, kind == LegalizerKind::kQgdp ? "core.resonator_lg" : "legalization.block_lg");
    BinGrid grid(run.nl.die());
    for (const auto& q : run.nl.qubits()) grid.block_rect(q.rect());
    switch (kind) {
      case LegalizerKind::kTetris:
      case LegalizerKind::kQTetris:
        run.stats.blocks = TetrisLegalizer{}.legalize(run.nl, grid);
        break;
      case LegalizerKind::kAbacus:
      case LegalizerKind::kQAbacus:
        run.stats.blocks = AbacusLegalizer{popt.abacus}.legalize(run.nl, grid);
        break;
      case LegalizerKind::kQgdp:
        run.stats.blocks = ResonatorLegalizer{popt.resonator}.legalize(run.nl, grid);
        break;
    }
    run.grid.emplace(std::move(grid));
  }
  if (detailed && kind == LegalizerKind::kQgdp) {
    Scope s(rec, "core.dp");
    run.stats.dp = DetailedPlacer(popt.dp).place(run.nl, *run.grid);
  }
  return run;
}

/// Layer counters a replay collects besides its spans.
struct LayerCounters {
  std::vector<GlobalPlacerStats> gp;
  std::vector<DetailedPlaceResult> dp;
  std::vector<EcoResult> eco;
  std::vector<double> layout_bytes;
  std::vector<double> reply_bytes;
  std::vector<double> worker_overhead_ms[3];
};

// ---- daemon workloads: client side -----------------------------------

struct Op {
  int session{0};
  Cls cls{kCold};
  bool timed{false};  ///< false for the set-up cache fills
  PlaceRequest place;
  EcoRequest eco;
  std::string hash;  ///< layout hash the daemon answered
};

/// What the client sessions saw, shared under one mutex.
struct Ledger {
  std::mutex mu;
  std::vector<Op> ops;  ///< completion order (per-session order kept)
  std::map<std::string, std::string> hash_by_request;  ///< place identity -> hash
  std::map<std::string, std::string> layout_by_hash;   ///< distinct served layouts
  std::map<std::string, std::string> post_by_edit;     ///< pre-hash + edit -> hash
  std::uint64_t sent_place{0};
  std::uint64_t sent_eco{0};
  std::uint64_t expect_hits{0};
  std::uint64_t expect_misses{0};
  Run* run{nullptr};
};

class Session {
 public:
  Session(Ledger& ledger, int id, std::uint16_t port) : ledger_(ledger), id_(id) {
    std::string error;
    if (!client_.connect("127.0.0.1", port, &error)) throw std::runtime_error("connect: " + error);
  }

  /// One place; false when the request failed (already counted).
  bool place(const PlaceRequest& req, Cls cls, bool timed) {
    const auto t0 = Clock::now();
    std::string error;
    const auto rep = client_.place(req, &error);
    const double ms = ms_since(t0);
    const bool layout_ok = rep && rep->layout_hash == hex64(fnv1a64(rep->layout));
    if (rep && rep->status == StatusCode::kOk && hash_ != rep->layout_hash) {
      auto it = home_by_hash_.find(rep->layout_hash);
      if (it == home_by_hash_.end()) {
        it = home_by_hash_.emplace(rep->layout_hash, qubit_positions(rep->layout)).first;
      }
      home_ = &it->second;
    }
    std::lock_guard<std::mutex> lock(ledger_.mu);
    Outcome& out = ledger_.run->outcome;
    ++out.attempted;
    ++ledger_.sent_place;
    if (cls == kWarm) ++ledger_.expect_hits;
    if (cls == kCold && req.use_cache) ++ledger_.expect_misses;
    if (!rep || rep->status != StatusCode::kOk) {
      out.fail("place " + request_identity(req) + ": " + (rep ? to_string(rep->status) : error));
      failed_ = true;
      return false;
    }
    out.check(rep->cached == (cls == kWarm), "place " + request_identity(req) +
                                                  (rep->cached ? " hit" : " missed") +
                                                  " the cache");
    out.check(layout_ok, "place reply body does not hash to its layout_hash");
    const auto [it, fresh] =
        ledger_.hash_by_request.emplace(request_identity(req), rep->layout_hash);
    out.check(fresh || it->second == rep->layout_hash,
              "place " + request_identity(req) + " is not byte-identical to its first answer");
    if (ledger_.layout_by_hash.count(rep->layout_hash) == 0) {
      ledger_.layout_by_hash.emplace(rep->layout_hash, rep->layout);
    }
    if (!timed) {
      ledger_.run->fill_ms.push_back(ms);
    } else {
      ledger_.run->latency[cls].push_back(ms);
      ledger_.run->server_ms[cls].push_back(rep->place_ms);
      if (cls == kCold) {
        ledger_.run->job_ms.push_back(rep->gp_ms + rep->qubit_ms + rep->resonator_ms + rep->dp_ms);
      }
      ++ledger_.run->ops;
    }
    Op op;
    op.session = id_;
    op.cls = cls;
    op.timed = timed;
    op.place = req;
    op.hash = rep->layout_hash;
    ledger_.ops.push_back(std::move(op));
    hash_ = rep->layout_hash;
    return true;
  }

  /// One ECO edit; false when it failed (already counted).
  bool eco(const EcoRequest& req) {
    const auto t0 = Clock::now();
    std::string error;
    const auto rep = client_.eco(req, &error);
    const double ms = ms_since(t0);
    std::lock_guard<std::mutex> lock(ledger_.mu);
    Outcome& out = ledger_.run->outcome;
    ++out.attempted;
    ++ledger_.sent_eco;
    if (!rep || rep->status != StatusCode::kOk || !rep->success || rep->window_violations != 0) {
      out.fail("eco: " + (rep ? to_string(rep->status) +
                                    " success=" + std::to_string(rep->success) +
                                    " window_violations=" + std::to_string(rep->window_violations)
                              : error));
      failed_ = true;
      return false;
    }
    const auto [it, fresh] =
        ledger_.post_by_edit.emplace(hash_ + '\n' + format_eco_request(req), rep->layout_hash);
    out.check(fresh || it->second == rep->layout_hash,
              "eco of the same layout and edit answered a different layout");
    ledger_.run->latency[kEco].push_back(ms);
    ledger_.run->server_ms[kEco].push_back(rep->eco_ms);
    ++ledger_.run->ops;
    Op op;
    op.session = id_;
    op.cls = kEco;
    op.timed = true;
    op.eco = req;
    op.hash = rep->layout_hash;
    ledger_.ops.push_back(std::move(op));
    hash_ = rep->layout_hash;
    return true;
  }

  [[nodiscard]] const std::vector<QubitPos>& home() const { return *home_; }
  /// False once a request failed: the session's layout is then unknown.
  [[nodiscard]] bool healthy() const { return !failed_; }
  [[nodiscard]] std::optional<StatsReply> stats() { return client_.stats(); }

 private:
  Ledger& ledger_;
  int id_;
  QgdpdClient client_;
  std::string hash_;  ///< hash of the session's current layout
  bool failed_{false};
  std::map<std::string, std::vector<QubitPos>> home_by_hash_;
  const std::vector<QubitPos>* home_{nullptr};
};

struct Fixture {
  std::unique_ptr<Qgdpd> daemon;
  Ledger ledger;
  std::vector<std::unique_ptr<Session>> sessions;
};

/// The GP seed of cycle `c` of session `s`: the sessions rotate over
/// the three seeds, out of step with each other.
unsigned cycle_seed(const Inputs& in, int s, int c) {
  return in.gp_seeds[static_cast<std::size_t>(s + c) % in.gp_seeds.size()];
}

/// Starts the daemon, connects the sessions and fills the cache, one
/// place at a time, with the layouts the warm requests will ask for.
std::unique_ptr<Fixture> set_up_daemon(const WorkloadDef& wd, const Inputs& in, Run& run) {
  auto fx = std::make_unique<Fixture>();
  fx->ledger.run = &run;
  QgdpdOptions opt;
  if (wd.w == Workload::kForkIsolated) opt.isolation = Isolation::kFork;
  fx->daemon = std::make_unique<Qgdpd>(opt);
  std::string error;
  if (!fx->daemon->start(&error)) throw std::runtime_error("daemon start: " + error);
  for (int s = 0; s < wd.sessions; ++s) {
    fx->sessions.push_back(std::make_unique<Session>(fx->ledger, s, fx->daemon->port()));
  }
  // cold-place's warm probe reads one layout; the others rotate over all.
  const std::size_t fills = wd.w == Workload::kColdPlace ? 1 : in.gp_seeds.size();
  for (std::size_t k = 0; k < fills; ++k) {
    fx->sessions.front()->place(place_request(wd.topology, in.gp_seeds[k], true), kCold, false);
  }
  return fx;
}

/// One session's closed loop until `deadline`.
void drive_session(const WorkloadDef& wd, const Inputs& in, Session& s, int id,
                   Clock::time_point deadline) {
  const double skew = in.skew + 0.5 * id;
  for (int c = 0; Clock::now() < deadline && s.healthy(); ++c) {
    const unsigned seed = cycle_seed(in, id, c);
    switch (wd.w) {
      case Workload::kColdPlace: {
        if (!s.place(place_request(wd.topology, seed, false), kCold, true)) return;
        s.eco(eco_edit(0, s.home(), kEcoMoves, skew, in.offset, c));
        s.place(place_request(wd.topology, in.gp_seeds[0], true), kWarm, true);
        break;
      }
      case Workload::kEcoStream: {
        if (!s.place(place_request(wd.topology, seed, true), kWarm, true)) return;
        for (int r = 0; r < 4 && s.healthy(); ++r) {
          s.eco(eco_edit(r, s.home(), kEcoMoves, skew, in.offset, c));
        }
        break;
      }
      case Workload::kForkIsolated: {
        if (!s.place(place_request(wd.topology, seed, false), kCold, true)) return;
        for (int r = 0; r < 2 && s.healthy(); ++r) {
          s.eco(eco_edit(r, s.home(), kEcoMoves, skew, in.offset, c));
        }
        s.place(place_request(wd.topology, seed, true), kWarm, true);
        break;
      }
      case Workload::kPaperEval:
        return;
    }
  }
}

/// The daemon's counters must match what the sessions sent.
void cross_check_stats(Fixture& fx, bool fork, Run& run, std::map<std::string, double>& layer) {
  Outcome& out = run.outcome;
  const auto st = fx.sessions.front()->stats();
  ++out.attempted;
  if (!st) {
    out.fail("stats request failed");
    return;
  }
  const Ledger& l = fx.ledger;
  auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    out.check(got == want, std::string("stats ") + what + " = " + std::to_string(got) +
                               ", expected " + std::to_string(want));
  };
  expect("served_place", st->served_place, l.sent_place);
  expect("served_eco", st->served_eco, l.sent_eco);
  expect("cache_hits", st->cache_hits, l.expect_hits);
  expect("cache_misses", st->cache_misses, l.expect_misses);
  expect("internal_errors", st->internal_errors, 0);
  expect("protocol_errors", st->protocol_errors, 0);
  expect("validation_rejects", st->validation_rejects, 0);
  expect("shed_places", st->shed_places, 0);
  expect("timeouts", st->timeouts, 0);
  expect("worker_crashes", st->worker_crashes, 0);
  expect("worker_oom_kills", st->worker_oom_kills, 0);
  expect("worker_timeouts", st->worker_timeouts, 0);
  expect("workers_recycled", st->workers_recycled, 0);
  if (fork) {
    const WorkerPoolCounters wc = fx.daemon->workers()->counters();
    // Every cold place and ECO runs in one child; hedges add one each.
    std::uint64_t runs = 0;
    for (const Op& op : l.ops) runs += op.cls != kWarm ? 1 : 0;
    expect("worker launches", wc.launched, runs + wc.hedges_launched);
    expect("hedge_wins", st->hedge_wins, wc.hedge_wins);
  }
  const double lookups = static_cast<double>(st->cache_hits + st->cache_misses);
  layer["server.cache_hit_ratio"] = lookups > 0 ? st->cache_hits / lookups : 0.0;
  layer["server.hedges_launched"] = static_cast<double>(st->hedges_launched);
  layer["server.hedge_wins"] = static_cast<double>(st->hedge_wins);
  layer["server.worker_failures"] =
      static_cast<double>(st->worker_crashes + st->worker_oom_kills + st->worker_timeouts);
}

/// Audits every distinct served layout and pools its quality. A fork
/// daemon's layouts must also equal the in-process pipeline's bytes.
void verify_layouts(const WorkloadDef& wd, Fixture& fx, Run& run) {
  for (const auto& [hash, text] : fx.ledger.layout_by_hash) {
    ++run.outcome.attempted;
    std::istringstream is(text);
    const QuantumNetlist nl = read_layout(is);
    // Quantum flows legalize at >= 1 cell of qubit spacing.
    audit_and_measure(nl, 1.0, "layout " + hash, run.outcome, &run.quality, nullptr);
  }
  if (wd.w != Workload::kForkIsolated) return;
  for (const auto& [identity, hash] : fx.ledger.hash_by_request) {
    for (const Op& op : fx.ledger.ops) {
      if (op.cls == kEco || request_identity(op.place) != identity) continue;
      ++run.outcome.attempted;
      BatchJob job;
      job.spec = *topology_by_name(op.place.topology);
      job.gp_seed = op.place.seed;
      std::ostringstream os;
      write_layout(run_batch_job(job).netlist, os);
      run.outcome.check(hex64(fnv1a64(os.str())) == hash,
                        "fork-isolated layout differs from the in-process pipeline for " +
                            identity);
      break;
    }
  }
}

// ---- daemon workloads: traced replay ---------------------------------

struct ReplayState {
  bool has_layout{false};
  bool materialized{false};
  std::string layout;
  double spacing{1.0};
  QuantumNetlist nl;
  std::optional<BinGrid> grid;
};

/// Replays daemon requests the way Qgdpd::handle_place / handle_eco
/// make their calls, one span per public call. With `workers` set the
/// cold places and edits go through WorkerPool, as --isolation fork does.
class Replayer {
 public:
  Replayer(SpanRecorder& rec, LayerCounters& counters, WorkerPool* workers)
      : rec_(rec), counters_(counters), workers_(workers) {}

  std::string place(ReplayState& st, const PlaceRequest& request, Cls cls) {
    const std::string frame = encode_frame(FrameType::kPlaceRequest, format_place_request(request));
    rec_.begin_request(kClsName[cls]);
    Scope root(&rec_, "request");
    std::optional<PlaceRequest> req;
    std::optional<LegalizerKind> kind;
    std::optional<DeviceSpec> spec;
    {
      Scope s(&rec_, "server.decode");
      const auto header = decode_frame_header(reinterpret_cast<const unsigned char*>(frame.data()));
      req = parse_place_request(frame.substr(kFrameHeaderSize));
      if (req && validate_place_request(*req).ok()) {
        kind = flow_by_name(req->flow);
        spec = topology_by_name(req->topology);
      }
      if (!header || !kind || !spec) throw std::runtime_error("replay: bad place request");
    }
    PlaceReply rep;
    {
      Scope s(&rec_, "server.hash");
      rep.cache_key = layout_cache_key(*spec, req->flow, req->seed, options_fingerprint(*req));
    }
    rep.qubits = static_cast<std::size_t>(spec->qubit_count);
    if (req->use_cache) {
      std::optional<std::string> hit;
      {
        Scope s(&rec_, "server.cache_get");
        hit = cache_.get(rep.cache_key);
      }
      if (hit) {
        {
          Scope s(&rec_, "server.hash");
          rep.layout_hash = hex64(fnv1a64(*hit));
        }
        rep.cached = true;
        rep.blocks = qlay_count(*hit, "blocks");
        st.has_layout = true;
        st.materialized = false;
        st.grid.reset();
        st.layout = std::move(*hit);
        st.spacing = spacing_by_key_[rep.cache_key];
        return reply(st, *req, rep);
      }
    }
    std::string text;
    double spacing = 0.0;
    std::optional<QuantumNetlist> placed;
    if (workers_) {
      WorkerResult w;
      const auto t0 = Clock::now();
      {
        Scope s(&rec_, "server.worker_run");
        w = workers_->run_place(*req, rep.cache_key, rep.qubits);
      }
      const double run_ms = ms_since(t0);
      std::optional<PlaceReply> wrep;
      {
        Scope s(&rec_, "server.decode");
        if (w.status == StatusCode::kOk && w.reply_type == FrameType::kPlaceReply) {
          wrep = parse_place_reply(w.reply_payload);
        }
      }
      if (!wrep) throw std::runtime_error("replay: worker place failed: " + w.message);
      counters_.worker_overhead_ms[cls].push_back(
          run_ms - (wrep->gp_ms + wrep->qubit_ms + wrep->resonator_ms + wrep->dp_ms));
      text = std::move(w.layout);
      spacing = w.spacing;
      rep.blocks = wrep->blocks;
      rep.layout_hash = wrep->layout_hash;
    } else {
      PipelineRun run = traced_pipeline(*spec, *kind, req->seed, req->gp_levels,
                                        req->run_detailed, nullptr, &rec_);
      counters_.gp.push_back(run.stats.gp);
      if (req->run_detailed) counters_.dp.push_back(run.stats.dp);
      text = write(run.nl);
      {
        Scope s(&rec_, "server.hash");
        rep.layout_hash = hex64(fnv1a64(text));
      }
      rep.blocks = run.nl.block_count();
      spacing = quantum_flow(*kind) ? run.stats.qubit.spacing_used : 0.0;
      placed = std::move(run.nl);
    }
    if (req->use_cache) {
      Scope s(&rec_, "server.cache_put");
      cache_.put(rep.cache_key, text);
      spacing_by_key_[rep.cache_key] = spacing;
    }
    st.has_layout = true;
    st.materialized = placed.has_value();
    if (placed) st.nl = std::move(*placed);
    st.grid.reset();
    st.layout = std::move(text);
    st.spacing = spacing;
    return reply(st, *req, rep);
  }

  std::string eco(ReplayState& st, const EcoRequest& request) {
    const std::string frame = encode_frame(FrameType::kEcoRequest, format_eco_request(request));
    rec_.begin_request(kClsName[kEco]);
    Scope root(&rec_, "request");
    std::optional<EcoRequest> req;
    {
      Scope s(&rec_, "server.decode");
      req = parse_eco_request(frame.substr(kFrameHeaderSize));
      if (!req || !validate_eco_request(*req).ok() || !st.has_layout) {
        throw std::runtime_error("replay: bad eco request");
      }
      const std::optional<Rect> die =
          st.materialized ? std::optional<Rect>(st.nl.die()) : qlay_die(st.layout);
      if (die && !validate_eco_targets_in_fabric(*req, *die, EcoOptions{}.search_radius).ok()) {
        throw std::runtime_error("replay: eco target outside the fabric");
      }
    }
    EcoReply rep;
    if (workers_) {
      WorkerResult w;
      const auto t0 = Clock::now();
      {
        Scope s(&rec_, "server.worker_run");
        w = workers_->run_eco(*req, st.layout, st.spacing, qlay_count(st.layout, "qubits"));
      }
      const double run_ms = ms_since(t0);
      std::optional<EcoReply> wrep;
      {
        Scope s(&rec_, "server.decode");
        if (w.status == StatusCode::kOk && w.reply_type == FrameType::kEcoReply) {
          wrep = parse_eco_reply(w.reply_payload);
        }
      }
      if (!wrep || !wrep->success) throw std::runtime_error("replay: worker eco failed");
      counters_.worker_overhead_ms[kEco].push_back(run_ms - wrep->eco_ms);
      rep = *wrep;
      rep.layout.clear();
      st.layout = std::move(w.layout);
      st.materialized = false;
      st.grid.reset();
    } else {
      if (!st.materialized) {
        Scope s(&rec_, "io.read_layout");
        std::istringstream is(st.layout);
        st.nl = read_layout(is);
        st.materialized = true;
      }
      if (!st.grid) {
        Scope s(&rec_, "core.grid_for");
        st.grid.emplace(IncrementalLegalizer::grid_for(st.nl));
      }
      std::vector<QubitMove> moves;
      for (const EcoMove& m : req->moves) moves.push_back({m.qubit, Point{m.x, m.y}});
      EcoOptions eopt;
      eopt.min_spacing = st.spacing;
      eopt.policy = req->policy == "baa" ? EcoOptions::BlockPolicy::kBaa
                                         : EcoOptions::BlockPolicy::kAbacusWindow;
      EcoResult res;
      {
        Scope s(&rec_, "core.eco");
        res = IncrementalLegalizer(eopt).move_qubits(st.nl, *st.grid, moves);
      }
      if (!res.success || res.window_violations != 0) {
        throw std::runtime_error("replay: eco failed");
      }
      counters_.eco.push_back(res);
      rep.success = true;
      rep.ripped_blocks = res.ripped_blocks;
      rep.replaced_blocks = res.replaced_blocks;
      rep.edges_touched = res.edges_touched;
      rep.grid_bins_touched = res.grid_bins_touched;
      rep.window_growths = res.window_growths;
      st.layout = write(st.nl);
      {
        Scope s(&rec_, "server.hash");
        rep.layout_hash = hex64(fnv1a64(st.layout));
      }
    }
    std::string out;
    {
      Scope s(&rec_, "server.encode");
      if (req->want_layout) rep.layout = st.layout;
      out = encode_frame(FrameType::kEcoReply, format_eco_reply(rep));
    }
    counters_.reply_bytes.push_back(static_cast<double>(out.size()));
    {
      Scope s(&rec_, "server.decode");
      if (!parse_eco_reply(out.substr(kFrameHeaderSize))) throw std::runtime_error("bad eco reply");
    }
    return rep.layout_hash;
  }

  /// The distinct layouts this replay placed, for the metrics spans.
  std::map<std::string, std::string> placed_layouts;

 private:
  std::string write(const QuantumNetlist& nl) {
    Scope s(&rec_, "io.write_layout");
    std::ostringstream os;
    write_layout(nl, os);
    std::string text = os.str();
    counters_.layout_bytes.push_back(static_cast<double>(text.size()));
    return text;
  }

  std::string reply(const ReplayState& st, const PlaceRequest& req, PlaceReply& rep) {
    std::string out;
    {
      Scope s(&rec_, "server.encode");
      if (req.want_layout) rep.layout = st.layout;
      out = encode_frame(FrameType::kPlaceReply, format_place_reply(rep));
    }
    counters_.reply_bytes.push_back(static_cast<double>(out.size()));
    {
      Scope s(&rec_, "server.decode");
      if (!parse_place_reply(out.substr(kFrameHeaderSize))) throw std::runtime_error("bad reply");
    }
    placed_layouts.try_emplace(rep.layout_hash, st.layout);
    return rep.layout_hash;
  }

  SpanRecorder& rec_;
  LayerCounters& counters_;
  WorkerPool* workers_;
  LayoutCache cache_{64};
  std::map<std::string, double> spacing_by_key_;
};

/// Replays the untraced run's requests (set-up fills first) until the
/// log or `deadline` runs out; every answer must hash-equal the daemon's.
void replay_daemon(const WorkloadDef& wd, const std::vector<Op>& ops, Clock::time_point deadline,
                   SpanRecorder& rec, LayerCounters& counters, Outcome& out) {
  std::unique_ptr<WorkerPool> workers;
  if (wd.w == Workload::kForkIsolated) {
    // The pool a default fork daemon builds: max_inflight_places + 1.
    WorkerPoolOptions wopt;
    wopt.max_workers = QgdpdOptions{}.max_inflight_places + 1;
    wopt.limits.wall_timeout_ms = QgdpdOptions{}.worker_wall_ms;
    workers = std::make_unique<WorkerPool>(wopt);
  }
  Replayer replayer(rec, counters, workers.get());
  std::vector<ReplayState> states(static_cast<std::size_t>(wd.sessions));
  for (const Op& op : ops) {
    if (op.timed && Clock::now() >= deadline) break;
    ++out.attempted;
    ReplayState& st = states[static_cast<std::size_t>(op.session)];
    try {
      const std::string hash =
          op.cls == kEco ? replayer.eco(st, op.eco) : replayer.place(st, op.place, op.cls);
      out.check(hash == op.hash, "traced replay diverged from the daemon's answer");
    } catch (const std::exception& e) {
      out.fail(e.what());
      return;
    }
  }
  for (const auto& [hash, text] : replayer.placed_layouts) {
    rec.begin_request("verify");
    std::istringstream is(text);
    const QuantumNetlist nl = read_layout(is);
    audit_and_measure(nl, 1.0, "replayed layout " + hash, out, nullptr, &rec);
  }
}

// ---- paper-eval ------------------------------------------------------

struct PaperFixture {
  std::vector<DeviceSpec> specs;
  /// Shared GP positions, [GP seed index][topology].
  std::vector<std::vector<QuantumNetlist>> gp_layouts;
};

std::unique_ptr<PaperFixture> set_up_paper(const Inputs& in) {
  auto fx = std::make_unique<PaperFixture>();
  fx->specs = all_paper_topologies();
  (void)ThreadPool::shared();
  for (const unsigned seed : in.gp_seeds) {
    fx->gp_layouts.emplace_back();
    for (const DeviceSpec& spec : fx->specs) {
      QuantumNetlist nl = build_netlist(spec);
      GlobalPlacerOptions gopt;
      gopt.seed = seed;
      GlobalPlacer(gopt).place(nl);
      fx->gp_layouts.back().push_back(std::move(nl));
    }
  }
  return fx;
}

/// Determinism and library-path bookkeeping shared by all passes.
struct PaperState {
  std::map<std::string, std::string> hash_by_job;   ///< job identity -> positions hash
  std::map<std::string, std::string> post_by_edit;  ///< pre-hash + edit -> positions hash
  double job_ms_sum{0.0};
  double lane_ms_sum{0.0};
};

std::string job_identity(const BatchJob& job, bool shared) {
  return job.spec.name + '/' + legalizer_name(job.kind) + '/' + std::to_string(job.gp_seed) +
         (shared ? "/shared" : "/fresh");
}

/// One pass of the paper matrix: every flow on every topology from a
/// fresh netlist, then from the shared GP positions, each result audited
/// and measured, then eight library ECO edits per fresh qGDP result.
/// Untraced, the jobs run on BatchRunner lanes; traced, the same jobs run
/// one call at a time under spans.
void paper_pass(const PaperFixture& fx, const Inputs& in, int pass, PaperState& ps, Run& run,
                SpanRecorder* rec, LayerCounters* counters) {
  const auto k = static_cast<std::size_t>(pass) % in.gp_seeds.size();
  const unsigned seed = in.gp_seeds[k];
  for (const bool shared : {false, true}) {
    const Cls cls = shared ? kWarm : kCold;
    // From fresh netlists the whole matrix is one BatchRunner call; from
    // shared GP it is one call per topology (five flows, the `qgdp_tool --flow
    // all` user). Both are timed per pass: job times span three orders
    // of magnitude across the six devices, so a per-job median falls
    // between device clusters and jumps from run to run.
    std::vector<std::vector<BatchJob>> batches;
    if (shared) {
      for (std::size_t i = 0; i < fx.specs.size(); ++i) {
        batches.push_back(BatchRunner::shared_gp_flows(fx.specs[i], all_legalizer_kinds(),
                                                       fx.gp_layouts[k][i], seed, true));
      }
    } else {
      batches.push_back(BatchRunner::matrix(fx.specs, all_legalizer_kinds(), {seed}, true));
    }
    std::vector<BatchJob> jobs;
    std::vector<BatchResult> results;
    double pass_ms = 0.0;
    for (const std::vector<BatchJob>& batch : batches) {
      std::vector<BatchResult> out(batch.size());
      if (!rec) {
        const auto t0 = Clock::now();
        out = BatchRunner().run(batch);
        const double wall = ms_since(t0);
        const double lanes = static_cast<double>(
            std::min<std::size_t>(ThreadPool::shared().size(), batch.size()));
        for (const BatchResult& r : out) {
          const double ms = r.stats.gp_ms + r.stats.qubit_ms + r.stats.resonator_ms + r.stats.dp_ms;
          if (!shared) run.job_ms.push_back(ms);
          ps.job_ms_sum += ms;
        }
        pass_ms += wall;
        ps.lane_ms_sum += wall * lanes;
      }
      jobs.insert(jobs.end(), batch.begin(), batch.end());
      results.insert(results.end(), std::make_move_iterator(out.begin()),
                     std::make_move_iterator(out.end()));
    }
    if (!rec) run.latency[cls].push_back(pass_ms);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const BatchJob& job = jobs[j];
      BatchResult& r = results[j];
      const std::string identity = job_identity(job, shared);
      ++run.outcome.attempted;
      if (rec) {
        rec->begin_request(kClsName[cls]);
        Scope root(rec, "request");
        PipelineRun pr = traced_pipeline(job.spec, job.kind, job.gp_seed, job.gp_levels,
                                         job.run_detailed, job.gp_layout, rec);
        if (!job.gp_layout) counters->gp.push_back(pr.stats.gp);
        if (job.run_detailed && job.kind == LegalizerKind::kQgdp) {
          counters->dp.push_back(pr.stats.dp);
        }
        r.job = job;
        r.netlist = std::move(pr.nl);
        r.stats = pr.stats;
      } else {
        ++run.ops;
      }
      const std::string hash = position_hash(r.netlist);
      const auto [it, fresh] = ps.hash_by_job.emplace(identity, hash);
      run.outcome.check(fresh || it->second == hash, identity + " is not deterministic");
      // Quality counts each distinct fresh-netlist qGDP layout once: the
      // same three GP seeds, so the same layouts, in every run.
      const bool measure = !rec && fresh && !shared && job.kind == LegalizerKind::kQgdp;
      const double spacing = quantum_flow(job.kind) ? r.stats.qubit.spacing_used : 0.0;
      if (rec) rec->begin_request("metrics");
      Scope root(rec, "request");
      audit_and_measure(r.netlist, spacing, identity, run.outcome, measure ? &run.quality : nullptr,
                        rec);
    }
    if (shared) continue;
    double edits_ms = 0.0;
    // Library ECO edits on each qGDP result, the eco_workflow user: the
    // daemon's per-edit work without the socket.
    for (BatchResult& r : results) {
      if (r.job.kind != LegalizerKind::kQgdp) continue;
      std::optional<BinGrid> grid;
      {
        if (rec) rec->begin_request(kClsName[kEco]);
        Scope root(rec, "request");
        Scope s(rec, "core.grid_for");
        grid.emplace(IncrementalLegalizer::grid_for(r.netlist));
      }
      const auto home = qubit_positions(r.netlist);
      const int count = std::clamp(static_cast<int>(home.size()) / 10, 1, kEcoMoves);
      EcoOptions eopt;
      eopt.min_spacing = r.stats.qubit.spacing_used;
      eopt.policy = EcoOptions::BlockPolicy::kAbacusWindow;
      for (int round = 0; round < 2 * kEditVariants; ++round) {
        const EcoRequest edit = eco_edit(round, home, count, in.skew, in.offset, round / 2);
        std::vector<QubitMove> moves;
        for (const EcoMove& m : edit.moves) moves.push_back({m.qubit, Point{m.x, m.y}});
        const std::string pre = position_hash(r.netlist);
        ++run.outcome.attempted;
        if (rec) rec->begin_request(kClsName[kEco]);
        const auto t0 = Clock::now();
        EcoResult res;
        std::string post;
        {
          Scope root(rec, "request");
          {
            Scope s(rec, "core.eco");
            res = IncrementalLegalizer(eopt).move_qubits(r.netlist, *grid, moves);
          }
          std::string text;
          {
            Scope s(rec, "io.write_layout");
            std::ostringstream os;
            write_layout(r.netlist, os);
            text = os.str();
          }
          {
            Scope s(rec, "server.hash");
            post = hex64(fnv1a64(text));
          }
          if (counters) counters->layout_bytes.push_back(static_cast<double>(text.size()));
        }
        const double ms = ms_since(t0);
        if (!res.success || res.window_violations != 0) {
          run.outcome.fail("library eco on " + r.job.spec.name + " failed");
          break;
        }
        if (counters) counters->eco.push_back(res);
        edits_ms += ms;
        const auto [it, fresh] =
            ps.post_by_edit.emplace(pre + '\n' + format_eco_request(edit), post);
        run.outcome.check(fresh || it->second == post, "library eco is not deterministic");
      }
    }
    if (!rec) run.latency[kEco].push_back(edits_ms);
  }
}

// ---- reporting -------------------------------------------------------

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Args& args, const Run& run, const std::map<std::string, double>& values,
                  bool trace) {
  const WorkloadDef& wd = *args.workload;
  const std::vector<MetricDef> defs =
      trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
            : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  // Human-readable table: metric, value, unit, direction.
  for (const MetricDef& m : defs) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(24)
              << values.at(m.name) << "  " << std::left << std::setw(6) << m.unit << std::right
              << " " << m.better << " is better\n";
  }
  std::cout << "stamp {\"workload\":\"" << wd.name << "\",\"seed\":" << args.seed
            << ",\"seconds\":" << args.seconds << ",\"trace\":" << (trace ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu\":\""
            << json_escape(cpu_model()) << "\",\"compiler\":\"" << QGDP_PERFBENCH_COMPILER
            << "\",\"build_type\":\"" << QGDP_PERFBENCH_BUILD_TYPE << "\",\"source\":\""
            << json_escape(args.source_id) << "\",\"samples\":{\"setup\":" << run.setup_s.size();
  for (int c = 0; c < 3; ++c) {
    std::cout << ",\"" << kClsName[c] << "\":" << run.latency[c].size();
  }
  std::cout << "},\"tail_percentile\":{";
  for (int c = 0; c < 3; ++c) {
    std::cout << (c ? "," : "") << "\"" << kClsName[c] << "\":" << wd.tail[c] * 100;
  }
  std::cout << "}}\n";
  for (const std::string& e : run.outcome.errors) std::cerr << "perfbench: FAILED: " << e << "\n";

  std::cout << "{\"correct\": " << (run.outcome.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, run.outcome.attempted)
            << ", \"failed\": " << run.outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << values.at(m.name)
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

std::map<std::string, double> end_to_end_values(const WorkloadDef& wd, const Run& run) {
  std::map<std::string, double> v;
  v["setup_s"] = median(run.setup_s);
  for (int c = 0; c < 3; ++c) {
    v[std::string(kClsName[c]) + "_p50_ms"] = median(run.latency[c]);
    v[std::string(kClsName[c]) + "_tail_ms"] = percentile(run.latency[c], wd.tail[c]);
  }
  v["ops_per_s"] = run.window_s > 0 ? static_cast<double>(run.ops) / run.window_s : 0.0;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, run.outcome.attempted));
  v["ok_ratio"] = 1.0 - static_cast<double>(run.outcome.failed) / attempted;
  v["peak_rss_mb"] = run.peak_rss_mb;
  const Quality& q = run.quality;
  v["crossings_per_edge"] = q.edges > 0 ? q.crossings / q.edges : 0.0;
  v["hotspot_ph_pct"] = q.layouts > 0 ? q.ph_pct_sum / q.layouts : 0.0;
  v["unified_pct"] = q.edges > 0 ? 100.0 * q.unified / q.edges : 0.0;
  return v;
}

/// Per-layer values of a traced run: span self times (median over the
/// primary class's requests, or over the requests that entered the
/// layer when the primary class never does), replay counters, and the
/// untraced phase's server-side and child figures already in `layer`.
void layer_values(const WorkloadDef& wd, const Run& run, const SpanRecorder& rec,
                  const LayerCounters& lc, std::map<std::string, double>& v) {
  const auto primary = rec.self_ms(kClsName[wd.primary]);
  const auto all = rec.self_ms("");
  auto span_ms = [&](const char* span) {
    const auto p = primary.find(span);
    if (p != primary.end()) return median(p->second);
    const auto a = all.find(span);
    return a != all.end() ? median(a->second) : 0.0;
  };
  const std::pair<const char*, const char*> spans[] = {
      {"netlist.build_ms", "netlist.build"},     {"placement.gp_ms", "placement.gp"},
      {"core.qubit_lg_ms", "core.qubit_lg"},     {"core.resonator_lg_ms", "core.resonator_lg"},
      {"legalization.block_lg_ms", "legalization.block_lg"},
      {"core.dp_ms", "core.dp"},                 {"core.eco_ms", "core.eco"},
      {"core.grid_for_ms", "core.grid_for"},     {"io.write_layout_ms", "io.write_layout"},
      {"io.read_layout_ms", "io.read_layout"},   {"metrics.audit_ms", "metrics.audit"},
      {"metrics.crossings_ms", "metrics.crossings"}, {"metrics.hotspots_ms", "metrics.hotspots"},
      {"server.hash_ms", "server.hash"},         {"server.encode_ms", "server.encode"},
      {"server.decode_ms", "server.decode"},     {"server.cache_get_ms", "server.cache_get"},
      {"server.cache_put_ms", "server.cache_put"}, {"server.worker_run_ms", "server.worker_run"},
  };
  for (const auto& [metric, span] : spans) v[metric] = span_ms(span);

  auto med = [](const auto& items, auto field) {
    std::vector<double> xs;
    for (const auto& it : items) xs.push_back(static_cast<double>(field(it)));
    return median(xs);
  };
  using G = GlobalPlacerStats;
  v["placement.gp_net_ms"] = med(lc.gp, [](const G& g) { return g.net_ms; });
  v["placement.gp_repulsion_ms"] = med(lc.gp, [](const G& g) { return g.repulsion_ms; });
  v["placement.gp_integrate_ms"] = med(lc.gp, [](const G& g) { return g.integrate_ms; });
  v["placement.gp_coarsen_ms"] = med(lc.gp, [](const G& g) { return g.coarsen_ms; });
  v["placement.gp_iterations"] = med(lc.gp, [](const G& g) { return g.iterations_run; });
  v["placement.gp_grid_flattens"] = med(lc.gp, [](const G& g) { return g.hash_rebuilds; });
  v["placement.gp_rebucketed_bodies"] = med(lc.gp, [](const G& g) { return g.rebucketed_bodies; });
  double examined = 0.0;
  double accepted = 0.0;
  for (const DetailedPlaceResult& d : lc.dp) {
    examined += d.examined;
    accepted += d.accepted;
  }
  v["core.dp_examined"] = med(lc.dp, [](const DetailedPlaceResult& d) { return d.examined; });
  v["core.dp_accept_ratio"] = examined > 0 ? accepted / examined : 0.0;
  v["core.eco_bins_touched"] = med(lc.eco, [](const EcoResult& e) { return e.grid_bins_touched; });
  v["core.eco_replaced_blocks"] = med(lc.eco, [](const EcoResult& e) { return e.replaced_blocks; });
  v["core.eco_window_growths"] = med(lc.eco, [](const EcoResult& e) { return e.window_growths; });
  v["io.layout_bytes"] = median(lc.layout_bytes);
  v["server.reply_bytes"] = median(lc.reply_bytes);
  const auto& overhead = lc.worker_overhead_ms[wd.primary].empty()
                             ? lc.worker_overhead_ms[kEco]
                             : lc.worker_overhead_ms[wd.primary];
  v["server.worker_overhead_ms"] = median(overhead);

  // Each primary request's traced total is the sum of its self times.
  std::vector<double> traced_totals;
  for (const auto& s : rec.spans()) {
    if (s.parent < 0 && s.request > 0 && std::string(s.name) == "request" &&
        rec.request_class(s.request) == kClsName[wd.primary]) {
      traced_totals.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  // paper-eval times whole passes end to end but replays job by job.
  const std::vector<double>& untraced =
      wd.w == Workload::kPaperEval ? run.job_ms : run.latency[wd.primary];
  v["trace.unattributed_ms"] = median(untraced) - median(traced_totals);
  for (const MetricDef& m : kPerLayer) v.emplace(m.name, 0.0);
}

// ---- main ------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qgdp_perfbench: " << why
            << "\nusage: qgdp_perfbench --workload cold-place|eco-stream|paper-eval|fork-isolated"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--source-id ID]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadDef& wd : kWorkloads) {
        if (value == wd.name) a.workload = &wd;
      }
      if (!a.workload) usage("unknown workload " + value);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
      if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!a.workload) usage("--workload is required");
  return a;
}

int run_benchmark(const Args& args) {
  const WorkloadDef& wd = *args.workload;
  const Inputs in = derive_inputs(args.seed);
  const bool trace = args.trace;
  log_phase(std::string("workload ") + wd.name + ", seed " + std::to_string(args.seed));
  // A traced run spends half its time untraced (client figures, daemon
  // counters) and half replaying under spans.
  const double window_s = trace ? args.seconds / 2 : args.seconds;
  Run run;
  std::map<std::string, double> layer;
  SpanRecorder rec;
  LayerCounters counters;

  if (wd.w == Workload::kPaperEval) {
    std::unique_ptr<PaperFixture> fx;
    for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
      fx.reset();
      const auto t0 = Clock::now();
      fx = set_up_paper(in);
      run.setup_s.push_back(ms_since(t0) / 1000.0);
    }
    PaperState ps;
    log_phase("set-up done");
    const auto t0 = Clock::now();
    const auto deadline = deadline_after(window_s);
    int passes = 0;
    while (passes == 0 || Clock::now() < deadline) {
      paper_pass(*fx, in, passes++, ps, run, nullptr, nullptr);
    }
    run.window_s = ms_since(t0) / 1000.0;
    run.peak_rss_mb = peak_rss_mb();
    layer["runtime.batch_efficiency"] = ps.lane_ms_sum > 0 ? ps.job_ms_sum / ps.lane_ms_sum : 0.0;
    log_phase("window done, " + std::to_string(passes) + " passes");
    if (trace) {
      const auto replay_deadline = deadline_after(window_s);
      for (int p = 0; p < passes && (p == 0 || Clock::now() < replay_deadline); ++p) {
        paper_pass(*fx, in, p, ps, run, &rec, &counters);
      }
    }
  } else {
    std::unique_ptr<Fixture> fx;
    for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
      if (fx) fx->daemon->stop();
      fx.reset();
      run.outcome = Outcome{};
      const auto t0 = Clock::now();
      fx = set_up_daemon(wd, in, run);
      run.setup_s.push_back(ms_since(t0) / 1000.0);
    }
    // eco-stream's stream never places cold; its cold figures are the
    // set-up fills (three layouts per set-up), sent one at a time.
    if (wd.w == Workload::kEcoStream) run.latency[kCold] = run.fill_ms;
    log_phase("set-up done");
    const auto t0 = Clock::now();
    const auto deadline = deadline_after(window_s);
    std::vector<std::thread> threads;
    for (int s = 0; s < wd.sessions; ++s) {
      threads.emplace_back([&, s] {
        drive_session(wd, in, *fx->sessions[static_cast<std::size_t>(s)], s, deadline);
      });
    }
    for (auto& t : threads) t.join();
    run.window_s = ms_since(t0) / 1000.0;
    run.peak_rss_mb = peak_rss_mb();
    if (wd.w == Workload::kForkIsolated) {
      rusage ru{};
      getrusage(RUSAGE_CHILDREN, &ru);
      const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
      const auto launched = fx->daemon->workers()->counters().launched;
      layer["server.worker_child_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
      layer["server.worker_child_cpu_s"] = launched ? cpu_s / static_cast<double>(launched) : 0.0;
    }
    log_phase("window done, " + std::to_string(run.ops) + " requests");
    cross_check_stats(*fx, wd.w == Workload::kForkIsolated, run, layer);
    fx->daemon->stop();
    log_phase("daemon stopped");

    // Server-side split of the client latency, from the replies.
    const Cls place_cls = wd.w == Workload::kEcoStream ? kWarm : kCold;
    layer["server.place_ms"] = median(run.server_ms[place_cls]);
    layer["server.eco_ms"] = median(run.server_ms[kEco]);
    std::vector<double> transport;
    for (std::size_t i = 0; i < run.latency[wd.primary].size(); ++i) {
      transport.push_back(run.latency[wd.primary][i] - run.server_ms[wd.primary][i]);
    }
    layer["server.transport_ms"] = median(transport);
    // A cold place is one BatchRunner job on one lane (or one child).
    double job_ms = 0.0;
    for (const double ms : run.job_ms) job_ms += ms;
    double place_ms = 0.0;
    for (const double ms : run.server_ms[kCold]) place_ms += ms;
    layer["runtime.batch_efficiency"] = place_ms > 0 ? job_ms / place_ms : 0.0;

    if (trace) {
      replay_daemon(wd, fx->ledger.ops, deadline_after(window_s), rec, counters, run.outcome);
    } else {
      verify_layouts(wd, *fx, run);
    }
  }

  log_phase(trace ? "replay done" : "verification done");
  std::map<std::string, double> values;
  if (trace) {
    layer_values(wd, run, rec, counters, layer);
    values = layer;
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string path = args.trace_dir + "/" + wd.name + "-seed" +
                               std::to_string(args.seed) + ".spans.jsonl";
      if (!rec.write_jsonl(path)) run.outcome.fail("could not write " + path);
    }
  } else {
    values = end_to_end_values(wd, run);
  }
  print_result(args, run, values, trace);
  return run.outcome.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#ifndef NDEBUG
  std::cerr << "qgdp_perfbench: refusing to time a build with assertions on (not Release)\n";
  return 3;
#endif
  if (std::string(QGDP_PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "qgdp_perfbench: refusing to time a " << QGDP_PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "qgdp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
