// Serving benchmark: client-observed latency and throughput of the
// qgdpd daemon under its three request regimes —
//
//   cold   place with the cache bypassed: every request runs the full
//          GP → legalization pipeline (the pre-daemon cost of a
//          placement query);
//   warm   place answered from the content-addressed layout cache;
//   eco    small qubit-edit batches (<= 8 qubits) repaired in the
//          dirty window by the incremental legalizer, no pipeline
//          rerun;
//
// plus a concurrent mixed workload (several client sessions issuing
// warm places, ecos, and stats at once) for requests/sec. Emits
// BENCH_serving.json; the committed file is the acceptance record for
// the serving tentpole — warm-cache p50 >= 20x lower than the cold
// full-pipeline p50 on a >= 1000-qubit topology.
//
//   $ ./bench_serving                       # heavyhex-23x39 → BENCH_serving.json
//   $ ./bench_serving --quick --topology Grid --out /tmp/s.json
//   $ ./bench_serving --port 7421           # drive an external daemon
//
// Every reply is checked: protocol errors, non-ok statuses, cache-hit
// layouts that are not byte-identical to the cold layout, or dirty-
// window violations all fail the run (exit 2) — the bench doubles as
// the serving smoke harness in CI.
//
// `--chaos` additionally runs the robustness harness on a dedicated
// self-hosted daemon with a seeded FaultInjector wired into both
// sides of the socket layer (`--fault-seed N` replays a schedule):
//
//   exact     faults disarmed: a known request sequence, then every
//             daemon counter checked for exact equality, and the
//             served layout compared byte-for-byte against the local
//             (daemon-free) pipeline;
//   soak      faults armed: concurrent retrying clients hammer warm
//             places / ecos / stats through torn frames, short I/O,
//             injected delays, and dropped reads — every successful
//             place must still hash byte-identical, the daemon must
//             end with zero internal errors and every session reaped;
//   overload  faults disarmed: sessions parked up to max_sessions so
//             extra connects shed with kOverloaded (exact count), and
//             concurrent cold places over max_inflight_places shed
//             per request (client-observed count == daemon counter).
//
// `--chaos` also runs the isolation harness: a dedicated daemon with
// --isolation=fork whose worker children are crashed, OOMed, and hung
// by the injector (~25% of worker draws) under a concurrent 4-session
// cold-place + eco workload. Every failure must surface typed (13
// worker_crashed / 14 resource_exhausted), successful cold places
// must stay byte-identical to the local pipeline, every injected hang
// must come back as a typed 14 counted in worker_timeouts, and the
// daemon must end with zero internal errors and zero restarts → the
// `isolation` JSON section.
// `--isolation {none|fork}` independently selects the execution tier
// of the main latency daemon.
//
// `--persist` prepends a crash-safety phase on forked daemon children
// sharing one --cache-dir: populate the durable cache, SIGKILL the
// daemon (including once mid-flush, with the writer artificially
// slowed so the kill lands between the temp write and the rename),
// inject corrupt/truncated/stale files, then restart over the same
// directory and require the warm hit to be byte-identical, every bad
// file quarantined and counted, and a final clean shutdown with exit
// code 0.
#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <netinet/in.h>
#include <signal.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "io/serialization.h"
#include "netlist/topologies.h"
#include "runtime/batch_runner.h"
#include "server/client.h"
#include "server/fault_injector.h"
#include "server/protocol.h"
#include "server/qgdpd.h"

namespace {

using namespace qgdp::server;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct LatencyStats {
  double p50{0.0};
  double p99{0.0};
  double mean{0.0};
  double rps{0.0};  ///< sequential requests/sec implied by the mean
};

LatencyStats summarize(std::vector<double> samples) {
  LatencyStats s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(samples.size()));
    return samples[std::min(idx, samples.size() - 1)];
  };
  s.p50 = pct(0.50);
  s.p99 = pct(0.99);
  for (const double v : samples) s.mean += v;
  s.mean /= static_cast<double>(samples.size());
  s.rps = s.mean > 0.0 ? 1000.0 / s.mean : 0.0;
  return s;
}

void emit(std::ostream& os, const char* name, const LatencyStats& s, int count,
          bool trailing_comma = true) {
  os << "  \"" << name << "\": {\"requests\": " << count << ", \"p50_ms\": " << s.p50
     << ", \"p99_ms\": " << s.p99 << ", \"mean_ms\": " << s.mean << ", \"rps\": " << s.rps
     << "}" << (trailing_comma ? "," : "") << "\n";
}

[[noreturn]] void die(const std::string& what) {
  std::cerr << "bench_serving: " << what << "\n";
  std::exit(2);
}

QgdpdClient connect_or_die(const std::string& host, std::uint16_t port) {
  QgdpdClient client;
  std::string error;
  if (!client.connect(host, port, &error)) die("connect: " + error);
  return client;
}

struct QubitPos {
  int id{0};
  double x{0.0};
  double y{0.0};
};

/// Pulls the qubit positions out of a .qlay text ("q <id> <x> <y> ..."
/// lines) — the bench plans its edit targets around where the served
/// layout actually put things.
std::vector<QubitPos> parse_qubit_positions(const std::string& qlay) {
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

/// The eco edit set: `count` qubits spread across the id range, pushed
/// a couple of sites off their home position on even rounds and pulled
/// back on odd rounds, so the layout oscillates instead of drifting.
/// `skew` varies the push per concurrent session.
EcoRequest eco_round(int round, const std::vector<QubitPos>& home, int count, double skew) {
  EcoRequest eco;
  eco.want_layout = false;
  const int n = static_cast<int>(home.size());
  for (int k = 0; k < count; ++k) {
    const QubitPos& p = home[static_cast<std::size_t>((k + 1) * n / (count + 1))];
    EcoMove m;
    m.qubit = p.id;
    m.x = round % 2 == 0 ? p.x + 2.0 + skew : p.x;
    m.y = round % 2 == 0 ? p.y + 1.0 : p.y;
    eco.moves.push_back(m);
  }
  return eco;
}

// ---- chaos harness ---------------------------------------------------

/// Connects and reads (without sending a byte) until one frame
/// arrives, expecting the daemon to shed this connection at accept
/// with a kOverloaded error frame. Not sending first matters: a
/// request racing the server's close could turn the FIN into an RST
/// and discard the frame in flight.
bool probe_shed(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  std::string buf;
  char chunk[512];
  for (;;) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(r));
    if (buf.size() >= kFrameHeaderSize) {
      const auto h = decode_frame_header(reinterpret_cast<const unsigned char*>(buf.data()));
      if (h && buf.size() >= kFrameHeaderSize + h->length) break;
    }
  }
  ::close(fd);
  if (buf.size() < kFrameHeaderSize) return false;
  const auto h = decode_frame_header(reinterpret_cast<const unsigned char*>(buf.data()));
  if (!h || h->type != FrameType::kErrorReply) return false;
  const auto rep = parse_error_reply(buf.substr(kFrameHeaderSize));
  return rep && rep->status == StatusCode::kOverloaded;
}

/// Runs the job the daemon would run for `place` straight through the
/// local pipeline — the daemon-free reference for byte-identity.
std::string local_pipeline_qlay(const PlaceRequest& place) {
  const auto spec = qgdp::topology_by_name(place.topology);
  const auto kind = flow_by_name(place.flow);
  if (!spec || !kind) die("chaos: bad topology/flow for the local reference run");
  qgdp::BatchJob job;
  job.spec = *spec;
  job.kind = *kind;
  job.gp_seed = place.seed;
  job.gp_levels = place.gp_levels;
  job.run_detailed = place.run_detailed;
  auto results = qgdp::BatchRunner(qgdp::BatchOptions{}).run({job});
  std::ostringstream qlay;
  qgdp::write_layout(results.front().netlist, qlay);
  return qlay.str();
}

struct ChaosReport {
  std::uint64_t soak_attempts{0};   ///< client-side call attempts (incl. retries)
  std::uint64_t soak_ok{0};         ///< calls that eventually succeeded
  std::uint64_t soak_retries{0};    ///< backoff sleeps across all soak clients
  std::uint64_t faults_injected{0};
  double soak_wall_ms{0.0};
  double soak_p99_ms{0.0};          ///< per successful call, retries included
  double shed_rate{0.0};            ///< daemon sheds / accepted connections
  std::uint64_t shed_sessions{0};
  std::uint64_t shed_places{0};
  std::uint64_t timeouts{0};
  std::uint64_t fault_seed{0};
};

ChaosReport run_chaos(const std::string& host, const PlaceRequest& place,
                      const std::vector<QubitPos>& home, int eco_moves, std::uint64_t fault_seed,
                      bool quick) {
  const int soak_threads = quick ? 2 : 4;
  const int soak_rounds = quick ? 6 : 25;
  const std::size_t kMaxSessions = 4;

  FaultConfig fcfg;
  fcfg.seed = fault_seed;
  fcfg.short_io_permille = 80;
  fcfg.delay_permille = 50;
  fcfg.torn_send_permille = 20;
  fcfg.drop_recv_permille = 12;
  fcfg.delay_ms = 2;
  FaultInjector faults(fcfg);
  faults.arm(false);  // exact phase first; the soak arms it

  QgdpdOptions dopt;
  dopt.host = host;
  dopt.max_sessions = kMaxSessions;
  dopt.max_inflight_places = 1;
  dopt.idle_timeout_ms = 10'000;
  dopt.frame_timeout_ms = 5'000;
  dopt.faults = &faults;
  Qgdpd daemon(dopt);
  std::string error;
  if (!daemon.start(&error)) die("chaos daemon start: " + error);
  const std::uint16_t port = daemon.port();

  ClientOptions copt;
  copt.connect_timeout_ms = 2'000;
  copt.reply_timeout_ms = 60'000;
  copt.frame_timeout_ms = 10'000;
  copt.retry.max_attempts = 8;
  copt.retry.backoff_base_ms = 2;
  copt.retry.backoff_max_ms = 50;
  copt.faults = &faults;

  // ---- exact phase: known sequence, counters checked to the unit ----
  const std::string reference = local_pipeline_qlay(place);
  const std::string reference_hash = hex64(fnv1a64(reference));
  const int exact_warm = 8;
  const int exact_ecos = 4;
  {
    QgdpdClient client{copt};
    if (!client.connect(host, port, &error)) die("chaos connect: " + error);
    auto cold = client.place(place, &error);
    if (!cold || cold->status != StatusCode::kOk || cold->cached) {
      die("chaos exact: cold place failed: " + error);
    }
    if (cold->layout != reference || cold->layout_hash != reference_hash) {
      die("chaos exact: served layout is not byte-identical to the local pipeline");
    }
    for (int r = 0; r < exact_warm; ++r) {
      const auto rep = client.place(place, &error);
      if (!rep || !rep->cached || rep->layout_hash != reference_hash) {
        die("chaos exact: warm place failed: " + error);
      }
    }
    for (int r = 0; r < exact_ecos; ++r) {
      const auto rep = client.eco(eco_round(r, home, eco_moves, 0.25), &error);
      if (!rep || rep->status != StatusCode::kOk || !rep->success) {
        die("chaos exact: eco failed: " + error);
      }
    }
    // Undo the eco edits (exact_ecos is even, rounds oscillate) so the
    // session ends back on the reference layout.
    const auto st = client.stats(&error);
    if (!st) die("chaos exact: stats failed: " + error);
    auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
      if (got != want) {
        die("chaos exact: " + std::string(what) + " = " + std::to_string(got) + ", expected " +
            std::to_string(want));
      }
    };
    expect("sessions", st->sessions, 1);
    expect("active_sessions", st->active_sessions, 1);
    expect("served_place", st->served_place, 1 + exact_warm);
    expect("served_eco", st->served_eco, exact_ecos);
    expect("served_stats", st->served_stats, 1);
    expect("cache_misses", st->cache_misses, 1);
    expect("cache_hits", st->cache_hits, exact_warm);
    expect("protocol_errors", st->protocol_errors, 0);
    expect("internal_errors", st->internal_errors, 0);
    expect("shed_sessions", st->shed_sessions, 0);
    expect("shed_places", st->shed_places, 0);
    expect("timeouts", st->timeouts, 0);
    expect("client_retries", client.retries(), 0);
  }
  std::cerr << "bench_serving: chaos exact-counter phase ok\n";

  // ---- soak phase: armed faults, retrying concurrent clients --------
  ChaosReport report;
  report.fault_seed = fault_seed;
  {
    faults.arm(true);
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> ok(static_cast<std::size_t>(soak_threads), 0);
    std::vector<std::uint64_t> attempts(static_cast<std::size_t>(soak_threads), 0);
    std::vector<std::uint64_t> retries(static_cast<std::size_t>(soak_threads), 0);
    std::vector<std::vector<double>> call_ms(static_cast<std::size_t>(soak_threads));
    std::atomic<bool> failed{false};
    const auto wall0 = Clock::now();
    for (int t = 0; t < soak_threads; ++t) {
      threads.emplace_back([&, t] {
        const auto ti = static_cast<std::size_t>(t);
        ClientOptions o = copt;
        o.retry.jitter_seed = fault_seed + static_cast<std::uint64_t>(t) + 1;
        QgdpdClient client{o};
        std::string err;
        bool warmed = false;
        for (int r = 0; r < soak_rounds; ++r) {
          // (Re)establish the session; a soak round survives any
          // injected fault by reconnecting and retrying.
          if (!client.connected() && !client.connect(host, port, &err)) continue;
          ++attempts[ti];
          const auto t0 = Clock::now();
          const auto rep = client.place(place, &err);
          if (rep && rep->status == StatusCode::kOk) {
            call_ms[ti].push_back(ms_since(t0));
            ++ok[ti];
            warmed = true;
            // Byte-identity under injected faults: a reply that made
            // it through torn frames and short reads must still carry
            // the reference layout.
            if (rep->layout_hash != reference_hash ||
                (!rep->layout.empty() && rep->layout != reference)) {
              std::cerr << "bench_serving: chaos soak: layout diverged under faults\n";
              failed.store(true);
              return;
            }
          } else {
            warmed = false;
          }
          if (warmed && r % 3 == 1) {
            ++attempts[ti];
            const auto e0 = Clock::now();
            const auto erep = client.eco(eco_round(0, home, eco_moves, 1.0 + t), &err);
            if (erep && erep->success) {
              call_ms[ti].push_back(ms_since(e0));
              ++ok[ti];
              // Pull the moved qubits straight back so the session
              // layout returns to the reference state.
              ++attempts[ti];
              const auto undo = client.eco(eco_round(1, home, eco_moves, 1.0 + t), &err);
              if (undo && undo->success) ++ok[ti];
              if (!undo) warmed = client.connected();
            } else if (!erep) {
              warmed = client.connected();
            }
          }
          if (r % 4 == 3) {
            ++attempts[ti];
            if (client.stats(&err)) ++ok[ti];
          }
        }
        retries[ti] = client.retries();
      });
    }
    for (auto& t : threads) t.join();
    report.soak_wall_ms = ms_since(wall0);
    faults.arm(false);
    if (failed.load()) die("chaos soak: determinism violated under faults");
    std::vector<double> all_ms;
    for (int t = 0; t < soak_threads; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      report.soak_ok += ok[ti];
      report.soak_attempts += attempts[ti];
      report.soak_retries += retries[ti];
      all_ms.insert(all_ms.end(), call_ms[ti].begin(), call_ms[ti].end());
    }
    report.soak_p99_ms = summarize(all_ms).p99;
    report.faults_injected = faults.injected_total();
    if (report.soak_ok == 0) die("chaos soak: no request ever succeeded");
    if (report.soak_ok > report.soak_attempts) die("chaos soak: bookkeeping impossible");
  }

  // All sessions must unwind on their own once the soak clients hang
  // up — a wedged session thread parks active_sessions above zero.
  {
    const auto t0 = Clock::now();
    while (daemon.active_sessions() != 0) {
      if (ms_since(t0) > 5'000.0) die("chaos soak: sessions not reaped (wedged thread?)");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // And the daemon must still be fully serviceable, with zero internal
  // errors and zero protocol errors across the whole soak.
  {
    QgdpdClient client{copt};
    if (!client.connect(host, port, &error)) die("chaos post-soak connect: " + error);
    const auto rep = client.place(place, &error);
    if (!rep || rep->status != StatusCode::kOk || rep->layout_hash != reference_hash) {
      die("chaos post-soak place failed: " + error);
    }
    const auto st = client.stats(&error);
    if (!st) die("chaos post-soak stats failed: " + error);
    if (st->internal_errors != 0) die("chaos soak: daemon recorded internal errors");
    if (st->protocol_errors != 0) die("chaos soak: daemon recorded protocol errors");
    if (st->active_sessions != 1) die("chaos soak: stale sessions in the registry");
  }
  std::cerr << "bench_serving: chaos soak ok (" << report.soak_ok << "/" << report.soak_attempts
            << " calls, " << report.soak_retries << " retries, " << report.faults_injected
            << " faults)\n";

  // ---- overload phase: deterministic shedding, faults disarmed ------
  {
    // Let the post-soak probe session unwind first — the phase fills
    // the session cap exactly, so a lingering session would skew it.
    const auto t0 = Clock::now();
    while (daemon.active_sessions() != 0) {
      if (ms_since(t0) > 5'000.0) die("chaos overload: prior sessions not reaped");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // No-retry clients: a retried kOverloaded would mask the very
    // shed this phase exists to observe.
    ClientOptions no_retry = copt;
    no_retry.retry.max_attempts = 1;
    std::vector<QgdpdClient> parked;
    for (std::size_t i = 0; i < kMaxSessions; ++i) {
      QgdpdClient client{no_retry};
      if (!client.connect(host, port, &error)) die("chaos overload connect: " + error);
      const auto rep = client.place(place, &error);
      if (!rep || rep->status != StatusCode::kOk) die("chaos overload park failed: " + error);
      parked.push_back(std::move(client));
    }
    StatsReply before;
    {
      const auto st = parked.front().stats(&error);
      if (!st) die("chaos overload stats failed: " + error);
      before = *st;
    }
    const int extra = 3;
    for (int i = 0; i < extra; ++i) {
      if (!probe_shed(host, port)) die("chaos overload: connection " + std::to_string(i) +
                                       " was not shed with kOverloaded");
    }
    // Cold-place shedding: one thread holds the single in-flight cold
    // slot; concurrent cold attempts on parked sessions must shed.
    std::uint64_t client_place_sheds = 0;
    {
      PlaceRequest cold = place;
      cold.use_cache = false;
      std::thread holder([&] {
        std::string err;
        const auto rep = parked[0].place(cold, &err);
        if (!rep || rep->status != StatusCode::kOk) {
          std::cerr << "bench_serving: chaos overload: holder cold place failed: " << err << "\n";
          std::exit(2);
        }
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 30 : 80));
      // Probe over the parked sessions: the session cap is full, so a
      // fresh connect would measure the wrong cap.
      for (std::size_t i = 1; i < parked.size(); ++i) {
        std::string err;
        const auto rep = parked[i].place(cold, &err);
        if (!rep && parked[i].last_status() == StatusCode::kOverloaded) ++client_place_sheds;
      }
      holder.join();
    }
    StatsReply after;
    {
      const auto st = parked.front().stats(&error);
      if (!st) die("chaos overload stats failed: " + error);
      after = *st;
    }
    if (after.shed_sessions - before.shed_sessions != static_cast<std::uint64_t>(extra)) {
      die("chaos overload: shed_sessions delta " +
          std::to_string(after.shed_sessions - before.shed_sessions) + ", expected " +
          std::to_string(extra));
    }
    if (after.shed_places - before.shed_places != client_place_sheds) {
      die("chaos overload: shed_places delta disagrees with client-observed kOverloaded count");
    }
    if (!quick && client_place_sheds == 0) {
      die("chaos overload: no cold place was shed at the in-flight cap");
    }
    report.shed_sessions = after.shed_sessions;
    report.shed_places = after.shed_places;
    report.timeouts = after.timeouts;
    report.shed_rate = after.sessions > 0
                           ? static_cast<double>(after.shed_sessions) /
                                 static_cast<double>(after.sessions + after.shed_sessions)
                           : 0.0;
    std::cerr << "bench_serving: chaos overload ok (" << extra << " sessions + "
              << client_place_sheds << " cold places shed)\n";
  }

  daemon.stop();
  return report;
}

// ---- isolation harness -----------------------------------------------

struct IsolationReport {
  std::uint64_t cold_attempts{0};
  std::uint64_t cold_ok{0};
  std::uint64_t eco_attempts{0};
  std::uint64_t eco_ok{0};
  std::uint64_t typed_worker_crashed{0};      ///< client-observed code 13
  std::uint64_t typed_resource_exhausted{0};  ///< client-observed code 14
  std::uint64_t faults_injected{0};
  std::uint64_t injected_crash{0};
  std::uint64_t injected_oom{0};
  std::uint64_t injected_hang{0};
  double fault_rate{0.0};  ///< injected faults / worker-routed requests
  double wall_ms{0.0};
  std::uint64_t fault_seed{0};
  StatsReply stats;  ///< final daemon counters, worker tier included
};

/// Chaos on the fork-isolated worker tier: a dedicated daemon with
/// --isolation=fork and a seeded injector crashing, OOMing, and
/// hanging worker children under a concurrent 4-session workload of
/// cold places and ecos. Every failed request must come back typed
/// (13 worker_crashed / 14 resource_exhausted) — never untyped, never
/// a daemon death — every successful cold place must stay
/// byte-identical to the local (daemon-free) pipeline, the daemon
/// must end with zero internal errors and zero restarts, and every
/// injected hang must end at the wall deadline as a typed 14 counted
/// in worker_timeouts.
IsolationReport run_isolation(const std::string& host, const PlaceRequest& place,
                              const std::vector<QubitPos>& home, int eco_moves,
                              std::uint64_t fault_seed, bool quick) {
  const int workload_sessions = 4;
  const int rounds = quick ? 5 : 20;

  FaultConfig fcfg;
  fcfg.seed = fault_seed;
  fcfg.crash_child_permille = 100;  // 25% of worker draws carry a fault
  fcfg.oom_child_permille = 80;
  fcfg.hang_child_permille = 70;
  FaultInjector faults(fcfg);
  faults.arm(false);  // clean pre-phase first

  QgdpdOptions dopt;
  dopt.host = host;
  dopt.isolation = Isolation::kFork;
  dopt.worker_max_rss_mb = 512;
  // A hung child holds its session until the wall deadline, so the
  // deadline sets the storm's length. A clean forked run here takes
  // ~0.35 s (1117q place, 4 vCPU), and the deadline leaves room for
  // several times that under the storm's load.
  dopt.worker_wall_ms = quick ? 2'000 : 4'000;
  dopt.max_sessions = 8;
  dopt.max_inflight_places = workload_sessions;
  dopt.faults = &faults;
  Qgdpd daemon(dopt);
  std::string error;
  if (!daemon.start(&error)) die("isolation daemon start: " + error);
  const std::uint16_t port = daemon.port();

  ClientOptions copt;
  copt.connect_timeout_ms = 2'000;
  copt.reply_timeout_ms = 120'000;
  copt.frame_timeout_ms = 30'000;

  const std::string reference = local_pipeline_qlay(place);
  const std::string reference_hash = hex64(fnv1a64(reference));

  // Pre-phase, faults disarmed: the isolated path must be
  // byte-identical to the local pipeline.
  {
    QgdpdClient client{copt};
    if (!client.connect(host, port, &error)) die("isolation connect: " + error);
    PlaceRequest cold = place;
    cold.use_cache = false;
    const auto rep = client.place(cold, &error);
    if (!rep || rep->status != StatusCode::kOk) {
      die("isolation pre-phase cold place failed: " + error);
    }
    if (rep->layout_hash != reference_hash ||
        (!rep->layout.empty() && rep->layout != reference)) {
      die("isolation: forked layout is not byte-identical to the local pipeline");
    }
    const auto fill = client.place(place, &error);  // miss: populates the cache
    if (!fill || fill->status != StatusCode::kOk || fill->layout_hash != reference_hash) {
      die("isolation pre-phase cache fill failed: " + error);
    }
    const auto warm = client.place(place, &error);
    if (!warm || !warm->cached || warm->layout_hash != reference_hash) {
      die("isolation pre-phase warm hit failed: " + error);
    }
    const auto st = client.stats(&error);
    if (!st) die("isolation pre-phase stats failed: " + error);
    if (st->worker_crashes + st->worker_oom_kills + st->worker_timeouts != 0) {
      die("isolation pre-phase: spurious worker failures on the clean path");
    }
  }

  IsolationReport report;
  report.fault_seed = fault_seed;

  // Fault storm: no-retry clients so every typed worker failure is
  // observed raw instead of being absorbed by the retry policy.
  struct Tally {
    std::uint64_t cold_attempts{0};
    std::uint64_t cold_ok{0};
    std::uint64_t eco_attempts{0};
    std::uint64_t eco_ok{0};
    std::uint64_t crashed{0};
    std::uint64_t exhausted{0};
    bool failed{false};
    std::string why;
  };
  {
    faults.arm(true);
    std::vector<Tally> tallies(static_cast<std::size_t>(workload_sessions));
    std::vector<std::thread> threads;
    const auto wall0 = Clock::now();
    for (int t = 0; t < workload_sessions; ++t) {
      threads.emplace_back([&, t] {
        Tally& tally = tallies[static_cast<std::size_t>(t)];
        auto fail = [&](const std::string& why) {
          tally.failed = true;
          tally.why = why;
        };
        ClientOptions o = copt;
        o.retry.max_attempts = 1;
        QgdpdClient client{o};
        std::string err;
        if (!client.connect(host, port, &err)) return fail("connect: " + err);
        PlaceRequest cold = place;
        cold.use_cache = false;
        auto reconnect_if_needed = [&] {
          return client.connected() || client.connect(host, port, &err);
        };
        for (int r = 0; r < rounds; ++r) {
          ++tally.cold_attempts;
          const auto rep = client.place(cold, &err);
          bool placed = false;
          if (rep && rep->status == StatusCode::kOk) {
            placed = true;
            ++tally.cold_ok;
            // Byte-identity through the fault storm: a reply that won
            // against crashing siblings still carries the reference.
            if (rep->layout_hash != reference_hash) {
              return fail("cold layout diverged under worker faults");
            }
          } else if (client.last_status() == StatusCode::kWorkerCrashed) {
            ++tally.crashed;
          } else if (client.last_status() == StatusCode::kResourceExhausted) {
            ++tally.exhausted;
          } else {
            return fail("untyped cold-place failure: " + err);
          }
          if (!reconnect_if_needed()) return fail("reconnect: " + err);
          if (placed && r % 2 == 0) {
            for (int phase = 0; phase < 2; ++phase) {  // push, then pull back
              ++tally.eco_attempts;
              const auto erep = client.eco(eco_round(phase, home, eco_moves, 1.0 + t), &err);
              if (erep && erep->status == StatusCode::kOk) {
                ++tally.eco_ok;
              } else if (client.last_status() == StatusCode::kWorkerCrashed) {
                ++tally.crashed;
              } else if (client.last_status() == StatusCode::kResourceExhausted) {
                ++tally.exhausted;
              } else {
                return fail("untyped eco failure: " + err);
              }
              if (!reconnect_if_needed()) return fail("reconnect: " + err);
            }
          }
          if (r % 4 == 3) (void)client.stats(&err);
        }
      });
    }
    for (auto& th : threads) th.join();
    report.wall_ms = ms_since(wall0);
    faults.arm(false);
    for (const Tally& tally : tallies) {
      if (tally.failed) die("isolation workload: " + tally.why);
      report.cold_attempts += tally.cold_attempts;
      report.cold_ok += tally.cold_ok;
      report.eco_attempts += tally.eco_attempts;
      report.eco_ok += tally.eco_ok;
      report.typed_worker_crashed += tally.crashed;
      report.typed_resource_exhausted += tally.exhausted;
    }
  }

  // Crashed children must never wedge sessions or leak admission.
  {
    const auto t0 = Clock::now();
    while (daemon.active_sessions() != 0) {
      if (ms_since(t0) > 5'000.0) die("isolation: sessions not reaped after the fault storm");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // Post-phase: the same daemon — never restarted — must still serve a
  // clean cold place byte-identically.
  {
    QgdpdClient client{copt};
    if (!client.connect(host, port, &error)) die("isolation post connect: " + error);
    PlaceRequest cold = place;
    cold.use_cache = false;
    const auto rep = client.place(cold, &error);
    if (!rep || rep->status != StatusCode::kOk || rep->layout_hash != reference_hash) {
      die("isolation: daemon not serviceable after the fault storm: " + error);
    }
    const auto st = client.stats(&error);
    if (!st) die("isolation post stats failed: " + error);
    report.stats = *st;
  }
  report.faults_injected = faults.injected_total();
  report.injected_crash = faults.injected(FaultInjector::Action::kCrashChild);
  report.injected_oom = faults.injected(FaultInjector::Action::kOomChild);
  report.injected_hang = faults.injected(FaultInjector::Action::kHangChild);

  const StatsReply& st = report.stats;
  if (st.internal_errors != 0) die("isolation: daemon recorded internal errors");
  if (st.protocol_errors != 0) die("isolation: daemon recorded protocol errors");
  // The supervisor's classification and the client-observed typed
  // failures must agree to the unit: with retries off, every 13/14
  // the daemon counted was seen by exactly one client call.
  if (st.worker_crashes != report.typed_worker_crashed) {
    die("isolation: worker_crashes " + std::to_string(st.worker_crashes) +
        " != client-observed 13s " + std::to_string(report.typed_worker_crashed));
  }
  if (st.worker_oom_kills + st.worker_timeouts != report.typed_resource_exhausted) {
    die("isolation: oom+timeout " +
        std::to_string(st.worker_oom_kills + st.worker_timeouts) +
        " != client-observed 14s " + std::to_string(report.typed_resource_exhausted));
  }
  if (st.workers_recycled !=
      st.worker_crashes + st.worker_oom_kills + st.worker_timeouts) {
    die("isolation: recycled slots disagree with classified failures");
  }
  const std::uint64_t worker_runs = report.cold_attempts + report.eco_attempts;
  report.fault_rate = worker_runs > 0
                          ? static_cast<double>(report.faults_injected) /
                                static_cast<double>(worker_runs)
                          : 0.0;
  if (report.fault_rate < 0.10) {
    die("isolation: injected fault rate " + std::to_string(report.fault_rate) +
        " below the 10% bar");
  }
  // One child per request: every injected hang ends at the wall
  // deadline as a typed 14, and nothing else times out (no CPU cap is
  // set, and clean runs fit the deadline).
  if (st.worker_timeouts != report.injected_hang) {
    die("isolation: worker_timeouts " + std::to_string(st.worker_timeouts) +
        " != injected hangs " + std::to_string(report.injected_hang));
  }

  daemon.stop();
  std::cerr << "bench_serving: isolation ok (" << report.cold_ok << "/" << report.cold_attempts
            << " cold, " << report.eco_ok << "/" << report.eco_attempts << " eco, "
            << report.faults_injected << " faults -> " << report.typed_worker_crashed
            << "x13 + " << report.typed_resource_exhausted << "x14, "
            << st.worker_timeouts << " hangs timed out)\n";
  return report;
}

// ---- persistence harness ---------------------------------------------

struct PersistReport {
  std::uint64_t entries_loaded{0};
  std::uint64_t corrupt_quarantined{0};
  int tmp_leftover{0};        ///< interrupted writes left by the mid-flush kill
  double warm_restart_ms{0.0};  ///< warm hit latency on the restarted daemon
  bool byte_identical{false};
  bool clean_shutdown{false};   ///< final daemon exited 0 on protocol shutdown
};

int count_suffix(const std::string& dir, const std::string& suffix) {
  int n = 0;
  DIR* d = ::opendir(dir.c_str());
  if (!d) return -1;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++n;
    }
  }
  ::closedir(d);
  return n;
}

/// Forks a daemon child serving over `cache_dir`; the parent gets the
/// bound port through a pipe. The child blocks in daemon.wait() — a
/// protocol shutdown exits it with 0, a SIGKILL models a crash. Must
/// be called while the parent is still single-threaded (fork).
pid_t spawn_cached_daemon(const std::string& host, const std::string& cache_dir,
                          int write_delay_ms, std::uint16_t* port) {
  int fds[2];
  if (::pipe(fds) != 0) die("persist: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) die("persist: fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    QgdpdOptions opt;
    opt.host = host;
    opt.cache_dir = cache_dir;
    opt.cache_write_delay_ms = write_delay_ms;
    Qgdpd child(opt);
    std::string error;
    if (!child.start(&error)) {
      const std::uint16_t zero = 0;
      (void)!::write(fds[1], &zero, sizeof zero);
      ::_exit(3);
    }
    const std::uint16_t p = child.port();
    if (::write(fds[1], &p, sizeof p) != sizeof p) ::_exit(3);
    ::close(fds[1]);
    child.wait();
    child.stop();
    ::_exit(0);
  }
  ::close(fds[1]);
  if (::read(fds[0], port, sizeof *port) != sizeof *port || *port == 0) {
    die("persist: child daemon failed to start");
  }
  ::close(fds[0]);
  return pid;
}

PersistReport run_persist(const std::string& host, const PlaceRequest& place, bool quick) {
  char tmpl[] = "/tmp/qgdp_bench_persist_XXXXXX";
  char* made = ::mkdtemp(tmpl);
  if (!made) die("persist: mkdtemp failed");
  const std::string dir = made;
  PersistReport report;

  // Phase 1: populate the durable tier, then crash the daemon. The
  // stats poll guarantees the background writer finished before the
  // SIGKILL — this phase proves a completed write survives a crash.
  std::string cold_layout;
  std::string cache_key;
  {
    std::uint16_t port = 0;
    const pid_t pid = spawn_cached_daemon(host, dir, 0, &port);
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    const auto rep = client.place(place, &error);
    if (!rep || rep->status != StatusCode::kOk || rep->layout.empty()) {
      die("persist: populate place failed: " + error);
    }
    cold_layout = rep->layout;
    cache_key = rep->cache_key;
    const auto t0 = Clock::now();
    for (;;) {
      const auto st = client.stats(&error);
      if (!st) die("persist: stats failed: " + error);
      if (st->entries_flushed >= 1) break;
      if (ms_since(t0) > 10'000.0) die("persist: entry never flushed to disk");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  if (count_suffix(dir, ".qlc") < 1) die("persist: no durable entry after kill -9");

  // Phase 2: crash mid-flush. The writer is slowed so the SIGKILL
  // lands between the temp-file write and the atomic rename — the
  // interrupted write must surface as a stray .tmp, never as a
  // half-written .qlc that a restart could mistake for an entry.
  {
    std::uint16_t port = 0;
    const pid_t pid = spawn_cached_daemon(host, dir, quick ? 300 : 500, &port);
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    PlaceRequest other = place;
    other.seed = place.seed + 1;  // a second entry, not yet durable
    const auto rep = client.place(other, &error);
    if (!rep || rep->status != StatusCode::kOk) {
      die("persist: mid-write place failed: " + error);
    }
    ::kill(pid, SIGKILL);  // the writer is asleep inside the delayed flush
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  const int n_good = count_suffix(dir, ".qlc");
  report.tmp_leftover = count_suffix(dir, ".tmp");

  // Phase 3: sabotage the directory with the three corruption classes
  // a real disk can produce: garbage bytes, a truncated entry, and a
  // stale format version.
  {
    std::string good_bytes;
    {
      std::ifstream f(dir + "/" + cache_key + ".qlc", std::ios::binary);
      std::ostringstream ss;
      ss << f.rdbuf();
      good_bytes = ss.str();
    }
    std::ofstream(dir + "/00000000deadbeef.qlc", std::ios::binary)
        << "not a cache entry at all\n";
    std::ofstream(dir + "/1111111111111111.qlc", std::ios::binary)
        << good_bytes.substr(0, good_bytes.size() / 3);
    std::string stale = good_bytes;
    if (stale.size() > 7) stale.replace(0, 7, "qgdpc 9");
    std::ofstream(dir + "/2222222222222222.qlc", std::ios::binary) << stale;
  }

  // Phase 4: restart over the same directory. Recovery must load every
  // intact entry, quarantine exactly the injected corruption plus the
  // interrupted write, serve the warm hit byte-identically, and then
  // shut down cleanly with exit code 0.
  {
    std::uint16_t port = 0;
    const pid_t pid = spawn_cached_daemon(host, dir, 0, &port);
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    const auto st = client.stats(&error);
    if (!st) die("persist: restart stats failed: " + error);
    report.entries_loaded = st->entries_loaded;
    report.corrupt_quarantined = st->corrupt_quarantined;
    if (st->entries_loaded != static_cast<std::uint64_t>(n_good)) {
      die("persist: loaded " + std::to_string(st->entries_loaded) + " entries, expected " +
          std::to_string(n_good));
    }
    const std::uint64_t expect_quarantined =
        3 + static_cast<std::uint64_t>(report.tmp_leftover);
    if (st->corrupt_quarantined != expect_quarantined) {
      die("persist: quarantined " + std::to_string(st->corrupt_quarantined) + ", expected " +
          std::to_string(expect_quarantined));
    }
    const auto t0 = Clock::now();
    const auto warm = client.place(place, &error);
    report.warm_restart_ms = ms_since(t0);
    if (!warm || warm->status != StatusCode::kOk) die("persist: warm place failed: " + error);
    if (!warm->cached) die("persist: restarted daemon missed its own durable cache");
    if (warm->cache_key != cache_key || warm->layout != cold_layout) {
      die("persist: warm hit not byte-identical across kill -9 + restart");
    }
    report.byte_identical = true;
    if (!client.shutdown_server(&error)) die("persist: shutdown failed: " + error);
    int status = 0;
    ::waitpid(pid, &status, 0);
    report.clean_shutdown = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!report.clean_shutdown) die("persist: daemon did not exit 0 on clean shutdown");
  }
  if (std::system(("rm -rf " + dir).c_str()) != 0) {
    std::cerr << "bench_serving: warning: could not remove " << dir << "\n";
  }
  std::cerr << "bench_serving: persist ok (" << report.entries_loaded << " loaded, "
            << report.corrupt_quarantined << " quarantined, warm restart "
            << report.warm_restart_ms << " ms)\n";
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology = "heavyhex-23x39";
  std::string flow = "qgdp";
  unsigned seed = 1;
  std::string out_path = "BENCH_serving.json";
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = self-host an in-process daemon
  int cold_requests = 5;
  int warm_requests = 200;
  int eco_requests = 100;
  int eco_moves = 8;
  int mixed_threads = 4;
  int mixed_ecos_per_thread = 25;
  bool quick = false;
  bool chaos = false;
  bool persist = false;
  std::string isolation_mode = "none";  ///< main daemon's execution tier
  std::uint64_t fault_seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--topology") {
      topology = value();
    } else if (arg == "--flow") {
      flow = value();
    } else if (arg == "--seed") {
      seed = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--host") {
      host = value();
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--persist") {
      persist = true;
    } else if (arg == "--isolation") {
      isolation_mode = value();
      if (isolation_mode != "none" && isolation_mode != "fork") {
        die("invalid --isolation '" + isolation_mode + "' (none | fork)");
      }
    } else if (arg == "--fault-seed") {
      fault_seed = std::stoull(value());
    } else {
      die("unknown option " + arg + "");
    }
  }
  if (quick) {
    cold_requests = 2;
    warm_requests = 20;
    eco_requests = 10;
    mixed_threads = 2;
    mixed_ecos_per_thread = 5;
  }

  const auto spec = qgdp::topology_by_name(topology);
  if (!spec) die("unknown topology " + topology);
  const int qubit_count = spec->qubit_count;

  // ---- crash-safety phase: fork/SIGKILL/restart over a shared
  // --cache-dir. Runs first, while this process is still
  // single-threaded — fork() from a threaded parent is off the table.
  PersistReport persist_report;
  if (persist) {
    PlaceRequest preq;
    preq.topology = topology;
    preq.flow = flow;
    preq.seed = seed;
    preq.want_layout = true;
    persist_report = run_persist(host, preq, quick);
  }

  // Self-host unless --port points at an external daemon.
  std::unique_ptr<Qgdpd> daemon;
  if (port == 0) {
    QgdpdOptions opt;
    opt.host = host;
    if (isolation_mode == "fork") opt.isolation = Isolation::kFork;
    daemon = std::make_unique<Qgdpd>(opt);
    std::string error;
    if (!daemon->start(&error)) die("daemon start: " + error);
    port = daemon->port();
  }
  std::cerr << "bench_serving: " << topology << " (" << qubit_count << " qubits), flow " << flow
            << ", daemon at " << host << ':' << port << "\n";

  PlaceRequest place;
  place.topology = topology;
  place.flow = flow;
  place.seed = seed;
  place.want_layout = true;

  // ---- cold: cache bypassed, full pipeline per request ---------------
  std::vector<double> cold_ms;
  std::string cold_hash;
  {
    QgdpdClient client = connect_or_die(host, port);
    PlaceRequest cold = place;
    cold.use_cache = false;
    for (int r = 0; r < cold_requests; ++r) {
      const auto t0 = Clock::now();
      std::string error;
      const auto rep = client.place(cold, &error);
      cold_ms.push_back(ms_since(t0));
      if (!rep || rep->status != StatusCode::kOk) {
        die("cold place failed: " + (rep ? to_string(rep->status) : error));
      }
      if (rep->cached) die("cold place unexpectedly served from cache");
      if (cold_hash.empty()) {
        cold_hash = rep->layout_hash;
      } else if (rep->layout_hash != cold_hash) {
        die("cold places disagree: pipeline not deterministic");
      }
    }
    std::cerr << "bench_serving: cold done (" << cold_ms.back() << " ms last)\n";
  }

  // ---- warm: cache-backed places ------------------------------------
  std::vector<double> warm_ms;
  std::vector<QubitPos> home;  ///< qubit positions of the served layout
  {
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    const auto fill = client.place(place, &error);  // populates the cache
    if (!fill || fill->status != StatusCode::kOk) {
      die("cache-fill place failed: " + (fill ? to_string(fill->status) : error));
    }
    if (fill->layout_hash != cold_hash) die("cache-fill layout differs from cold layout");
    home = parse_qubit_positions(fill->layout);
    if (static_cast<int>(home.size()) != qubit_count) die("layout qubit count mismatch");
    for (int r = 0; r < warm_requests; ++r) {
      const auto t0 = Clock::now();
      const auto rep = client.place(place, &error);
      warm_ms.push_back(ms_since(t0));
      if (!rep || rep->status != StatusCode::kOk) {
        die("warm place failed: " + (rep ? to_string(rep->status) : error));
      }
      if (!rep->cached) die("warm place missed the cache");
      // The acceptance bar for the cache: hits are byte-identical to
      // the cold pipeline output (hash over the full .qlay text).
      if (rep->layout_hash != cold_hash) die("cache hit not byte-identical to cold layout");
    }
    std::cerr << "bench_serving: warm done\n";
  }

  // ---- eco: small edit batches on a warmed session -------------------
  std::vector<double> eco_ms;
  std::vector<double> eco_bins;
  long long eco_violations = 0;
  {
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    const auto warm = client.place(place, &error);
    if (!warm || warm->status != StatusCode::kOk) die("eco-session place failed");
    for (int r = 0; r < eco_requests; ++r) {
      const EcoRequest eco = eco_round(r, home, eco_moves, 0.0);
      const auto t0 = Clock::now();
      const auto rep = client.eco(eco, &error);
      eco_ms.push_back(ms_since(t0));
      if (!rep || rep->status != StatusCode::kOk || !rep->success) {
        die("eco failed at round " + std::to_string(r) + ": " +
            (rep ? to_string(rep->status) : error));
      }
      if (rep->window_violations != 0) die("eco left dirty-window violations");
      eco_bins.push_back(static_cast<double>(rep->grid_bins_touched));
      eco_violations += rep->window_violations;
    }
    std::cerr << "bench_serving: eco done\n";
  }

  // ---- mixed concurrent workload -------------------------------------
  std::vector<double> mixed_ms;
  double mixed_wall_ms = 0.0;
  int mixed_errors = 0;
  {
    std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(mixed_threads));
    std::vector<int> errors(static_cast<std::size_t>(mixed_threads), 0);
    const auto wall0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < mixed_threads; ++t) {
      threads.emplace_back([&, t] {
        auto& samples = per_thread[static_cast<std::size_t>(t)];
        QgdpdClient client = connect_or_die(host, port);
        std::string error;
        auto timed = [&](auto&& fn) {
          const auto t0 = Clock::now();
          const bool ok = fn();
          samples.push_back(ms_since(t0));
          if (!ok) ++errors[static_cast<std::size_t>(t)];
        };
        timed([&] {
          const auto rep = client.place(place, &error);
          return rep && rep->status == StatusCode::kOk && rep->cached;
        });
        for (int r = 0; r < mixed_ecos_per_thread; ++r) {
          const EcoRequest eco = eco_round(r, home, eco_moves, 0.5 * t);
          timed([&] {
            const auto rep = client.eco(eco, &error);
            return rep && rep->status == StatusCode::kOk && rep->success &&
                   rep->window_violations == 0;
          });
        }
        timed([&] { return client.stats(&error).has_value(); });
      });
    }
    for (auto& t : threads) t.join();
    mixed_wall_ms = ms_since(wall0);
    for (int t = 0; t < mixed_threads; ++t) {
      mixed_errors += errors[static_cast<std::size_t>(t)];
      mixed_ms.insert(mixed_ms.end(), per_thread[static_cast<std::size_t>(t)].begin(),
                      per_thread[static_cast<std::size_t>(t)].end());
    }
    if (mixed_errors != 0) die("mixed workload saw " + std::to_string(mixed_errors) + " errors");
    std::cerr << "bench_serving: mixed done\n";
  }

  // ---- daemon-side counters ------------------------------------------
  StatsReply final_stats;
  {
    QgdpdClient client = connect_or_die(host, port);
    std::string error;
    const auto rep = client.stats(&error);
    if (!rep) die("final stats failed: " + error);
    final_stats = *rep;
    if (final_stats.protocol_errors != 0) die("daemon recorded protocol errors");
  }

  // ---- chaos harness: faults, soak, and deterministic shedding -------
  // Runs on its own dedicated daemon (tight caps, fault injector wired
  // in), so its counters and sheds never pollute the latency numbers
  // above.
  ChaosReport chaos_report;
  IsolationReport isolation_report;
  if (chaos) {
    chaos_report = run_chaos(host, place, home, eco_moves, fault_seed, quick);
    std::cerr << "bench_serving: chaos done\n";
    isolation_report = run_isolation(host, place, home, eco_moves, fault_seed, quick);
    std::cerr << "bench_serving: isolation done\n";
  }

  const LatencyStats cold = summarize(cold_ms);
  const LatencyStats warm = summarize(warm_ms);
  const LatencyStats eco = summarize(eco_ms);
  const LatencyStats mixed = summarize(mixed_ms);
  const double mixed_rps =
      mixed_wall_ms > 0.0 ? 1000.0 * static_cast<double>(mixed_ms.size()) / mixed_wall_ms : 0.0;
  const double warm_speedup = warm.p50 > 0.0 ? cold.p50 / warm.p50 : 0.0;
  const double bins_p50 = summarize(eco_bins).p50;

  std::ofstream out(out_path);
  if (!out) die("cannot open " + out_path);
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"bench\": \"serving\",\n"
      << "  \"topology\": \"" << topology << "\",\n"
      << "  \"qubits\": " << qubit_count << ",\n"
      << "  \"flow\": \"" << flow << "\",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"note\": \"client-observed latency over loopback TCP; cold = cache bypassed "
         "(full GP+legalization pipeline per request), warm = content-addressed cache hit, "
         "eco = " << eco_moves << "-qubit incremental edit on a warmed session; mixed = "
      << mixed_threads << " concurrent sessions issuing warm places + ecos + stats\",\n";
  emit(out, "cold", cold, static_cast<int>(cold_ms.size()));
  emit(out, "warm", warm, static_cast<int>(warm_ms.size()));
  emit(out, "eco", eco, static_cast<int>(eco_ms.size()));
  out << "  \"eco_detail\": {\"moves_per_request\": " << eco_moves
      << ", \"window_violations_total\": " << eco_violations
      << ", \"grid_bins_touched_p50\": " << bins_p50 << "},\n";
  out << "  \"mixed\": {\"threads\": " << mixed_threads << ", \"requests\": " << mixed_ms.size()
      << ", \"wall_ms\": " << mixed_wall_ms << ", \"rps\": " << mixed_rps
      << ", \"p50_ms\": " << mixed.p50 << ", \"p99_ms\": " << mixed.p99
      << ", \"errors\": " << mixed_errors << "},\n";
  out << "  \"daemon\": {\"sessions\": " << final_stats.sessions
      << ", \"served_place\": " << final_stats.served_place
      << ", \"served_eco\": " << final_stats.served_eco
      << ", \"cache_hits\": " << final_stats.cache_hits
      << ", \"cache_misses\": " << final_stats.cache_misses
      << ", \"cache_bytes\": " << final_stats.cache_bytes
      << ", \"protocol_errors\": " << final_stats.protocol_errors << "},\n";
  if (chaos) {
    const double ok_rate = chaos_report.soak_attempts > 0
                               ? static_cast<double>(chaos_report.soak_ok) /
                                     static_cast<double>(chaos_report.soak_attempts)
                               : 0.0;
    out << "  \"chaos\": {\"fault_seed\": " << chaos_report.fault_seed
        << ", \"faults_injected\": " << chaos_report.faults_injected
        << ", \"soak_attempts\": " << chaos_report.soak_attempts
        << ", \"soak_ok\": " << chaos_report.soak_ok
        << ", \"soak_ok_rate\": " << ok_rate
        << ", \"soak_retries\": " << chaos_report.soak_retries
        << ", \"soak_wall_ms\": " << chaos_report.soak_wall_ms
        << ", \"soak_p99_ms\": " << chaos_report.soak_p99_ms
        << ", \"shed_sessions\": " << chaos_report.shed_sessions
        << ", \"shed_places\": " << chaos_report.shed_places
        << ", \"shed_rate\": " << chaos_report.shed_rate
        << ", \"timeouts\": " << chaos_report.timeouts
        << ", \"internal_errors\": 0, \"determinism\": \"byte-identical under faults\"},\n";
    const IsolationReport& iso = isolation_report;
    out << "  \"isolation\": {\"mode\": \"fork\", \"fault_seed\": " << iso.fault_seed
        << ", \"workload_sessions\": 4"
        << ", \"faults_injected\": " << iso.faults_injected
        << ", \"injected_crash\": " << iso.injected_crash
        << ", \"injected_oom\": " << iso.injected_oom
        << ", \"injected_hang\": " << iso.injected_hang
        << ", \"fault_rate\": " << iso.fault_rate
        << ", \"cold_attempts\": " << iso.cold_attempts
        << ", \"cold_ok\": " << iso.cold_ok
        << ", \"eco_attempts\": " << iso.eco_attempts
        << ", \"eco_ok\": " << iso.eco_ok
        << ", \"typed_worker_crashed\": " << iso.typed_worker_crashed
        << ", \"typed_resource_exhausted\": " << iso.typed_resource_exhausted
        << ", \"worker_crashes\": " << iso.stats.worker_crashes
        << ", \"worker_oom_kills\": " << iso.stats.worker_oom_kills
        << ", \"worker_timeouts\": " << iso.stats.worker_timeouts
        << ", \"workers_recycled\": " << iso.stats.workers_recycled
        << ", \"internal_errors\": 0, \"restarts\": 0"
        << ", \"wall_ms\": " << iso.wall_ms
        << ", \"determinism\": \"cold layouts byte-identical under worker faults\"},\n";
  }
  if (persist) {
    out << "  \"persist\": {\"entries_loaded\": " << persist_report.entries_loaded
        << ", \"corrupt_quarantined\": " << persist_report.corrupt_quarantined
        << ", \"tmp_leftover\": " << persist_report.tmp_leftover
        << ", \"warm_restart_ms\": " << persist_report.warm_restart_ms
        << ", \"byte_identical_across_kill9\": "
        << (persist_report.byte_identical ? "true" : "false")
        << ", \"clean_shutdown_exit0\": "
        << (persist_report.clean_shutdown ? "true" : "false") << ", \"kill9_phases\": 2},\n";
  }
  out << "  \"warm_speedup_p50\": " << warm_speedup << ",\n"
      << "  \"meets_20x_warm_target\": " << (warm_speedup >= 20.0 ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::cerr << "bench_serving: cold p50 " << cold.p50 << " ms, warm p50 " << warm.p50
            << " ms (speedup " << warm_speedup << "x), eco p50 " << eco.p50
            << " ms, mixed " << mixed_rps << " req/s -> " << out_path << "\n";

  if (daemon) daemon->stop();
  return 0;
}
