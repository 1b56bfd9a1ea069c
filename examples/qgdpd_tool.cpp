// qgdpd_tool: the placement service in a binary — daemon and client.
//
// Serve mode boots the qgdpd daemon and blocks until a shutdown
// request; the bound address is printed on stdout (port 0 picks an
// ephemeral port), so scripts can scrape it:
//
//   $ ./build/qgdpd_tool --serve --port 7421 --cache 128
//   qgdpd listening on 127.0.0.1:7421
//
// Client mode speaks the framed protocol of docs/SERVING.md against a
// running daemon, one subcommand per request type:
//
//   $ ./build/qgdpd_tool place --port 7421 --topology heavyhex-23x39 \
//         --flow qgdp --out layout.qlay
//   $ ./build/qgdpd_tool eco --port 7421 --topology heavyhex-23x39 \
//         --move "12 30.5 22.0" --move "13 31.5 22.0" --out after.qlay
//   $ ./build/qgdpd_tool stats --port 7421
//   $ ./build/qgdpd_tool shutdown --port 7421
//
// `eco` first issues a place for --topology on the same connection
// (warm if the daemon has served it before — sessions own their
// layout), then applies the move batch to that session's layout.
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/qgdpd.h"

namespace {

using namespace qgdp::server;

void print_usage() {
  std::cout <<
      R"(qgdpd_tool — qGDP placement-as-a-service daemon and client

daemon:
  --serve           boot the daemon and block until shutdown
  --host H          bind address (default 127.0.0.1)
  --port N          TCP port; 0 = ephemeral, printed on stdout (default 0)
  --cache N         layout-cache capacity in entries (default 64)
  --verbose         per-request log lines on stderr
  --cache-dir PATH  durable cache directory: valid entries are loaded at
                    boot (corrupt files quarantined, never fatal), every
                    cache fill is persisted atomically in the background,
                    and SIGINT/SIGTERM/shutdown flush before exiting
  --max-sessions N      concurrent-session cap; excess connections are
                        shed with kOverloaded (default 64)
  --max-inflight N      concurrent cold-place cap, 0 = unlimited (default 8)
  --idle-timeout-ms N   between-requests eviction deadline (default 120000)
  --frame-timeout-ms N  mid-frame / send deadline (default 30000)
  --place-budget-ms N   per-place wall budget, 0 = unlimited (default 0)
  --isolation MODE      none (in-process, default) | fork: run every cold
                        place and eco edit in a sandboxed forked worker —
                        a crash/OOM/hang becomes a typed 13/14 reply, the
                        daemon keeps serving
  --worker-max-rss-mb N fork mode: RLIMIT_AS growth cap per worker in MB,
                        0 = none (default 0)
  --worker-cpu-s N      fork mode: RLIMIT_CPU cap per worker in seconds,
                        0 = none (default 0)
  --worker-wall-ms N    fork mode: supervisor wall deadline per worker;
                        a hung child is SIGKILLed (default 30000)

client subcommands (first argument; all take --host/--port and
  --retries N  retry attempts for transient overloaded/timeout (default 3)):
  place             request a placement
    --topology NAME   registry name, e.g. Grid or heavyhex-23x39
    --flow FLOW       qgdp | q-abacus | q-tetris | abacus | tetris
    --seed N          GP seed (default 1)
    --dp              enable the detailed-placement stage (qgdp only)
    --gp-levels N     GP hierarchy depth, 0 = auto
    --no-cache        bypass the content-addressed layout cache
    --out FILE        write the returned .qlay layout
  eco               place (warm) then apply qubit edits to the session
    --topology NAME   (and the other place options above)
    --move "Q X Y"    move qubit Q toward (X, Y); repeatable, <= 64
    --policy P        abacus (default) | baa
    --out FILE        write the post-edit .qlay layout
  stats             print daemon counters and cache statistics
  shutdown          drain the daemon; prints its final stats
  --help            this text
)";
}

struct CommonArgs {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
  int retries{3};  ///< client attempts for retryable (overloaded/timeout) failures
};

[[nodiscard]] QgdpdClient connect_or_die(const CommonArgs& args) {
  if (args.port == 0) {
    std::cerr << "qgdpd_tool: client subcommands need --port\n";
    std::exit(1);
  }
  ClientOptions copt;
  copt.retry.max_attempts = args.retries;
  QgdpdClient client{copt};
  std::string error;
  if (!client.connect(args.host, args.port, &error)) {
    std::cerr << "qgdpd_tool: " << error << "\n";
    std::exit(1);
  }
  return client;
}

void write_layout_file_or_die(const std::string& path, const std::string& qlay) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "qgdpd_tool: cannot open " << path << " for writing\n";
    std::exit(1);
  }
  f << qlay;
}

void print_stats(const StatsReply& s) {
  std::cout << "uptime_ms " << s.uptime_ms << "\n"
            << "sessions " << s.sessions << "\n"
            << "active_sessions " << s.active_sessions << "\n"
            << "served_place " << s.served_place << "\n"
            << "served_eco " << s.served_eco << "\n"
            << "served_stats " << s.served_stats << "\n"
            << "protocol_errors " << s.protocol_errors << "\n"
            << "internal_errors " << s.internal_errors << "\n"
            << "shed_sessions " << s.shed_sessions << "\n"
            << "shed_places " << s.shed_places << "\n"
            << "timeouts " << s.timeouts << "\n"
            << "accept_retries " << s.accept_retries << "\n"
            << "validation_rejects " << s.validation_rejects << "\n"
            << "cache_hits " << s.cache_hits << "\n"
            << "cache_misses " << s.cache_misses << "\n"
            << "cache_insertions " << s.cache_insertions << "\n"
            << "cache_evictions " << s.cache_evictions << "\n"
            << "cache_entries " << s.cache_entries << "\n"
            << "cache_bytes " << s.cache_bytes << "\n"
            << "entries_loaded " << s.entries_loaded << "\n"
            << "entries_flushed " << s.entries_flushed << "\n"
            << "corrupt_quarantined " << s.corrupt_quarantined << "\n"
            << "worker_crashes " << s.worker_crashes << "\n"
            << "worker_oom_kills " << s.worker_oom_kills << "\n"
            << "worker_timeouts " << s.worker_timeouts << "\n"
            << "workers_recycled " << s.workers_recycled << "\n";
}

int run_serve(const CommonArgs& common, QgdpdOptions opt) {
  opt.host = common.host;
  opt.port = common.port;

  // SIGINT/SIGTERM drain the daemon exactly like a protocol shutdown:
  // sessions finish, the cache store flushes, exit 0. The signals are
  // blocked in every thread and consumed by one dedicated sigwait
  // thread — no async-signal-safety gymnastics in a handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  qgdp::server::Qgdpd daemon(opt);
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "qgdpd_tool: " << error << "\n";
    return 1;
  }
  std::atomic<bool> signalled{false};
  std::atomic<bool> poked{false};  // woken by main after a protocol shutdown
  std::thread sig_thread([&] {
    int sig = 0;
    if (sigwait(&sigs, &sig) != 0) return;
    if (poked.load()) return;  // daemon already drained via protocol
    signalled.store(true);
    std::cerr << "qgdpd: caught " << (sig == SIGINT ? "SIGINT" : "SIGTERM")
              << ", draining\n";
    daemon.stop();
  });
  std::cout << "qgdpd listening on " << opt.host << ':' << daemon.port() << std::endl;
  daemon.wait();
  // A protocol shutdown leaves the sigwait thread parked; poke it with
  // the (blocked) SIGTERM so it wakes and joins. If a real signal won
  // the race, stop() has already run and the poke is harmless.
  if (!signalled.load()) {
    poked.store(true);
    pthread_kill(sig_thread.native_handle(), SIGTERM);
  }
  sig_thread.join();
  std::cout << "qgdpd drained\n";
  return 0;
}

int run_place(const CommonArgs& common, const PlaceRequest& req, const std::string& out_file) {
  QgdpdClient client = connect_or_die(common);
  std::string error;
  const auto rep = client.place(req, &error);
  if (!rep) {
    std::cerr << "qgdpd_tool: place failed: " << error << "\n";
    return 1;
  }
  if (rep->status != StatusCode::kOk) {
    std::cerr << "qgdpd_tool: place failed: " << to_string(rep->status) << "\n";
    return 1;
  }
  std::cout << (rep->cached ? "cache-hit" : "cold") << " key " << rep->cache_key << " hash "
            << rep->layout_hash << " qubits " << rep->qubits << " blocks " << rep->blocks
            << " in " << rep->place_ms << " ms\n";
  if (!out_file.empty()) write_layout_file_or_die(out_file, rep->layout);
  return 0;
}

int run_eco(const CommonArgs& common, PlaceRequest place, EcoRequest eco,
            const std::string& out_file) {
  if (eco.moves.empty()) {
    std::cerr << "qgdpd_tool: eco needs at least one --move \"Q X Y\"\n";
    return 1;
  }
  QgdpdClient client = connect_or_die(common);
  std::string error;
  place.want_layout = false;  // session-side state is all eco needs
  const auto placed = client.place(place, &error);
  if (!placed || placed->status != StatusCode::kOk) {
    std::cerr << "qgdpd_tool: place before eco failed: "
              << (placed ? to_string(placed->status) : error) << "\n";
    return 1;
  }
  eco.want_layout = !out_file.empty();
  const auto rep = client.eco(eco, &error);
  if (!rep) {
    std::cerr << "qgdpd_tool: eco failed: " << error << "\n";
    return 1;
  }
  if (rep->status != StatusCode::kOk || !rep->success) {
    std::cerr << "qgdpd_tool: eco failed: " << to_string(rep->status) << "\n";
    return 1;
  }
  std::cout << "eco ok: " << eco.moves.size() << " moves, ripped " << rep->ripped_blocks
            << " replaced " << rep->replaced_blocks << " edges " << rep->edges_touched
            << " violations " << rep->window_violations << " window [" << rep->window[0] << ", "
            << rep->window[1] << ", " << rep->window[2] << ", " << rep->window[3] << "] in "
            << rep->eco_ms << " ms, hash " << rep->layout_hash << "\n";
  if (!out_file.empty()) write_layout_file_or_die(out_file, rep->layout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer (or worker pipe) closing mid-send must surface as EPIPE on
  // the write, never as a process-killing SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  CommonArgs common;
  PlaceRequest place;
  EcoRequest eco;
  std::string out_file;
  std::string subcommand;
  bool serve = false;
  QgdpdOptions serve_opt;

  int i = 1;
  if (i < argc && argv[i][0] != '-') subcommand = argv[i++];

  for (; i < argc; ++i) {
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
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--host") {
      common.host = value();
    } else if (arg == "--port") {
      common.port = static_cast<std::uint16_t>(numeric_value(65535));
    } else if (arg == "--cache") {
      serve_opt.cache_entries = numeric_value(1u << 20);
    } else if (arg == "--cache-dir") {
      serve_opt.cache_dir = value();
    } else if (arg == "--cache-write-delay-ms") {
      // Undocumented crash-test knob: stretches the atomic-write window
      // so a kill -9 deterministically lands mid-flush.
      serve_opt.cache_write_delay_ms = static_cast<int>(numeric_value(60'000));
    } else if (arg == "--verbose") {
      serve_opt.verbose = true;
    } else if (arg == "--max-sessions") {
      serve_opt.max_sessions = numeric_value(1u << 16);
    } else if (arg == "--max-inflight") {
      serve_opt.max_inflight_places = numeric_value(1u << 16);
    } else if (arg == "--idle-timeout-ms") {
      serve_opt.idle_timeout_ms = static_cast<int>(numeric_value(86'400'000));
    } else if (arg == "--frame-timeout-ms") {
      serve_opt.frame_timeout_ms = static_cast<int>(numeric_value(86'400'000));
    } else if (arg == "--place-budget-ms") {
      serve_opt.place_budget_ms = static_cast<int>(numeric_value(86'400'000));
    } else if (arg == "--isolation") {
      const std::string mode = value();
      if (mode == "none") {
        serve_opt.isolation = Isolation::kNone;
      } else if (mode == "fork") {
        serve_opt.isolation = Isolation::kFork;
      } else {
        std::cerr << "invalid --isolation '" << mode << "' (none | fork)\n";
        return 1;
      }
    } else if (arg == "--worker-max-rss-mb") {
      serve_opt.worker_max_rss_mb = numeric_value(1u << 20);
    } else if (arg == "--worker-cpu-s") {
      serve_opt.worker_cpu_s = static_cast<int>(numeric_value(86'400));
    } else if (arg == "--worker-wall-ms") {
      serve_opt.worker_wall_ms = static_cast<int>(numeric_value(86'400'000));
    } else if (arg == "--retries") {
      common.retries = static_cast<int>(numeric_value(100));
    } else if (arg == "--topology") {
      place.topology = value();
    } else if (arg == "--flow") {
      place.flow = value();
    } else if (arg == "--seed") {
      place.seed = static_cast<unsigned>(numeric_value(std::numeric_limits<unsigned>::max()));
    } else if (arg == "--dp") {
      place.run_detailed = true;
    } else if (arg == "--gp-levels") {
      place.gp_levels = static_cast<int>(numeric_value(4));
    } else if (arg == "--no-cache") {
      place.use_cache = false;
    } else if (arg == "--policy") {
      eco.policy = value();
    } else if (arg == "--move") {
      EcoMove m;
      std::istringstream ss(value());
      ss >> m.qubit >> m.x >> m.y;
      if (ss.fail() || m.qubit < 0) {
        std::cerr << "invalid --move; expected \"Q X Y\"\n";
        return 1;
      }
      eco.moves.push_back(m);
    } else if (arg == "--out") {
      out_file = value();
    } else {
      std::cerr << "unknown option " << arg << " (see --help)\n";
      return 1;
    }
  }

  if (serve) return run_serve(common, serve_opt);
  if (subcommand == "place") {
    if (place.topology.empty()) {
      std::cerr << "qgdpd_tool: place needs --topology\n";
      return 1;
    }
    place.want_layout = !out_file.empty();
    return run_place(common, place, out_file);
  }
  if (subcommand == "eco") {
    if (place.topology.empty()) {
      std::cerr << "qgdpd_tool: eco needs --topology\n";
      return 1;
    }
    return run_eco(common, place, eco, out_file);
  }
  if (subcommand == "stats" || subcommand == "shutdown") {
    QgdpdClient client = connect_or_die(common);
    std::string error;
    const auto rep =
        subcommand == "stats" ? client.stats(&error) : client.shutdown_server(&error);
    if (!rep) {
      std::cerr << "qgdpd_tool: " << subcommand << " failed: " << error << "\n";
      return 1;
    }
    print_stats(*rep);
    return 0;
  }
  print_usage();
  return subcommand.empty() ? 0 : 1;
}
