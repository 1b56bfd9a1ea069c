// qgdpd: the placement-as-a-service daemon.
//
// One TCP listener (loopback by default, port 0 = ephemeral) accepts
// connections; each connection is a *session* served by its own
// thread, speaking the framed protocol of server/protocol.h. A session
// owns warmed state — the resolved DeviceSpec, the current layout, and
// its derived bin grid — so a place followed by a stream of eco edits
// never rebuilds what it already has:
//
//   place     resolve topology → content-addressed cache probe →
//             on miss, execute_place (server/executor.h) runs the full
//             pipeline inline on the session thread (sessions share
//             the process-wide ThreadPool, so concurrent sessions
//             place concurrently) → cache, reply. On hit, reply
//             straight from the cache — the netlist/grid are
//             materialized lazily only if an eco edit arrives later.
//   eco       validate the moves against the session layout, then
//             execute_eco applies them via IncrementalLegalizer
//             (Abacus-window policy by default), re-serializes, and
//             the reply carries the dirty-window stats.
//   stats     daemon counters + cache hit/miss/occupancy.
//   shutdown  reply, then drain: stop accepting, unblock sessions.
//
// The server core is built for sustained hostile traffic — it fails
// typed and bounded rather than queueing or wedging:
//
//   admission   at most max_sessions concurrent sessions; a connection
//               over the cap gets one kOverloaded error frame and is
//               closed (shed, never queued). Cold (cache-miss) places
//               are separately capped at max_inflight_places; excess
//               requests get kOverloaded on a live connection.
//   deadlines   recv/send are poll-driven with idle and per-frame
//               timeouts (server/socket_io.h): a slowloris peer —
//               half a header, or a reply it never drains — is
//               evicted with a kTimeout frame and its thread reaped.
//               An optional place wall budget (place_budget_ms)
//               converts an over-budget cold place into kTimeout;
//               the computed layout is still banked in the cache so
//               the client's retry is warm.
//   lifecycle   sessions live in a registry keyed by session id; a
//               finished session retires its fd and moves its thread
//               to a reap list the accept loop drains, so the
//               registry never holds a stale fd (stop() can't
//               ::shutdown a recycled descriptor) and thread count is
//               bounded by live sessions, not total connections.
//   accept      transient accept() failures (EMFILE/ENFILE/ENOBUFS,
//               ECONNABORTED) are survived with capped backoff; the
//               loop only exits at shutdown.
//
// The daemon is deterministic where the pipeline is: the same place
// request always yields the byte-identical .qlay — under injected
// socket faults too (see server/fault_injector.h), which is what the
// chaos harness (`bench_serving --chaos`) asserts.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/cache_store.h"
#include "server/fault_injector.h"
#include "server/layout_cache.h"
#include "server/protocol.h"
#include "server/worker_pool.h"

namespace qgdp::server {

/// Where cold places and eco edits execute. Both modes run the same
/// executor functions; kFork only adds the process boundary.
enum class Isolation {
  kNone,  ///< in-process, on the session thread (the default)
  kFork,  ///< in a sandboxed forked worker (server/worker_pool.h)
};

struct QgdpdOptions {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};          ///< 0 = ephemeral (read back via port())
  std::size_t cache_entries{64};  ///< layout-cache capacity
  bool verbose{false};            ///< per-request log lines on stderr

  // ---- durability ----------------------------------------------------
  /// Durable cache directory (server/cache_store.h). Empty = in-memory
  /// only. At startup every valid entry in the directory is loaded
  /// back into the layout cache (corrupt files are quarantined, never
  /// fatal); every cache fill is persisted atomically in the
  /// background; stop() flushes pending writes before returning.
  std::string cache_dir;
  int cache_write_delay_ms{0};  ///< crash-test knob, see CacheStoreOptions

  // ---- robustness knobs ----------------------------------------------
  std::size_t max_sessions{64};         ///< concurrent-session cap (shed above)
  std::size_t max_inflight_places{8};   ///< concurrent cold-place cap (0 = unlimited)
  int idle_timeout_ms{120'000};         ///< between-requests deadline (-1 = none)
  int frame_timeout_ms{30'000};         ///< rest-of-frame / send deadline (-1 = none)
  int place_budget_ms{0};               ///< per-place wall budget (0 = unlimited)
  FaultInjector* faults{nullptr};       ///< chaos-harness hook (not owned)

  // ---- worker isolation ----------------------------------------------
  /// kFork contains the blast radius of a crashing/OOMing/hanging
  /// pipeline run to one request: the run happens in a forked child
  /// under rlimits, and its death becomes a typed 13/14 reply.
  Isolation isolation{Isolation::kNone};
  std::size_t worker_max_rss_mb{0};  ///< RLIMIT_AS growth cap (0 = none)
  int worker_cpu_s{0};               ///< RLIMIT_CPU cap (0 = none)
  int worker_wall_ms{30'000};        ///< supervisor deadline per run (0 = none)
};

class Qgdpd {
 public:
  explicit Qgdpd(QgdpdOptions opt = {});
  ~Qgdpd();

  Qgdpd(const Qgdpd&) = delete;
  Qgdpd& operator=(const Qgdpd&) = delete;

  /// Binds, listens, and starts the accept loop. False (with `*error`
  /// filled) if the socket could not be set up.
  bool start(std::string* error = nullptr);

  /// Blocks until a shutdown request (or stop()) drains the daemon,
  /// then joins all threads.
  void wait();

  /// Initiates shutdown and joins all threads; idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// Bound port (resolves ephemeral port 0 after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] LayoutCache& cache() { return cache_; }
  /// Durable tier, or nullptr when running without cache_dir.
  [[nodiscard]] CacheStore* store() { return store_.get(); }
  /// Worker tier, or nullptr when running with Isolation::kNone.
  [[nodiscard]] WorkerPool* workers() { return workers_.get(); }
  [[nodiscard]] const QgdpdOptions& options() const { return opt_; }
  /// Sessions currently registered (live gauge, also in StatsReply).
  [[nodiscard]] std::size_t active_sessions() const;

 private:
  struct Session;
  /// Registry entry: the session's fd while it is live (-1 once the
  /// session retired it, so stop() never ::shutdown()s a descriptor
  /// number the kernel may have recycled) and its thread handle.
  struct SessionEntry {
    int fd{-1};
    std::thread thread;
  };

  void accept_loop();
  void serve_session(std::uint64_t id, int fd);
  /// Unpublishes the fd (pre-close), then moves the thread handle to
  /// the reap list and erases the registry entry.
  void retire_fd(std::uint64_t id);
  void finish_session(std::uint64_t id);
  /// Joins every thread on the reap list (called from the accept loop
  /// between accepts, and from stop()).
  void reap_finished();
  /// Dispatches one request frame; returns the encoded reply frame and
  /// sets `*shutdown` when the request asked the daemon to drain.
  [[nodiscard]] std::string handle_frame(Session& session, FrameType type,
                                         const std::string& payload, bool* shutdown);
  [[nodiscard]] std::string handle_place(Session& session, const std::string& payload);
  [[nodiscard]] std::string handle_eco(Session& session, const std::string& payload);
  [[nodiscard]] std::string handle_stats();
  [[nodiscard]] std::string internal_error_frame(const std::string& message);
  /// The error frame for a failed executor outcome; a kInternalError
  /// counts in internal_errors whichever side raised it.
  [[nodiscard]] std::string outcome_error_frame(const ErrorReply& error);
  /// Flags shutdown and closes the listener so accept() returns; the
  /// caller's session loop exits on its own. Joining happens in stop().
  void initiate_shutdown();

  QgdpdOptions opt_;
  LayoutCache cache_;
  std::unique_ptr<CacheStore> store_;    ///< durable tier (null = in-memory only)
  std::unique_ptr<WorkerPool> workers_;  ///< isolation tier (null = in-process)
  std::uint16_t port_{0};
  int listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;

  mutable std::mutex sessions_mutex_;
  std::condition_variable sessions_cv_;  ///< signalled when a session retires
  std::uint64_t next_session_id_{1};
  std::unordered_map<std::uint64_t, SessionEntry> sessions_;
  std::vector<std::thread> reaped_;  ///< finished threads awaiting join

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  /// qubit spacing each cached layout was legalized with, so a session
  /// that materializes a cache hit applies the right ECO spacing rule.
  std::mutex spacing_mutex_;
  std::unordered_map<std::string, double> spacing_by_key_;

  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> sessions_accepted_{0};
  std::atomic<std::uint64_t> served_place_{0};
  std::atomic<std::uint64_t> served_eco_{0};
  std::atomic<std::uint64_t> served_stats_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
  std::atomic<std::uint64_t> shed_sessions_{0};
  std::atomic<std::uint64_t> shed_places_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::uint64_t> validation_rejects_{0};
  std::atomic<std::uint64_t> inflight_places_{0};
};

}  // namespace qgdp::server
