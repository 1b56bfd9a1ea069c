// WorkerPool: the fault-isolated execution tier of qgdpd.
//
// With --isolation=fork every cold place and every eco edit runs in a
// forked, sandboxed child process instead of on the session thread, so
// a SIGSEGV in the solver, an OOM at a large topology, or a
// non-converging run takes down one request — never the daemon. The
// supervisor (parent) side of each run:
//
//   fork      two pipes per job (request: parent → child, reply:
//             child → parent). The parent owns the session socket and
//             its pipe ends; the child owns only its pipe ends and
//             _exit()s without touching inherited descriptors.
//   hand-off  the request — and, for eco, the warm layout state — is
//             serialized over the request pipe as one protocol frame
//             whose body is a checksummed `.qlc` entry
//             (server/cache_store.h), so a torn write from a dying
//             child is detected by the codec, not trusted.
//   sandbox   the child applies RLIMIT_AS (baseline VM + the
//             --worker-max-rss-mb cap), RLIMIT_CPU (--worker-cpu-s),
//             RLIMIT_CORE=0, and switches the runtime to serial
//             execution (runtime/thread_pool.h) — a forked child of a
//             threaded parent must never touch the shared pool. The
//             pipeline's determinism contract makes the serial result
//             bit-identical to the in-process path.
//   supervise the parent polls the reply pipe under a wall deadline
//             (wall_timeout_ms); a hang is SIGKILLed. Every child is
//             reaped with waitpid exactly once — no zombies — and
//             every exit is classified:
//
//               clean exit + well-formed reply   → the reply (which may
//                                                  itself carry a typed
//                                                  pipeline error)
//               exit(kExitOom) / SIGKILL / SIGXCPU /
//                 wall-deadline kill             → kResourceExhausted (14)
//               other signal / nonzero exit /
//                 garbled reply                  → kWorkerCrashed (13)
//
//             A crashed slot is recycled (workers_recycled) and the
//             pool keeps serving.
//
// The child runs the same executor functions as the in-process path
// (server/executor.h); the pool only moves the request in and the
// outcome out, and place()/eco() return it as the executor's outcome
// type. One child supervises one request: there is no backup run, so
// a hang ends at the wall deadline as kResourceExhausted.
//
// Injected worker faults (FaultInjector::next_worker()) are drawn by
// the parent *before* forking and passed to the child as a request
// directive, so the deterministic (seed, op index) schedule is never
// advanced inside a child whose counter copy would silently diverge.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "server/executor.h"
#include "server/fault_injector.h"
#include "server/protocol.h"

namespace qgdp::server {

/// Resource caps applied by the child before it starts placing.
struct WorkerLimits {
  /// Address-space growth cap in MB over the forked image's baseline
  /// VM size (RLIMIT_AS; RLIMIT_RSS is a no-op on Linux). 0 = none.
  std::size_t max_rss_mb{0};
  /// CPU-seconds cap (RLIMIT_CPU; SIGXCPU at the soft limit). 0 = none.
  int cpu_s{0};
  /// Supervisor wall deadline per worker run; a child that produces no
  /// reply within it is SIGKILLed. 0 = none (not recommended: a
  /// sleeping hang burns no CPU and RLIMIT_CPU never fires).
  int wall_timeout_ms{30'000};
};

struct WorkerPoolOptions {
  /// Concurrent children; run() blocks for a slot.
  std::size_t max_workers{8};
  WorkerLimits limits;
  FaultInjector* faults{nullptr};  ///< chaos hook (not owned)
  /// Test-only: when non-empty, every run carries this fault directive
  /// ("crash" | "oom" | "hang" | "exit1") instead of drawing from
  /// `faults`.
  std::string test_fault_directive;
  bool verbose{false};
};

/// Monotonic counters, mirrored into StatsReply by qgdpd.
struct WorkerPoolCounters {
  std::uint64_t launched{0};          ///< children forked
  std::uint64_t completed_ok{0};      ///< well-formed replies received
  std::uint64_t worker_crashes{0};    ///< classified kWorkerCrashed
  std::uint64_t worker_oom_kills{0};  ///< RLIMIT_AS / OOM exits
  std::uint64_t worker_timeouts{0};   ///< wall-deadline / RLIMIT_CPU kills
  std::uint64_t hedges_launched{0};   ///< retired with hedging; always 0
  std::uint64_t hedge_wins{0};        ///< retired with hedging; always 0
  std::uint64_t workers_recycled{0};  ///< abnormal exits whose slot was recycled
};

/// Outcome of one supervised run. `status == kOk` means the child
/// produced a well-formed reply frame — whose payload may still carry
/// a typed pipeline error (kPlacementFailed, kSolverInfeasible, ...);
/// the caller parses it exactly as it would a daemon reply. 13/14 are
/// the supervisor's own classifications.
struct WorkerResult {
  StatusCode status{StatusCode::kOk};
  std::string message;             ///< supervisor diagnostic for 13/14
  FrameType reply_type{FrameType::kErrorReply};
  std::string reply_payload;       ///< protocol-format reply payload
  /// The result layout decoded from the reply's `.qlc` body — already
  /// checksum-validated, so the caller can bank it directly. Empty for
  /// error replies and failed eco edits (unchanged layout).
  std::string layout;
  double spacing{0.0};             ///< spacing rule carried by the entry
};

class WorkerPool {
 public:
  explicit WorkerPool(WorkerPoolOptions opt = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// execute_place in a sandboxed child, returned as the in-process
  /// outcome would be (minus the live netlist). A supervisor 13/14 or
  /// a typed error the child replied with lands in `error`.
  /// Thread-safe; blocks while all worker slots are busy.
  [[nodiscard]] PlaceOutcome place(const PlaceRequest& req, const std::string& cache_key);

  /// execute_eco in a sandboxed child against the warm layout text and
  /// its spacing rule. Qubit ids must already be validated.
  [[nodiscard]] EcoOutcome eco(const EcoRequest& req, const std::string& layout_payload,
                               double spacing);

  /// The raw run under place(): `cache_key` stamps the `.qlc` reply
  /// entry. `qubits` is ignored; it sized the retired hedge buckets.
  [[nodiscard]] WorkerResult run_place(const PlaceRequest& req, const std::string& cache_key,
                                       std::size_t qubits = 0);

  /// The raw run under eco(): the warm layout text and its spacing rule
  /// go to the child as a `.qlc` entry, and the post-edit layout comes
  /// back the same way. `qubits` is ignored, as for run_place().
  [[nodiscard]] WorkerResult run_eco(const EcoRequest& req, const std::string& layout_payload,
                                     double spacing, std::size_t qubits = 0);

  [[nodiscard]] WorkerPoolCounters counters() const;
  [[nodiscard]] const WorkerPoolOptions& options() const { return opt_; }

  /// Decodes a `.qlc`-wrapped reply body produced by a worker child
  /// (place: key = the cache key; eco: key = fnv1a64 of the layout).
  /// False on any codec defect — a torn pipe hand-off.
  [[nodiscard]] static bool decode_layout_entry(const std::string& body,
                                                const std::string& expect_key,
                                                std::string* layout, double* spacing);

 private:
  struct Child;  // one forked worker: pid, reply pipe, deadline

  /// Forks one child for the request payload, supervises it to a reply
  /// or its death, and classifies the outcome.
  [[nodiscard]] WorkerResult run(const std::string& request_payload, FrameType request_type);
  /// The fault directive for the next run: the test override, an
  /// injector draw, or "none".
  [[nodiscard]] std::string fault_directive();
  [[nodiscard]] bool spawn(const std::string& request_payload, FrameType request_type,
                           Child* child);
  /// Classifies a reaped child that produced no usable reply, from its
  /// waitpid status or the supervisor's own deadline kill.
  void classify_failure(int wait_status, bool deadline_killed, WorkerResult* result);
  void acquire_slot();
  void release_slot();

  WorkerPoolOptions opt_;

  mutable std::mutex slots_mutex_;
  std::condition_variable slots_cv_;
  std::size_t active_workers_{0};

  std::atomic<std::uint64_t> launched_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> worker_crashes_{0};
  std::atomic<std::uint64_t> worker_oom_kills_{0};
  std::atomic<std::uint64_t> worker_timeouts_{0};
  std::atomic<std::uint64_t> workers_recycled_{0};
};

namespace detail {

/// The child side of one worker run: reads the request frame from
/// `request_fd`, applies sandbox limits and any injected fault
/// directive, runs the executor serially, writes the reply frame to
/// `reply_fd`, and _exit()s. Never returns. Exposed for the worker
/// tests; everything else reaches it through WorkerPool.
[[noreturn]] void worker_child_main(int request_fd, int reply_fd, const WorkerLimits& limits);

/// Child exit codes with supervisor-visible meaning.
inline constexpr int kWorkerExitOk = 0;
/// Allocation failure under RLIMIT_AS, converted from bad_alloc so the
/// supervisor can tell an OOM from a crash without a core dump.
inline constexpr int kWorkerExitOom = 61;

}  // namespace detail

}  // namespace qgdp::server
