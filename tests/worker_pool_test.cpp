// Worker-tier tests: the fork-isolated execution path of qgdpd
// (server/worker_pool.h). Every failure mode a child can die by —
// clean exit, plain nonzero exit, SIGSEGV, an RLIMIT_AS breach, a
// wall-deadline hang — is exercised and must come back as the typed
// classification (13 worker_crashed / 14 resource_exhausted), with the
// slot recycled and no fd or zombie leaked. The clean path is pinned
// byte-identical to the in-process pipeline across the paper
// topologies, for place and for eco.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "io/serialization.h"
#include "netlist/topologies.h"
#include "runtime/batch_runner.h"
#include "server/cache_store.h"
#include "server/fault_injector.h"
#include "server/protocol.h"
#include "server/worker_pool.h"

// Sanitizer builds change two child-death signatures: ASan intercepts
// the failing allocation under RLIMIT_AS (the child dies by sanitizer
// abort, not bad_alloc), and both sanitizers inflate the image enough
// to shift which limit trips first. The OOM tests accept either typed
// resource/crash classification there — the invariant under test is
// "typed reply, daemon-side pool survives", not the exact code.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QGDP_TEST_SANITIZED 1
#endif
#if !defined(QGDP_TEST_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QGDP_TEST_SANITIZED 1
#endif
#endif

namespace qgdp {
namespace {

using namespace qgdp::server;

/// The in-process reference: the identical job the worker child runs.
[[nodiscard]] std::pair<std::string, double> local_place(const PlaceRequest& req) {
  const auto kind = flow_by_name(req.flow);
  const auto spec = topology_by_name(req.topology);
  EXPECT_TRUE(kind.has_value() && spec.has_value()) << req.topology;
  BatchJob job;
  job.spec = *spec;
  job.kind = *kind;
  job.gp_seed = req.seed;
  job.gp_levels = req.gp_levels;
  job.run_detailed = req.run_detailed;
  const BatchResult res = run_batch_job(job);
  std::ostringstream qlay;
  write_layout(res.netlist, qlay);
  return {qlay.str(), quantum_flow(*kind) ? res.stats.qubit.spacing_used : 0.0};
}

/// A well-formed 16-hex cache key — the `.qlc` codec rejects any other
/// shape, so worker replies keyed off a junk string fail their checksum.
[[nodiscard]] std::string test_key() { return hex64(fnv1a64("worker-test")); }

[[nodiscard]] PlaceRequest grid_request() {
  PlaceRequest req;
  req.topology = "Grid";
  return req;
}

/// Pool with an optional forced fault directive.
[[nodiscard]] WorkerPoolOptions plain_pool(std::string directive = "") {
  WorkerPoolOptions opt;
  opt.max_workers = 2;
  opt.limits.wall_timeout_ms = 120'000;  // generous: Debug pipelines are slow
  opt.test_fault_directive = std::move(directive);
  return opt;
}

[[nodiscard]] int count_open_fds() {
  int n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (!dir) return -1;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

// Runs first by design: the breach must land before any in-process
// pipeline run inflates this process's malloc arenas — a forked child
// inherits them, and address space recycled from the parent's peak is
// invisible to RLIMIT_AS growth accounting.
TEST(WorkerPool, OrganicPipelineOomUnderTinyCapIsResourceExhausted) {
  // No injected fault: the pipeline itself trips the cap placing a
  // 90'000-qubit grid under a 2 MB growth allowance — netlist
  // construction alone needs fresh mappings past it — and the child's
  // bad_alloc → kWorkerExitOom conversion types the death. The wall
  // deadline is a backstop for environments where inherited arenas do
  // absorb the growth; that kill is typed kResourceExhausted too.
  WorkerPoolOptions opt = plain_pool();
  opt.limits.max_rss_mb = 2;
  opt.limits.wall_timeout_ms = 15'000;
  WorkerPool pool{opt};
  PlaceRequest req;
  req.topology = "grid-300x300";
  const WorkerResult w = pool.run_place(req, test_key(), 90'000);
#ifdef QGDP_TEST_SANITIZED
  EXPECT_TRUE(w.status == StatusCode::kResourceExhausted ||
              w.status == StatusCode::kWorkerCrashed)
      << to_string(w.status) << ": " << w.message;
#else
  EXPECT_EQ(w.status, StatusCode::kResourceExhausted) << w.message;
  EXPECT_EQ(pool.counters().worker_oom_kills + pool.counters().worker_timeouts, 1u);
#endif
  EXPECT_EQ(pool.counters().workers_recycled, 1u);
}

TEST(WorkerPool, ForkedPlaceIsByteIdenticalToInProcessAcrossPaperTopologies) {
  WorkerPool pool{plain_pool()};
  std::size_t tested = 0;
  for (const DeviceSpec& spec : all_paper_topologies()) {
    PlaceRequest req;
    req.topology = spec.name;
    const auto [local_text, local_spacing] = local_place(req);
    const std::string key = hex64(fnv1a64(spec.name));

    const WorkerResult w =
        pool.run_place(req, key, static_cast<std::size_t>(spec.qubit_count));
    ASSERT_EQ(w.status, StatusCode::kOk) << spec.name << ": " << w.message;
    ASSERT_EQ(w.reply_type, FrameType::kPlaceReply) << spec.name;
    EXPECT_EQ(w.layout, local_text) << spec.name;
    EXPECT_EQ(w.spacing, local_spacing) << spec.name;

    const auto rep = parse_place_reply(w.reply_payload);
    ASSERT_TRUE(rep.has_value()) << spec.name;
    EXPECT_EQ(rep->cache_key, key);
    EXPECT_EQ(rep->layout_hash, hex64(fnv1a64(local_text)));
    EXPECT_EQ(rep->qubits, static_cast<std::size_t>(spec.qubit_count));
    ++tested;
  }
  const WorkerPoolCounters c = pool.counters();
  EXPECT_EQ(c.launched, tested);
  EXPECT_EQ(c.completed_ok, tested);
  EXPECT_EQ(c.worker_crashes, 0u);
  EXPECT_EQ(c.workers_recycled, 0u);
}

TEST(WorkerPool, ForkedEcoMatchesLocalIncrementalLegalizer) {
  const auto [text, spacing] = local_place(grid_request());

  // Local reference: reparse the layout, apply the same moves with
  // IncrementalLegalizer directly — exactly what the child does.
  std::istringstream is(text);
  QuantumNetlist nl = read_layout(is);
  const Point p3 = nl.qubit(3).pos;
  const Point p17 = nl.qubit(17).pos;
  EcoRequest req;
  req.moves = {{3, p3.x + 2.0, p3.y + 1.0}, {17, p17.x - 1.0, p17.y + 2.0}};

  BinGrid grid = IncrementalLegalizer::grid_for(nl);
  EcoOptions eopt;
  eopt.min_spacing = spacing;
  // EcoRequest defaults to the "abacus" wire policy; mirror it here or
  // the reference legalizer re-places blocks under the Baa discipline.
  eopt.policy = EcoOptions::BlockPolicy::kAbacusWindow;
  std::vector<QubitMove> moves;
  for (const EcoMove& m : req.moves) moves.push_back({m.qubit, Point{m.x, m.y}});
  const EcoResult local = IncrementalLegalizer(eopt).move_qubits(nl, grid, moves);
  ASSERT_TRUE(local.success);
  std::ostringstream local_qlay;
  write_layout(nl, local_qlay);

  WorkerPool pool{plain_pool()};
  const WorkerResult w = pool.run_eco(req, text, spacing, nl.qubit_count());
  ASSERT_EQ(w.status, StatusCode::kOk) << w.message;
  ASSERT_EQ(w.reply_type, FrameType::kEcoReply);
  const auto rep = parse_eco_reply(w.reply_payload);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->success);
  EXPECT_EQ(rep->ripped_blocks, local.ripped_blocks);
  EXPECT_EQ(rep->replaced_blocks, local.replaced_blocks);
  EXPECT_EQ(w.layout, local_qlay.str());
  EXPECT_EQ(w.spacing, spacing);
  EXPECT_EQ(rep->layout_hash, hex64(fnv1a64(local_qlay.str())));
}

TEST(WorkerPool, CleanExitWithTypedPipelineErrorPassesThrough) {
  // The child runs to completion but the request itself is bad: the
  // reply is a typed error frame, not a supervisor classification.
  WorkerPool pool{plain_pool()};
  PlaceRequest req = grid_request();
  req.flow = "annealer";
  const WorkerResult w = pool.run_place(req, test_key(), 25);
  ASSERT_EQ(w.status, StatusCode::kOk) << w.message;
  ASSERT_EQ(w.reply_type, FrameType::kErrorReply);
  const auto err = parse_error_reply(w.reply_payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, StatusCode::kUnknownFlow);
  const WorkerPoolCounters c = pool.counters();
  EXPECT_EQ(c.completed_ok, 1u);
  EXPECT_EQ(c.worker_crashes, 0u);
}

TEST(WorkerPool, PlainNonzeroExitIsWorkerCrashed) {
  WorkerPool pool{plain_pool("exit1")};
  const WorkerResult w = pool.run_place(grid_request(), test_key(), 25);
  EXPECT_EQ(w.status, StatusCode::kWorkerCrashed);
  EXPECT_NE(w.message.find("code 1"), std::string::npos) << w.message;
  const WorkerPoolCounters c = pool.counters();
  EXPECT_EQ(c.worker_crashes, 1u);
  EXPECT_EQ(c.workers_recycled, 1u);
  EXPECT_EQ(c.completed_ok, 0u);
}

TEST(WorkerPool, SigsegvIsWorkerCrashedAndPoolKeepsServing) {
  WorkerPoolOptions opt = plain_pool("crash");
  WorkerPool pool{opt};
  const WorkerResult w = pool.run_place(grid_request(), test_key(), 25);
  EXPECT_EQ(w.status, StatusCode::kWorkerCrashed);
  EXPECT_EQ(pool.counters().worker_crashes, 1u);
  EXPECT_EQ(pool.counters().workers_recycled, 1u);

  // The crash consumed one slot and one child — the next run on the
  // same pool must succeed (recycling, not poisoning).
  WorkerPool healthy{plain_pool()};
  const auto [local_text, local_spacing] = local_place(grid_request());
  const WorkerResult ok = healthy.run_place(grid_request(), test_key(), 25);
  ASSERT_EQ(ok.status, StatusCode::kOk) << ok.message;
  EXPECT_EQ(ok.layout, local_text);
  EXPECT_EQ(ok.spacing, local_spacing);
}

TEST(WorkerPool, RlimitAsBreachIsResourceExhausted) {
  // The injected OOM allocates-and-touches until the RLIMIT_AS
  // governor fails an allocation; a tiny growth cap makes that quick.
  WorkerPoolOptions opt = plain_pool("oom");
  opt.limits.max_rss_mb = 32;
  WorkerPool pool{opt};
  const WorkerResult w = pool.run_place(grid_request(), test_key(), 25);
#ifdef QGDP_TEST_SANITIZED
  EXPECT_TRUE(w.status == StatusCode::kResourceExhausted ||
              w.status == StatusCode::kWorkerCrashed)
      << to_string(w.status) << ": " << w.message;
#else
  EXPECT_EQ(w.status, StatusCode::kResourceExhausted) << w.message;
  EXPECT_EQ(pool.counters().worker_oom_kills, 1u);
#endif
  EXPECT_EQ(pool.counters().workers_recycled, 1u);
}

TEST(WorkerPool, HangIsKilledAtTheWallDeadline) {
  WorkerPoolOptions opt = plain_pool("hang");
  opt.limits.wall_timeout_ms = 500;
  WorkerPool pool{opt};
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerResult w = pool.run_place(grid_request(), test_key(), 25);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(w.status, StatusCode::kResourceExhausted) << w.message;
  EXPECT_NE(w.message.find("deadline"), std::string::npos) << w.message;
  EXPECT_GE(ms, 400.0);      // the deadline actually gated it...
  EXPECT_LT(ms, 10'000.0);   // ...and the SIGKILL was prompt
  const WorkerPoolCounters c = pool.counters();
  EXPECT_EQ(c.worker_timeouts, 1u);
  EXPECT_EQ(c.workers_recycled, 1u);
}

TEST(WorkerPool, HundredCrashesRecycleWithoutFdOrZombieLeaks) {
  WorkerPool pool{plain_pool("crash")};
  // One burn-in run so lazily-created fds (topology registry, libc
  // internals) exist before the baseline is taken.
  (void)pool.run_place(grid_request(), test_key(), 25);
  const int before = count_open_fds();
  ASSERT_GT(before, 0);

  for (int i = 0; i < 100; ++i) {
    const WorkerResult w = pool.run_place(grid_request(), test_key(), 25);
    ASSERT_EQ(w.status, StatusCode::kWorkerCrashed) << "iteration " << i;
  }
  EXPECT_EQ(count_open_fds(), before);

  const WorkerPoolCounters c = pool.counters();
  EXPECT_EQ(c.launched, 101u);
  EXPECT_EQ(c.worker_crashes, 101u);
  EXPECT_EQ(c.workers_recycled, 101u);

  // Every child was waitpid-reaped: no zombies left for anyone else.
  errno = 0;
  int st = 0;
  EXPECT_EQ(::waitpid(-1, &st, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(WorkerPool, DecodeLayoutEntryRejectsTornBytes) {
  // The pipe hand-off codec: a checksummed .qlc entry. Any torn byte —
  // a child dying mid-write — must be rejected, never banked.
  const CacheStore codec{CacheStoreOptions{}};
  const std::string body = codec.encode_entry({"deadbeefdeadbeef", 1.5, "qlay 1\nqubits 2\n"});

  std::string layout;
  double spacing = 0.0;
  ASSERT_TRUE(WorkerPool::decode_layout_entry(body, "deadbeefdeadbeef", &layout, &spacing));
  EXPECT_EQ(layout, "qlay 1\nqubits 2\n");
  EXPECT_EQ(spacing, 1.5);

  EXPECT_FALSE(WorkerPool::decode_layout_entry(body, "0000000000000000", &layout, &spacing));
  std::string torn = body;
  torn[torn.size() / 2] ^= 0x01;
  EXPECT_FALSE(WorkerPool::decode_layout_entry(torn, "deadbeefdeadbeef", &layout, &spacing));
  EXPECT_FALSE(WorkerPool::decode_layout_entry(body.substr(0, body.size() - 1),
                                               "deadbeefdeadbeef", &layout, &spacing));
}

TEST(FaultInjectorWorker, WorkerDrawsAreDeterministicAndMasked) {
  FaultConfig fc;
  fc.seed = 42;
  fc.short_io_permille = 200;   // I/O classes: masked on worker draws
  fc.drop_recv_permille = 200;
  fc.crash_child_permille = 150;
  fc.oom_child_permille = 150;
  fc.hang_child_permille = 150;

  // Two injectors with the same seed draw the same worker schedule.
  FaultInjector a{fc};
  FaultInjector b{fc};
  std::size_t injected = 0;
  for (int i = 0; i < 500; ++i) {
    const auto draw = a.next_worker();
    EXPECT_EQ(draw, b.next_worker()) << "op " << i;
    // Masking: a worker draw never yields an I/O action.
    EXPECT_TRUE(draw == FaultInjector::Action::kNone ||
                draw == FaultInjector::Action::kCrashChild ||
                draw == FaultInjector::Action::kOomChild ||
                draw == FaultInjector::Action::kHangChild);
    if (draw != FaultInjector::Action::kNone) ++injected;
  }
  // ~45% of the range is a worker fault; 500 draws can't all miss.
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(a.injected_total(), injected);

  // And the converse: I/O draws never yield worker actions.
  FaultInjector io{fc};
  for (int i = 0; i < 500; ++i) {
    const auto draw = io.next(i % 2 == 0);
    EXPECT_TRUE(draw != FaultInjector::Action::kCrashChild &&
                draw != FaultInjector::Action::kOomChild &&
                draw != FaultInjector::Action::kHangChild);
  }

  // Disarmed: no draws, and the op counter holds so re-arming resumes
  // the schedule in place.
  FaultInjector paused{fc};
  paused.arm(false);
  EXPECT_EQ(paused.next_worker(), FaultInjector::Action::kNone);
  EXPECT_EQ(paused.ops(), 0u);
}

}  // namespace
}  // namespace qgdp
