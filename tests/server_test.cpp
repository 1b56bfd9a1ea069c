// Serving subsystem tests: the framed wire codec (socket-independent),
// and the qgdpd daemon end to end over loopback TCP — cold/warm place
// byte-identity through the content-addressed cache, ECO edits matching
// a local IncrementalLegalizer run bit for bit, protocol error paths,
// the stats/shutdown lifecycle, and the hostile-client matrix: idle and
// slowloris eviction, malformed payloads, mid-reply disconnects,
// connect/close churn, and overload shedding at both admission caps.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "io/serialization.h"
#include "metrics/audit.h"
#include "netlist/netlist_builder.h"
#include "netlist/topologies.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/qgdpd.h"

namespace qgdp {
namespace {

using namespace qgdp::server;

// ---- framing ---------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  const std::string payload = "topology Grid\n\nbody bytes \x01\x02";
  const std::string frame = encode_frame(FrameType::kPlaceRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  const auto header =
      decode_frame_header(reinterpret_cast<const unsigned char*>(frame.data()));
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, FrameType::kPlaceRequest);
  EXPECT_EQ(header->length, payload.size());
  EXPECT_EQ(frame.substr(kFrameHeaderSize), payload);
}

TEST(Protocol, RejectsMalformedHeaders) {
  const std::string good = encode_frame(FrameType::kStatsRequest, "");
  unsigned char h[kFrameHeaderSize];
  auto with = [&](int at, unsigned char value) {
    std::memcpy(h, good.data(), kFrameHeaderSize);
    h[at] = value;
    return decode_frame_header(h);
  };
  EXPECT_TRUE(with(0, 'Q').has_value());
  EXPECT_FALSE(with(0, 'X').has_value());             // bad magic
  EXPECT_FALSE(with(2, kProtocolVersion + 1).has_value());  // bad version
  EXPECT_FALSE(with(3, 0x7F).has_value());            // unknown type
  EXPECT_FALSE(with(4, 0xFF).has_value());            // > kMaxPayloadBytes
}

// ---- request/reply codecs -------------------------------------------

TEST(Protocol, PlaceRequestRoundTrips) {
  PlaceRequest req;
  req.topology = "heavyhex-23x39";
  req.flow = "q-abacus";
  req.seed = 7;
  req.run_detailed = true;
  req.gp_levels = 3;
  req.use_cache = false;
  req.want_layout = false;
  const auto back = parse_place_request(format_place_request(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->topology, req.topology);
  EXPECT_EQ(back->flow, req.flow);
  EXPECT_EQ(back->seed, req.seed);
  EXPECT_EQ(back->run_detailed, req.run_detailed);
  EXPECT_EQ(back->gp_levels, req.gp_levels);
  EXPECT_EQ(back->use_cache, req.use_cache);
  EXPECT_EQ(back->want_layout, req.want_layout);
  EXPECT_FALSE(parse_place_request("flow qgdp\n\n").has_value());  // no topology
}

TEST(Protocol, EcoRequestRoundTripsAtFullPrecision) {
  EcoRequest req;
  req.policy = "baa";
  req.want_layout = true;
  req.moves = {{3, 1.0 / 3.0, 2.0 / 7.0}, {12, -4.25, 9.5}};
  const auto back = parse_eco_request(format_eco_request(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->policy, "baa");
  EXPECT_TRUE(back->want_layout);
  ASSERT_EQ(back->moves.size(), 2u);
  EXPECT_EQ(back->moves[0].qubit, 3);
  EXPECT_EQ(back->moves[0].x, 1.0 / 3.0);  // exact: setprecision(17)
  EXPECT_EQ(back->moves[0].y, 2.0 / 7.0);
  EXPECT_EQ(back->moves[1].qubit, 12);

  EXPECT_FALSE(parse_eco_request("policy abacus\n\n").has_value());  // no moves
  EXPECT_FALSE(parse_eco_request("policy tetris\nmove 0 1 1\n\n").has_value());
  EcoRequest too_many;
  too_many.moves.assign(kMaxEcoMoves + 1, {0, 0.0, 0.0});
  EXPECT_FALSE(parse_eco_request(format_eco_request(too_many)).has_value());
}

TEST(Protocol, RepliesRoundTripWithBody) {
  PlaceReply place;
  place.status = StatusCode::kOk;
  place.cached = true;
  place.cache_key = hex64(0xdeadbeefULL);
  place.layout_hash = hex64(fnv1a64(std::string("qlay")));
  place.qubits = 1117;
  place.blocks = 4242;
  place.place_ms = 0.125;
  place.layout = "qlay 1\nname x\n";  // body carried verbatim
  const auto p = parse_place_reply(format_place_reply(place));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->status, StatusCode::kOk);
  EXPECT_TRUE(p->cached);
  EXPECT_EQ(p->cache_key, place.cache_key);
  EXPECT_EQ(p->layout_hash, place.layout_hash);
  EXPECT_EQ(p->qubits, 1117u);
  EXPECT_EQ(p->blocks, 4242u);
  EXPECT_EQ(p->place_ms, 0.125);
  EXPECT_EQ(p->layout, place.layout);

  EcoReply eco;
  eco.status = StatusCode::kEcoFailed;
  eco.success = false;
  eco.ripped_blocks = 9;
  eco.window[0] = -1.5;
  eco.window[3] = 22.25;
  const auto e = parse_eco_reply(format_eco_reply(eco));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->status, StatusCode::kEcoFailed);
  EXPECT_FALSE(e->success);
  EXPECT_EQ(e->ripped_blocks, 9);
  EXPECT_EQ(e->window[0], -1.5);
  EXPECT_EQ(e->window[3], 22.25);

  StatsReply stats;
  stats.cache_hits = 17;
  stats.cache_bytes = 123456;
  stats.worker_crashes = 3;
  stats.worker_oom_kills = 2;
  stats.worker_timeouts = 1;
  stats.hedges_launched = 9;
  stats.hedge_wins = 4;
  stats.workers_recycled = 6;
  const auto s = parse_stats_reply(format_stats_reply(stats));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cache_hits, 17u);
  EXPECT_EQ(s->cache_bytes, 123456u);
  EXPECT_EQ(s->worker_crashes, 3u);
  EXPECT_EQ(s->worker_oom_kills, 2u);
  EXPECT_EQ(s->worker_timeouts, 1u);
  EXPECT_EQ(s->hedges_launched, 9u);
  EXPECT_EQ(s->hedge_wins, 4u);
  EXPECT_EQ(s->workers_recycled, 6u);

  ErrorReply err;
  err.status = StatusCode::kUnknownTopology;
  err.message = "no such device";
  const auto r = parse_error_reply(format_error_reply(err));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, StatusCode::kUnknownTopology);
  EXPECT_EQ(r->message, "no such device");
}

TEST(Protocol, EmptyRequestCodecAndRetryClassification) {
  EXPECT_EQ(format_empty_request(), "\n");
  EXPECT_TRUE(parse_empty_request(format_empty_request()));
  EXPECT_FALSE(parse_empty_request(""));
  EXPECT_FALSE(parse_empty_request("key value\n\n"));
  EXPECT_FALSE(parse_empty_request("\n\n"));

  EXPECT_EQ(to_string(StatusCode::kOverloaded), "overloaded");
  EXPECT_EQ(to_string(StatusCode::kTimeout), "timeout");
  EXPECT_EQ(to_string(StatusCode::kWorkerCrashed), "worker_crashed");
  EXPECT_EQ(to_string(StatusCode::kResourceExhausted), "resource_exhausted");
  EXPECT_TRUE(is_retryable(StatusCode::kOverloaded));
  EXPECT_TRUE(is_retryable(StatusCode::kTimeout));
  EXPECT_TRUE(is_retryable(StatusCode::kShuttingDown));
  // A crashed/starved worker is the run's failure, not the request's:
  // a retry lands on a fresh worker (or a warm cache) and may succeed.
  EXPECT_TRUE(is_retryable(StatusCode::kWorkerCrashed));
  EXPECT_TRUE(is_retryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(is_retryable(StatusCode::kOk));
  EXPECT_FALSE(is_retryable(StatusCode::kBadRequest));
  EXPECT_FALSE(is_retryable(StatusCode::kUnknownTopology));
  EXPECT_FALSE(is_retryable(StatusCode::kSolverInfeasible));
  EXPECT_FALSE(is_retryable(StatusCode::kInternalError));
}

TEST(Client, RetryBackoffIsDeterministicJitteredAndCapped) {
  RetryPolicy policy;
  policy.backoff_base_ms = 10;
  policy.backoff_max_ms = 200;
  policy.jitter_seed = 7;
  int prev_cap = 0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const int cap = std::min(10 << (attempt - 1), 200);
    const int d = retry_backoff_ms(policy, attempt);
    // Jitter stays inside [cap/2, cap] and the schedule is pure.
    EXPECT_GE(d, cap / 2) << attempt;
    EXPECT_LE(d, cap) << attempt;
    EXPECT_EQ(d, retry_backoff_ms(policy, attempt)) << attempt;
    EXPECT_GE(cap, prev_cap);
    prev_cap = cap;
  }
  RetryPolicy other = policy;
  other.jitter_seed = 8;
  bool differs = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    differs |= retry_backoff_ms(policy, attempt) != retry_backoff_ms(other, attempt);
  }
  EXPECT_TRUE(differs);  // the seed actually reaches the jitter
}

// ---- daemon end to end ----------------------------------------------

class QgdpdTest : public ::testing::Test {
 protected:
  void SetUp() override { restart(QgdpdOptions{}); }
  void TearDown() override { daemon_->stop(); }

  /// (Re)starts the daemon with `opt` on a fresh ephemeral port.
  void restart(QgdpdOptions opt) {
    if (daemon_) daemon_->stop();
    opt.port = 0;
    daemon_ = std::make_unique<Qgdpd>(opt);
    std::string error;
    ASSERT_TRUE(daemon_->start(&error)) << error;
  }

  [[nodiscard]] QgdpdClient connect() {
    QgdpdClient client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", daemon_->port(), &error)) << error;
    return client;
  }

  /// Raw TCP connection speaking bytes, not the client API — the
  /// hostile-client tests need to send garbage and half-frames. A 5 s
  /// receive timeout keeps a misbehaving daemon from hanging the test.
  [[nodiscard]] int raw_connect(int rcvbuf = 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    return fd;
  }

  static bool raw_send(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t r = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (r <= 0) return false;
      sent += static_cast<std::size_t>(r);
    }
    return true;
  }

  struct RawFrame {
    FrameType type{FrameType::kErrorReply};
    std::string payload;
  };

  /// Blocking read of one complete frame; nullopt on EOF/timeout/bad
  /// header.
  static std::optional<RawFrame> raw_read_frame(int fd) {
    unsigned char header[kFrameHeaderSize];
    std::size_t got = 0;
    while (got < kFrameHeaderSize) {
      const ssize_t r = ::recv(fd, header + got, kFrameHeaderSize - got, 0);
      if (r <= 0) return std::nullopt;
      got += static_cast<std::size_t>(r);
    }
    const auto h = decode_frame_header(header);
    if (!h) return std::nullopt;
    RawFrame frame;
    frame.type = h->type;
    frame.payload.resize(h->length);
    std::size_t body = 0;
    while (body < frame.payload.size()) {
      const ssize_t r = ::recv(fd, frame.payload.data() + body, frame.payload.size() - body, 0);
      if (r <= 0) return std::nullopt;
      body += static_cast<std::size_t>(r);
    }
    return frame;
  }

  /// True when the next read is an orderly EOF.
  static bool raw_at_eof(int fd) {
    char c;
    return ::recv(fd, &c, 1, 0) == 0;
  }

  /// Reads one error frame and returns its status (kInternalError as a
  /// sentinel when no parseable error frame arrived).
  static StatusCode raw_error_status(int fd) {
    const auto frame = raw_read_frame(fd);
    if (!frame || frame->type != FrameType::kErrorReply) return StatusCode::kInternalError;
    const auto rep = parse_error_reply(frame->payload);
    return rep ? rep->status : StatusCode::kInternalError;
  }

  /// Polls until the session registry drains to `n` (daemon threads
  /// unwind asynchronously after a peer hangs up).
  void wait_active_sessions(std::size_t n, int deadline_ms = 5000) {
    const auto t0 = std::chrono::steady_clock::now();
    while (daemon_->active_sessions() != n) {
      const auto ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      ASSERT_LT(ms, deadline_ms) << "sessions stuck at " << daemon_->active_sessions();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::unique_ptr<Qgdpd> daemon_;
};

TEST_F(QgdpdTest, ColdThenWarmPlaceIsByteIdentical) {
  PlaceRequest req;
  req.topology = "Grid";

  QgdpdClient a = connect();
  std::string error;
  const auto cold = a.place(req, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  EXPECT_EQ(cold->status, StatusCode::kOk);
  EXPECT_FALSE(cold->cached);
  EXPECT_EQ(cold->qubits, 25u);
  ASSERT_FALSE(cold->layout.empty());
  EXPECT_EQ(cold->layout_hash, hex64(fnv1a64(cold->layout)));

  // The cold reply must match a local run of the identical pipeline.
  QuantumNetlist nl = build_netlist(make_grid_device());
  PipelineOptions popt;
  (void)Pipeline(popt).run(nl);
  std::ostringstream local;
  write_layout(nl, local);
  EXPECT_EQ(cold->layout, local.str());

  // A second session gets the cached bytes, verbatim.
  QgdpdClient b = connect();
  const auto warm = b.place(req, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->cache_key, cold->cache_key);
  EXPECT_EQ(warm->layout, cold->layout);
  EXPECT_EQ(warm->layout_hash, cold->layout_hash);
  EXPECT_EQ(warm->blocks, cold->blocks);

  // cache=0 bypasses the cache and recomputes (still deterministic).
  PlaceRequest uncached = req;
  uncached.use_cache = false;
  const auto recomputed = b.place(uncached, &error);
  ASSERT_TRUE(recomputed.has_value()) << error;
  EXPECT_FALSE(recomputed->cached);
  EXPECT_EQ(recomputed->layout, cold->layout);

  // Different seed → different cache key (content-addressing).
  PlaceRequest other_seed = req;
  other_seed.seed = 2;
  const auto other = b.place(other_seed, &error);
  ASSERT_TRUE(other.has_value()) << error;
  EXPECT_FALSE(other->cached);
  EXPECT_NE(other->cache_key, cold->cache_key);
}

TEST_F(QgdpdTest, EcoMatchesLocalIncrementalLegalizer) {
  // Local reference: the same pipeline, then the same edits applied
  // with IncrementalLegalizer directly.
  QuantumNetlist nl = build_netlist(make_grid_device());
  PipelineOptions popt;
  const auto out = Pipeline(popt).run(nl);
  const double spacing = out.stats.qubit.spacing_used;

  const Point p0 = nl.qubit(3).pos;
  const Point p1 = nl.qubit(17).pos;
  EcoRequest eco;
  eco.want_layout = true;
  eco.moves = {{3, p0.x + 2.0, p0.y + 1.0}, {17, p1.x - 1.0, p1.y + 2.0}};

  BinGrid grid = IncrementalLegalizer::grid_for(nl);
  EcoOptions eopt;
  eopt.min_spacing = spacing;
  eopt.policy = EcoOptions::BlockPolicy::kAbacusWindow;
  std::vector<QubitMove> moves;
  for (const EcoMove& m : eco.moves) moves.push_back({m.qubit, Point{m.x, m.y}});
  const EcoResult local = IncrementalLegalizer(eopt).move_qubits(nl, grid, moves);
  ASSERT_TRUE(local.success);
  std::ostringstream local_qlay;
  write_layout(nl, local_qlay);

  // Served path: place cold, then the same eco batch.
  QgdpdClient client = connect();
  std::string error;
  PlaceRequest place;
  place.topology = "Grid";
  place.want_layout = false;
  const auto placed = client.place(place, &error);
  ASSERT_TRUE(placed.has_value()) << error;

  const auto served = client.eco(eco, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_EQ(served->status, StatusCode::kOk);
  EXPECT_TRUE(served->success);
  EXPECT_EQ(served->window_violations, 0);
  EXPECT_EQ(served->ripped_blocks, local.ripped_blocks);
  EXPECT_EQ(served->replaced_blocks, local.replaced_blocks);
  EXPECT_EQ(served->edges_touched, local.edges_touched);
  // Bit-identical to the from-scratch local re-legalization.
  EXPECT_EQ(served->layout, local_qlay.str());
  EXPECT_EQ(served->layout_hash, hex64(fnv1a64(local_qlay.str())));

  // The served layout is audit-clean under the flow's spacing rule.
  std::istringstream is(served->layout);
  const QuantumNetlist reread = read_layout(is);
  AuditOptions aopt;
  aopt.qubit_min_spacing = spacing;
  EXPECT_TRUE(audit_layout(reread, aopt).clean());

  // A warm session materializes the cached layout lazily and serves
  // the identical eco result.
  QgdpdClient warm = connect();
  const auto warm_place = warm.place(place, &error);
  ASSERT_TRUE(warm_place.has_value()) << error;
  EXPECT_TRUE(warm_place->cached);
  const auto warm_eco = warm.eco(eco, &error);
  ASSERT_TRUE(warm_eco.has_value()) << error;
  EXPECT_EQ(warm_eco->layout, local_qlay.str());
}

TEST_F(QgdpdTest, ForkIsolationMatchesInProcessByteForByte) {
  // In-process reference first (the default daemon from SetUp).
  QgdpdClient ref = connect();
  std::string error;
  PlaceRequest place;
  place.topology = "Grid";
  const auto in_proc = ref.place(place, &error);
  ASSERT_TRUE(in_proc.has_value()) << error;
  ASSERT_FALSE(in_proc->layout.empty());

  std::istringstream is(in_proc->layout);
  QuantumNetlist nl = read_layout(is);
  const Point p3 = nl.qubit(3).pos;
  EcoRequest eco;
  eco.want_layout = true;
  eco.moves = {{3, p3.x + 2.0, p3.y + 1.0}};
  const auto eco_ref = ref.eco(eco, &error);
  ASSERT_TRUE(eco_ref.has_value()) << error;
  ASSERT_TRUE(eco_ref->success);

  // The same traffic against a fork-isolated daemon: every reply must
  // be byte-identical — the isolated path is an implementation detail,
  // never an observable one.
  QgdpdOptions opt;
  opt.isolation = Isolation::kFork;
  restart(opt);
  QgdpdClient iso = connect();
  const auto cold = iso.place(place, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  EXPECT_FALSE(cold->cached);
  EXPECT_EQ(cold->cache_key, in_proc->cache_key);
  EXPECT_EQ(cold->layout, in_proc->layout);
  EXPECT_EQ(cold->layout_hash, in_proc->layout_hash);
  EXPECT_EQ(cold->blocks, in_proc->blocks);

  const auto eco_iso = iso.eco(eco, &error);
  ASSERT_TRUE(eco_iso.has_value()) << error;
  EXPECT_TRUE(eco_iso->success);
  EXPECT_EQ(eco_iso->layout, eco_ref->layout);
  EXPECT_EQ(eco_iso->layout_hash, eco_ref->layout_hash);
  EXPECT_EQ(eco_iso->ripped_blocks, eco_ref->ripped_blocks);

  // Warm hits under fork isolation serve the identical cached bytes.
  QgdpdClient warm = connect();
  const auto hit = warm.place(place, &error);
  ASSERT_TRUE(hit.has_value()) << error;
  EXPECT_TRUE(hit->cached);
  EXPECT_EQ(hit->layout, in_proc->layout);

  const auto stats = warm.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->worker_crashes, 0u);
  EXPECT_EQ(stats->internal_errors, 0u);
}

TEST_F(QgdpdTest, ForkIsolationMatchesInProcessOnEcoRejectsAndDiagnostics) {
  // The same session in both modes: a place, an eco naming a qubit the
  // layout does not have, then a landed two-move eco. Both modes run
  // one executor, so the reject and every diagnostic must agree.
  struct Served {
    StatusCode reject{StatusCode::kOk};
    std::uint64_t validation_rejects{0};
    std::uint64_t worker_launches{0};
    EcoReply eco;
  };
  auto serve = [&](Isolation isolation) {
    QgdpdOptions opt;
    opt.isolation = isolation;
    restart(opt);
    Served out;
    QgdpdClient client = connect();
    std::string error;
    PlaceRequest place;
    place.topology = "Grid";
    const auto placed = client.place(place, &error);
    EXPECT_TRUE(placed.has_value()) << error;
    if (!placed) return out;
    std::istringstream is(placed->layout);
    const QuantumNetlist nl = read_layout(is);
    const Point p3 = nl.qubit(3).pos;
    const Point p17 = nl.qubit(17).pos;

    EcoRequest out_of_range;  // in the fabric, but Grid has qubits 0..24
    out_of_range.moves = {{static_cast<int>(nl.qubit_count()), p3.x, p3.y}};
    EXPECT_FALSE(client.eco(out_of_range, &error).has_value());
    out.reject = client.last_status();

    EcoRequest eco;
    eco.want_layout = true;
    eco.moves = {{3, p3.x + 2.0, p3.y + 1.0}, {17, p17.x - 1.0, p17.y + 2.0}};
    const auto served = client.eco(eco, &error);
    EXPECT_TRUE(served.has_value()) << error;
    if (served) out.eco = *served;
    const auto stats = client.stats(&error);
    EXPECT_TRUE(stats.has_value()) << error;
    if (stats) out.validation_rejects = stats->validation_rejects;
    if (daemon_->workers()) out.worker_launches = daemon_->workers()->counters().launched;
    return out;
  };
  const Served in_proc = serve(Isolation::kNone);
  const Served forked = serve(Isolation::kFork);

  EXPECT_EQ(in_proc.reject, StatusCode::kBadRequest);
  EXPECT_EQ(forked.reject, StatusCode::kBadRequest);
  EXPECT_EQ(in_proc.validation_rejects, 1u);
  EXPECT_EQ(forked.validation_rejects, 1u);
  EXPECT_EQ(forked.worker_launches, 2u);  // the reject never reached a worker

  const EcoReply& a = in_proc.eco;
  const EcoReply& b = forked.eco;
  ASSERT_TRUE(a.success);
  EXPECT_GT(a.ripped_blocks, 0);  // the diagnostics below are not all zero
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.success, a.success);
  EXPECT_EQ(b.ripped_blocks, a.ripped_blocks);
  EXPECT_EQ(b.replaced_blocks, a.replaced_blocks);
  EXPECT_EQ(b.edges_touched, a.edges_touched);
  EXPECT_EQ(b.window_violations, a.window_violations);
  EXPECT_EQ(b.grid_bins_touched, a.grid_bins_touched);
  EXPECT_EQ(b.window_growths, a.window_growths);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.window[i], a.window[i]) << "window[" << i << "]";
  EXPECT_EQ(b.layout_hash, a.layout_hash);
  EXPECT_EQ(b.layout, a.layout);
}

TEST_F(QgdpdTest, ForkIsolationCrashesAreTypedAndDoNotLeakAdmission) {
  FaultConfig fc;
  fc.crash_child_permille = 1000;  // every worker run dies by SIGSEGV
  FaultInjector faults{fc};
  QgdpdOptions opt;
  opt.isolation = Isolation::kFork;
  opt.max_inflight_places = 1;  // a leaked admission slot wedges the retry below
  opt.faults = &faults;
  restart(opt);

  PlaceRequest place;
  place.topology = "Grid";
  const std::string frame =
      encode_frame(FrameType::kPlaceRequest, format_place_request(place));
  for (int i = 0; i < 5; ++i) {
    const int fd = raw_connect();
    ASSERT_TRUE(raw_send(fd, frame));
    EXPECT_EQ(raw_error_status(fd), StatusCode::kWorkerCrashed) << "request " << i;
    ::close(fd);
  }
  wait_active_sessions(0);

  // Schedule suspended: the next cold place must be admitted (every
  // crashed run released its inflight slot) and must succeed.
  faults.arm(false);
  QgdpdClient client = connect();
  std::string error;
  const auto ok = client.place(place, &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->status, StatusCode::kOk);
  ASSERT_FALSE(ok->layout.empty());

  // The worker tier's counters surface in stats, and none of the five
  // contained crashes was an internal error.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->worker_crashes, 5u);
  EXPECT_EQ(stats->workers_recycled, 5u);
  EXPECT_EQ(stats->worker_oom_kills, 0u);
  EXPECT_EQ(stats->internal_errors, 0u);

  daemon_->stop();  // before `faults` leaves scope
}

TEST_F(QgdpdTest, RequestErrorsAreTyped) {
  QgdpdClient client = connect();
  std::string error;

  PlaceRequest bad_topology;
  bad_topology.topology = "no-such-device";
  EXPECT_FALSE(client.place(bad_topology, &error).has_value());
  EXPECT_NE(error.find("unknown_topology"), std::string::npos) << error;

  PlaceRequest bad_flow;
  bad_flow.topology = "Grid";
  bad_flow.flow = "annealer";
  EXPECT_FALSE(client.place(bad_flow, &error).has_value());
  EXPECT_NE(error.find("unknown_flow"), std::string::npos) << error;

  EcoRequest premature;
  premature.moves = {{0, 1.0, 1.0}};
  EXPECT_FALSE(client.eco(premature, &error).has_value());
  EXPECT_NE(error.find("no_layout"), std::string::npos) << error;

  // The connection survives typed errors and still serves requests.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GE(stats->served_place, 2u);
}

TEST_F(QgdpdTest, OutOfFabricEcoRejectedBeforeSolve) {
  QgdpdClient client = connect();
  std::string error;
  PlaceRequest place;
  place.topology = "Grid";
  place.want_layout = true;
  const auto placed = client.place(place, &error);
  ASSERT_TRUE(placed.has_value()) << error;
  const std::string before = placed->layout;

  // A target far outside the fabric is rejected by the validation
  // layer as bad_request — before the solver (or even the session's
  // lazy netlist materialization) is touched — and counted in
  // validation_rejects.
  EcoRequest impossible;
  impossible.want_layout = true;
  impossible.moves = {{0, 1e6, 1e6}};
  EXPECT_FALSE(client.eco(impossible, &error).has_value());
  EXPECT_NE(error.find("bad_request"), std::string::npos) << error;
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->validation_rejects, 1u);

  // The session layout is untouched and the connection still serves:
  // a normal follow-up eco on the same session must succeed.
  std::istringstream is(before);
  const QuantumNetlist nl = read_layout(is);
  const Point p0 = nl.qubit(0).pos;
  EcoRequest fine;
  fine.want_layout = true;
  fine.moves = {{0, p0.x + 1.0, p0.y}};
  const auto served = client.eco(fine, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_EQ(served->status, StatusCode::kOk);
  EXPECT_TRUE(served->success);
}

TEST_F(QgdpdTest, StatsAndShutdownLifecycle) {
  QgdpdClient client = connect();
  std::string error;
  PlaceRequest req;
  req.topology = "Grid";
  req.want_layout = false;
  ASSERT_TRUE(client.place(req, &error).has_value()) << error;
  ASSERT_TRUE(client.place(req, &error).has_value()) << error;  // same session, warm

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->served_place, 2u);
  EXPECT_EQ(stats->cache_hits, 1u);
  EXPECT_EQ(stats->cache_misses, 1u);
  EXPECT_EQ(stats->cache_entries, 1u);
  EXPECT_GT(stats->cache_bytes, 0u);
  EXPECT_GE(stats->sessions, 1u);

  const auto final_stats = client.shutdown_server(&error);
  ASSERT_TRUE(final_stats.has_value()) << error;
  EXPECT_GE(final_stats->served_place, 2u);
  daemon_->wait();  // drains promptly once shutdown was requested
  EXPECT_FALSE(daemon_->running());
}

// ---- hostile-client matrix ------------------------------------------

TEST_F(QgdpdTest, IdleSessionIsEvictedWithTimeout) {
  QgdpdOptions opt;
  opt.idle_timeout_ms = 150;
  opt.frame_timeout_ms = 150;
  restart(opt);

  // Connect and send nothing: the idle deadline must evict us with a
  // typed kTimeout frame followed by an orderly close.
  const int fd = raw_connect();
  EXPECT_EQ(raw_error_status(fd), StatusCode::kTimeout);
  EXPECT_TRUE(raw_at_eof(fd));
  ::close(fd);
  wait_active_sessions(0);
}

TEST_F(QgdpdTest, SlowlorisHalfHeaderIsEvictedWithTimeout) {
  QgdpdOptions opt;
  opt.idle_timeout_ms = 2'000;
  opt.frame_timeout_ms = 150;
  restart(opt);

  // Send three bytes of a valid header, then stall. The frame deadline
  // (not the longer idle deadline) must fire: once a frame starts, the
  // rest has 150 ms to arrive.
  const std::string good = encode_frame(FrameType::kStatsRequest, format_empty_request());
  const int fd = raw_connect();
  ASSERT_TRUE(raw_send(fd, good.substr(0, 3)));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(raw_error_status(fd), StatusCode::kTimeout);
  EXPECT_TRUE(raw_at_eof(fd));
  const auto waited =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(waited, 1'500.0);  // frame deadline, not idle deadline
  ::close(fd);
  wait_active_sessions(0);

  // The eviction is visible in the daemon's counters.
  QgdpdClient client = connect();
  std::string error;
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GE(stats->timeouts, 1u);
  EXPECT_EQ(stats->internal_errors, 0u);
}

TEST_F(QgdpdTest, MalformedPayloadsAreTypedAndBadMagicCloses) {
  const int fd = raw_connect();

  // A stats request carrying a payload is kBadRequest — and the
  // connection survives to serve the corrected retry.
  ASSERT_TRUE(raw_send(fd, encode_frame(FrameType::kStatsRequest, "verbose 1\n\n")));
  EXPECT_EQ(raw_error_status(fd), StatusCode::kBadRequest);
  ASSERT_TRUE(raw_send(fd, encode_frame(FrameType::kStatsRequest, format_empty_request())));
  const auto stats = raw_read_frame(fd);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->type, FrameType::kStatsReply);
  const auto parsed = parse_stats_reply(stats->payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol_errors, 1u);

  // A reply frame type sent as a request is kBadRequest too.
  ASSERT_TRUE(raw_send(fd, encode_frame(FrameType::kPlaceReply, "status 0\n\n")));
  EXPECT_EQ(raw_error_status(fd), StatusCode::kBadRequest);

  // Garbage magic is unrecoverable: one kBadFrame frame, then close.
  ASSERT_TRUE(raw_send(fd, std::string(kFrameHeaderSize, 'X')));
  EXPECT_EQ(raw_error_status(fd), StatusCode::kBadFrame);
  EXPECT_TRUE(raw_at_eof(fd));
  ::close(fd);
  wait_active_sessions(0);
}

TEST_F(QgdpdTest, MidReplyDisconnectLeavesDaemonServiceable) {
  // Prefill the cache so the raw client's request answers immediately
  // with a large (~1117-qubit .qlay) reply.
  QgdpdClient warm = connect();
  std::string error;
  PlaceRequest place;
  place.topology = "heavyhex-23x39";
  place.want_layout = false;
  ASSERT_TRUE(warm.place(place, &error).has_value()) << error;

  // A tiny receive buffer forces the server to block mid-reply; we
  // hang up without reading a byte of it.
  place.want_layout = true;
  const int fd = raw_connect(/*rcvbuf=*/2048);
  ASSERT_TRUE(raw_send(fd, encode_frame(FrameType::kPlaceRequest, format_place_request(place))));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(fd);

  // The write failure must kill only that session — the daemon keeps
  // serving, records no internal errors, and reaps the thread.
  const auto stats = warm.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->internal_errors, 0u);
  wait_active_sessions(1);  // only `warm` remains
}

TEST_F(QgdpdTest, HalfCloseMidReplyDoesNotRaiseSigpipe) {
  // Prefill so the raw client's request answers immediately with a
  // large reply the daemon has to stream.
  QgdpdClient warm = connect();
  std::string error;
  PlaceRequest place;
  place.topology = "heavyhex-23x39";
  place.want_layout = false;
  ASSERT_TRUE(warm.place(place, &error).has_value()) << error;

  // A tiny receive buffer wedges the daemon mid-send; an abortive
  // close (SO_LINGER 0 → RST) then turns its next write into EPIPE.
  // With SIGPIPE ignored process-wide that is a survivable error on
  // one session; without it the whole daemon dies here.
  place.want_layout = true;
  const int fd = raw_connect(/*rcvbuf=*/2048);
  ASSERT_TRUE(raw_send(fd, encode_frame(FrameType::kPlaceRequest, format_place_request(place))));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  linger abort_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
  ::close(fd);

  // The daemon keeps serving on a live session, with no internal
  // errors, and reaps the killed session's thread.
  const auto stats = warm.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->internal_errors, 0u);
  wait_active_sessions(1);  // only `warm` remains
}

TEST_F(QgdpdTest, ConnectCloseChurnDoesNotLeakFdsOrSessions) {
  auto count_fds = [] {
    int n = 0;
    DIR* dir = ::opendir("/proc/self/fd");
    if (!dir) return -1;
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
    return n;
  };

  // A client that rides out transient kOverloaded sheds: a churn burst
  // can transiently fill the registry while the accept loop drains the
  // kernel backlog of already-closed connections behind it.
  ClientOptions copt;
  copt.retry.max_attempts = 20;
  copt.retry.backoff_base_ms = 10;
  copt.retry.backoff_max_ms = 100;

  // Warm-up churn so lazily-created fds exist, then drain (the accept
  // queue is FIFO — once a later connection is served, the churn ahead
  // of it has been accepted) before taking the fd baseline.
  for (int i = 0; i < 10; ++i) ::close(raw_connect());
  {
    QgdpdClient drain{copt};
    std::string error;
    ASSERT_TRUE(drain.connect("127.0.0.1", daemon_->port(), &error)) << error;
    ASSERT_TRUE(drain.stats(&error).has_value()) << error;
  }
  wait_active_sessions(0);
  const int before = count_fds();
  ASSERT_GT(before, 0);

  for (int i = 0; i < 500; ++i) {
    const int fd = raw_connect();
    ASSERT_GE(fd, 0);
    ::close(fd);
  }

  // The daemon still serves; the retry policy absorbs any shed while
  // the backlog drains.
  QgdpdClient client{copt};
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", daemon_->port(), &error)) << error;
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  // Every churn connection was accounted — accepted or shed, never lost.
  EXPECT_GE(stats->sessions + stats->shed_sessions, 510u);
  EXPECT_EQ(stats->internal_errors, 0u);

  wait_active_sessions(1);  // only `client` remains
  const int after = count_fds();
  EXPECT_LE(after, before + 8) << "fd leak across connect/close churn";
}

TEST_F(QgdpdTest, SessionCapShedsWithOverloadedAndRecovers) {
  QgdpdOptions opt;
  opt.max_sessions = 2;
  restart(opt);

  // Fill the cap with two registered sessions (a completed roundtrip
  // guarantees registration).
  QgdpdClient a = connect();
  QgdpdClient b = connect();
  std::string error;
  ASSERT_TRUE(a.stats(&error).has_value()) << error;
  ASSERT_TRUE(b.stats(&error).has_value()) << error;

  // The third connection is shed at accept: one kOverloaded frame,
  // then close — reading without sending sees it cleanly.
  const int fd = raw_connect();
  EXPECT_EQ(raw_error_status(fd), StatusCode::kOverloaded);
  EXPECT_TRUE(raw_at_eof(fd));
  ::close(fd);

  const auto stats = a.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->shed_sessions, 1u);
  EXPECT_EQ(stats->active_sessions, 2u);

  // Freeing a slot restores service for new connections.
  b.close();
  wait_active_sessions(1);
  QgdpdClient c = connect();
  EXPECT_TRUE(c.stats(&error).has_value()) << error;
}

TEST_F(QgdpdTest, ColdPlaceCapShedsAndRetryPolicySucceeds) {
  QgdpdOptions opt;
  opt.max_inflight_places = 1;
  restart(opt);

  PlaceRequest cold;
  cold.topology = "heavyhex-23x39";  // ~hundreds of ms cold: a wide race-free window
  cold.use_cache = false;
  cold.want_layout = false;

  // A holds the single cold-place slot; B's cold place must shed.
  QgdpdClient a = connect();
  std::thread holder([&] {
    std::string err;
    const auto rep = a.place(cold, &err);
    EXPECT_TRUE(rep.has_value()) << err;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  QgdpdClient b = connect();
  std::string error;
  EXPECT_FALSE(b.place(cold, &error).has_value());
  EXPECT_EQ(b.last_status(), StatusCode::kOverloaded);
  EXPECT_NE(error.find("overloaded"), std::string::npos) << error;
  holder.join();

  // The shed request's connection stayed open, and a client with a
  // retry policy rides out the cap without surfacing the shed at all.
  const auto stats = b.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->shed_places, 1u);

  ClientOptions copt;
  copt.retry.max_attempts = 5;
  copt.retry.backoff_base_ms = 20;
  QgdpdClient c{copt};
  ASSERT_TRUE(c.connect("127.0.0.1", daemon_->port(), &error)) << error;
  PlaceRequest cached = cold;
  cached.use_cache = true;
  const auto rep = c.place(cached, &error);
  ASSERT_TRUE(rep.has_value()) << error;
  EXPECT_EQ(rep->status, StatusCode::kOk);
}

// ---- durable cache tier ---------------------------------------------

TEST_F(QgdpdTest, WarmRestartServesByteIdenticalFromDisk) {
  char tmpl[] = "/tmp/qgdp_persist_XXXXXX";
  const std::string cache_dir = ::mkdtemp(tmpl);

  QgdpdOptions opt;
  opt.cache_dir = cache_dir;
  restart(opt);

  PlaceRequest req;
  req.topology = "Grid";
  req.want_layout = true;

  QgdpdClient cold_client = connect();
  std::string error;
  const auto cold = cold_client.place(req, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  EXPECT_FALSE(cold->cached);
  const std::string cold_layout = cold->layout;
  const std::string cache_key = cold->cache_key;
  cold_client.close();

  // Stop flushes the store; the entry must be durable on disk now.
  daemon_->stop();
  {
    std::ifstream f(cache_dir + "/" + cache_key + ".qlc");
    ASSERT_TRUE(f.good()) << "durable entry missing after stop()";
  }

  // Sabotage the directory: a garbage entry and an interrupted write.
  {
    std::ofstream g(cache_dir + "/1111111111111111.qlc");
    g << "not a cache entry\n";
    std::ofstream t(cache_dir + "/2222222222222222.qlc.tmp");
    t << "interrupted";
  }

  // A fresh daemon over the same directory loads the good entry,
  // quarantines the rest, and serves the warm hit byte-identically.
  restart(opt);
  QgdpdClient warm_client = connect();
  const auto stats = warm_client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->entries_loaded, 1u);
  EXPECT_EQ(stats->corrupt_quarantined, 2u);
  EXPECT_EQ(stats->cache_entries, 1u);

  const auto warm = warm_client.place(req, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->cache_key, cache_key);
  EXPECT_EQ(warm->layout, cold_layout);  // byte-identical across restart

  // The persisted spacing makes warm sessions eco-capable: the edit
  // must match a local run against the restored layout.
  std::istringstream is(cold_layout);
  QuantumNetlist nl = read_layout(is);
  const Point p0 = nl.qubit(0).pos;
  EcoRequest eco;
  eco.want_layout = true;
  eco.moves = {{0, p0.x + 1.0, p0.y + 1.0}};
  const auto served = warm_client.eco(eco, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_TRUE(served->success);
  EXPECT_EQ(served->window_violations, 0);

  warm_client.close();
  daemon_->stop();
  for (const std::string name :
       {cache_key + ".qlc", std::string("1111111111111111.qlc.corrupt")}) {
    ::unlink((cache_dir + "/" + name).c_str());
  }
  ::rmdir(cache_dir.c_str());
}

TEST_F(QgdpdTest, CacheEntriesFromOtherOutputVersionsAreNotServed) {
  // The in-process daemon names the real cache key of a Grid place; a
  // seed-2 layout stands in for what code with other outputs placed.
  PlaceRequest req;
  req.topology = "Grid";
  req.want_layout = true;
  PlaceRequest other = req;
  other.seed = 2;
  QgdpdClient ref = connect();
  std::string error;
  const auto placed = ref.place(req, &error);
  ASSERT_TRUE(placed.has_value()) << error;
  const auto stale = ref.place(other, &error);
  ASSERT_TRUE(stale.has_value()) << error;
  ASSERT_NE(stale->layout, placed->layout);
  ref.close();

  // The entry as a daemon from before kOutputVersion wrote it.
  char tmpl[] = "/tmp/qgdp_stale_XXXXXX";
  const std::string cache_dir = ::mkdtemp(tmpl);
  {
    CacheStoreOptions sopt;
    sopt.dir = cache_dir;
    sopt.fingerprint = "qlay=1;key=1";
    CacheStore old(sopt);
    ASSERT_TRUE(old.open(&error)) << error;
    old.enqueue({placed->cache_key, 1.0, stale->layout});
    old.flush();
  }

  QgdpdOptions opt;
  opt.cache_dir = cache_dir;
  restart(opt);
  QgdpdClient client = connect();
  const auto served = client.place(req, &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_FALSE(served->cached);
  EXPECT_EQ(served->cache_key, placed->cache_key);

  QuantumNetlist nl = build_netlist(make_grid_device());
  (void)Pipeline(PipelineOptions{}).run(nl);
  std::ostringstream local;
  write_layout(nl, local);
  EXPECT_EQ(served->layout, local.str());

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->entries_loaded, 0u);
  EXPECT_EQ(stats->corrupt_quarantined, 1u);

  client.close();
  daemon_->stop();
  for (const std::string& name : {placed->cache_key + ".qlc", placed->cache_key + ".qlc.corrupt"}) {
    ::unlink((cache_dir + "/" + name).c_str());
  }
  ::rmdir(cache_dir.c_str());
}

TEST_F(QgdpdTest, PlaceBudgetTimesOutButBanksTheLayout) {
  QgdpdOptions opt;
  opt.place_budget_ms = 1;  // no cold pipeline run fits 1 ms
  restart(opt);

  PlaceRequest place;
  place.topology = "heavyhex-11x19";
  place.want_layout = true;

  // The cold place blows the budget: typed kTimeout, but the layout
  // was banked in the cache first.
  QgdpdClient client = connect();
  std::string error;
  EXPECT_FALSE(client.place(place, &error).has_value());
  EXPECT_EQ(client.last_status(), StatusCode::kTimeout);
  EXPECT_TRUE(is_retryable(client.last_status()));

  // The retry is warm — a cache hit skips the pipeline and the budget.
  const auto warm = client.place(place, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  EXPECT_EQ(warm->status, StatusCode::kOk);
  EXPECT_TRUE(warm->cached);

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->timeouts, 1u);
  EXPECT_EQ(stats->cache_hits, 1u);
}

}  // namespace
}  // namespace qgdp
