#include "server/qgdpd.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>

#include "io/serialization.h"
#include "server/executor.h"
#include "server/socket_io.h"
#include "server/validation.h"

namespace qgdp::server {

namespace {

[[nodiscard]] double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Every pipeline-relevant option outside (topology, flow, seed) must
/// appear here — the cache key is only sound if two requests with the
/// same fingerprint run the identical deterministic pipeline.
[[nodiscard]] std::string options_fingerprint(const PlaceRequest& req) {
  std::ostringstream os;
  os << "dp=" << (req.run_detailed ? 1 : 0) << ";gp_levels=" << req.gp_levels;
  return os.str();
}

/// Pulls "<key> N" out of a .qlay text without a full parse — the
/// warm-cache reply path must not deserialize the layout.
[[nodiscard]] std::size_t qlay_count(const std::string& qlay, const char* key) {
  const std::string needle = std::string("\n") + key + ' ';
  const std::size_t pos = qlay.find(needle);
  if (pos == std::string::npos) return 0;
  std::istringstream ss(qlay.substr(pos + needle.size(), 24));
  std::size_t n = 0;
  ss >> n;
  return ss.fail() ? 0 : n;
}

[[nodiscard]] std::string error_frame(StatusCode code, std::string message) {
  ErrorReply rep;
  rep.status = code;
  rep.message = std::move(message);
  return encode_frame(FrameType::kErrorReply, format_error_reply(rep));
}

/// Decrements the in-flight cold-place gauge on every exit path,
/// including a throwing pipeline.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::uint64_t>* counter) : counter_(counter) {}
  ~InflightGuard() {
    if (counter_) counter_->fetch_sub(1);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<std::uint64_t>* counter_;
};

}  // namespace

/// Per-connection warmed state. The layout is authoritative as text
/// (`layout_payload`); the netlist and grid are derived and built
/// lazily on the first eco edit, so warm cache hits stay parse-free.
struct Qgdpd::Session {
  bool has_layout{false};
  bool materialized{false};
  std::string layout_payload;  ///< current layout, serialized .qlay
  std::string cache_key;
  double spacing{1.0};  ///< qubit spacing rule for ECO edits
  QuantumNetlist nl;
  std::optional<BinGrid> grid;
};

Qgdpd::Qgdpd(QgdpdOptions opt) : opt_(std::move(opt)), cache_(opt_.cache_entries) {}

Qgdpd::~Qgdpd() { stop(); }

bool Qgdpd::start(std::string* error) {
  // A peer that half-closes mid-reply, or a worker child that dies
  // while we write its request pipe, must surface as EPIPE on that
  // write — never as a process-killing SIGPIPE. Socket sends already
  // use MSG_NOSIGNAL; this covers the pipe writes (and any libc path
  // without the flag).
  std::signal(SIGPIPE, SIG_IGN);
  if (opt_.isolation == Isolation::kFork) {
    WorkerPoolOptions wopt;
    // One slot per admitted cold place; without an in-flight cap, fall
    // back to a small fixed fleet.
    wopt.max_workers = opt_.max_inflight_places > 0 ? opt_.max_inflight_places : 8;
    wopt.limits.max_rss_mb = opt_.worker_max_rss_mb;
    wopt.limits.cpu_s = opt_.worker_cpu_s;
    wopt.limits.wall_timeout_ms = opt_.worker_wall_ms;
    wopt.faults = opt_.faults;
    wopt.verbose = opt_.verbose;
    workers_ = std::make_unique<WorkerPool>(wopt);
  }
  // Durable tier first: a daemon that cannot persist where it was told
  // to should fail loudly at startup, not silently degrade. Corrupt
  // *entries* on the other hand are quarantined, never fatal.
  if (!opt_.cache_dir.empty()) {
    CacheStoreOptions sopt;
    sopt.dir = opt_.cache_dir;
    sopt.write_delay_ms = opt_.cache_write_delay_ms;
    store_ = std::make_unique<CacheStore>(std::move(sopt));
    std::string store_error;
    if (!store_->open(&store_error)) {
      if (error) *error = store_error;
      store_.reset();
      return false;
    }
    for (CacheStoreEntry& e : store_->load()) {
      {
        std::lock_guard<std::mutex> lock(spacing_mutex_);
        spacing_by_key_[e.key] = e.spacing;
      }
      cache_.put(e.key, std::move(e.payload));
    }
    if (opt_.verbose) {
      const CacheStoreStats ss = store_->stats();
      std::cerr << "qgdpd: cache dir " << opt_.cache_dir << ": " << ss.entries_loaded
                << " entries loaded, " << ss.corrupt_quarantined << " quarantined\n";
    }
  }
  auto fail = [&](const std::string& what) {
    if (error) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + opt_.host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  started_ = std::chrono::steady_clock::now();
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (opt_.verbose) {
    std::cerr << "qgdpd: listening on " << opt_.host << ':' << port_ << "\n";
  }
  return true;
}

std::size_t Qgdpd::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

void Qgdpd::accept_loop() {
  // Replies sent from the accept thread (shed / draining) get the
  // frame deadline but no idle deadline — they are single small sends.
  detail::IoPolicy reply_policy;
  reply_policy.frame_timeout_ms = opt_.frame_timeout_ms;
  reply_policy.faults = opt_.faults;
  int backoff_ms = 0;
  for (;;) {
    reap_finished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (shutdown_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EBADF || errno == EINVAL) break;  // listener gone
      // Transient resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM)
      // and anything unexpected: back off with a capped doubling delay
      // instead of killing the accept loop — the daemon must recover
      // on its own once descriptors free up.
      accept_retries_.fetch_add(1);
      backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 1000);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      continue;
    }
    backoff_ms = 0;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    detail::prepare_socket(fd);
    if (shutdown_.load()) {
      (void)detail::send_frame(fd, FrameType::kErrorReply,
                               format_error_reply({StatusCode::kShuttingDown, "draining"}),
                               reply_policy);
      ::close(fd);
      continue;
    }
    std::size_t active;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      active = sessions_.size();
    }
    if (active >= opt_.max_sessions) {
      // Shed, don't queue: one typed frame, then close. The accept
      // thread never blocks on a session slot.
      shed_sessions_.fetch_add(1);
      (void)detail::send_frame(
          fd, FrameType::kErrorReply,
          format_error_reply({StatusCode::kOverloaded,
                              "session cap (" + std::to_string(opt_.max_sessions) +
                                  ") reached; retry with backoff"}),
          reply_policy);
      ::close(fd);
      continue;
    }
    sessions_accepted_.fetch_add(1);
    {
      // Insert-then-spawn under the lock: the session thread's own
      // retire/finish calls serialize behind this critical section,
      // so the registry entry (fd + thread handle) is fully formed
      // before the session can tear it down.
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      const std::uint64_t id = next_session_id_++;
      SessionEntry& entry = sessions_[id];
      entry.fd = fd;
      entry.thread = std::thread([this, id, fd] { serve_session(id, fd); });
    }
  }
}

void Qgdpd::serve_session(std::uint64_t id, int fd) {
  Session session;
  detail::IoPolicy policy;
  policy.idle_timeout_ms = opt_.idle_timeout_ms;
  policy.frame_timeout_ms = opt_.frame_timeout_ms;
  policy.faults = opt_.faults;
  for (;;) {
    detail::ReceivedFrame frame;
    const detail::IoStatus st = detail::recv_frame(fd, &frame, policy);
    if (st != detail::IoStatus::kOk) {
      if (st == detail::IoStatus::kBadFrame) {
        protocol_errors_.fetch_add(1);
        (void)detail::send_frame(fd, FrameType::kErrorReply,
                                 format_error_reply({StatusCode::kBadFrame, "bad frame"}),
                                 policy);
      } else if (st == detail::IoStatus::kTimeout) {
        // Idle eviction or a slowloris mid-frame stall: one typed
        // frame (best effort — the peer may not be reading), then the
        // session ends and its thread is reaped.
        timeouts_.fetch_add(1);
        (void)detail::send_frame(
            fd, FrameType::kErrorReply,
            format_error_reply({StatusCode::kTimeout, "deadline expired; closing session"}),
            policy);
      }
      break;
    }
    bool shutdown = false;
    const std::string reply = handle_frame(session, frame.type, frame.payload, &shutdown);
    if (detail::write_all(fd, reply.data(), reply.size(), policy) != detail::IoStatus::kOk) {
      break;
    }
    if (shutdown) {
      initiate_shutdown();
      break;
    }
    if (shutdown_.load()) break;
  }
  // Unpublish the fd before closing it: once close() returns the
  // kernel may hand the same descriptor number to a new connection,
  // and stop() must never ::shutdown someone else's socket.
  retire_fd(id);
  ::close(fd);
  finish_session(id);
}

void Qgdpd::retire_fd(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) it->second.fd = -1;
}

void Qgdpd::finish_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    reaped_.push_back(std::move(it->second.thread));
    sessions_.erase(it);
  }
  sessions_cv_.notify_all();
}

void Qgdpd::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    done.swap(reaped_);
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

std::string Qgdpd::internal_error_frame(const std::string& message) {
  internal_errors_.fetch_add(1);
  return error_frame(StatusCode::kInternalError, message);
}

std::string Qgdpd::outcome_error_frame(const ErrorReply& error) {
  if (error.status == StatusCode::kInternalError) return internal_error_frame(error.message);
  return error_frame(error.status, error.message);
}

std::string Qgdpd::handle_frame(Session& session, FrameType type, const std::string& payload,
                                bool* shutdown) {
  *shutdown = false;
  try {
    switch (type) {
      case FrameType::kPlaceRequest:
        return handle_place(session, payload);
      case FrameType::kEcoRequest:
        return handle_eco(session, payload);
      case FrameType::kStatsRequest:
        if (!parse_empty_request(payload)) {
          protocol_errors_.fetch_add(1);
          return error_frame(StatusCode::kBadRequest, "stats request must carry an empty payload");
        }
        return handle_stats();
      case FrameType::kShutdownRequest: {
        if (!parse_empty_request(payload)) {
          protocol_errors_.fetch_add(1);
          return error_frame(StatusCode::kBadRequest,
                             "shutdown request must carry an empty payload");
        }
        *shutdown = true;
        // Shutdown acks with a final stats snapshot as its payload.
        const std::string stats = handle_stats();
        return encode_frame(FrameType::kShutdownReply, stats.substr(kFrameHeaderSize));
      }
      default:
        protocol_errors_.fetch_add(1);
        return error_frame(StatusCode::kBadRequest, "unexpected frame type");
    }
  } catch (const std::exception& e) {
    return internal_error_frame(e.what());
  } catch (...) {
    return internal_error_frame("non-exception failure in request handler");
  }
}

std::string Qgdpd::handle_place(Session& session, const std::string& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  served_place_.fetch_add(1);
  const auto req = parse_place_request(payload);
  if (!req) {
    protocol_errors_.fetch_add(1);
    return error_frame(StatusCode::kBadRequest, "unparseable place request");
  }
  if (const ValidationResult vr = validate_place_request(*req); !vr.ok()) {
    validation_rejects_.fetch_add(1);
    return error_frame(vr.status, vr.message);
  }
  BatchJob job;
  if (const ErrorReply err = resolve_place(*req, &job); err.status != StatusCode::kOk) {
    return error_frame(err.status, err.message);
  }
  const std::string cache_key =
      layout_cache_key(job.spec, req->flow, req->seed, options_fingerprint(*req));

  if (req->use_cache) {
    if (auto hit = cache_.get(cache_key)) {
      // Warm path: answer from the cached bytes; the session adopts
      // the layout lazily (no parse unless an eco edit arrives).
      // Warm hits are never shed — they cost microseconds, so the
      // cold-place cap does not apply here.
      PlaceReply rep;
      rep.cached = true;
      rep.cache_key = cache_key;
      rep.qubits = static_cast<std::size_t>(job.spec.qubit_count);
      rep.blocks = qlay_count(*hit, "blocks");
      rep.layout_hash = hex64(fnv1a64(*hit));
      session.has_layout = true;
      session.materialized = false;
      session.grid.reset();
      session.layout_payload = std::move(*hit);
      session.cache_key = cache_key;
      {
        std::lock_guard<std::mutex> lock(spacing_mutex_);
        const auto it = spacing_by_key_.find(cache_key);
        session.spacing = it != spacing_by_key_.end() ? it->second : 1.0;
      }
      if (req->want_layout) rep.layout = session.layout_payload;
      rep.place_ms = ms_since(t0);
      if (opt_.verbose) {
        std::cerr << "qgdpd: place " << req->topology << '/' << req->flow << " hit "
                  << cache_key << " in " << rep.place_ms << " ms\n";
      }
      return encode_frame(FrameType::kPlaceReply, format_place_reply(rep));
    }
  }

  // Cold admission: bound the number of concurrent full-pipeline runs.
  // Excess requests are shed with a typed frame on a live connection —
  // never queued, so a cold burst degrades into fast kOverloaded
  // replies instead of an unbounded pileup.
  std::optional<InflightGuard> inflight;
  if (opt_.max_inflight_places > 0) {
    const std::uint64_t now_inflight = inflight_places_.fetch_add(1) + 1;
    inflight.emplace(&inflight_places_);
    if (now_inflight > opt_.max_inflight_places) {
      shed_places_.fetch_add(1);
      return error_frame(StatusCode::kOverloaded,
                         "cold-place cap (" + std::to_string(opt_.max_inflight_places) +
                             ") reached; retry with backoff");
    }
  }

  // Cold path: the executor runs here or, under fork isolation, in a
  // sandboxed child whose death comes back as a typed 13/14 error. The
  // InflightGuard above releases the admission slot on every path.
  PlaceOutcome out;
  if (workers_) {
    out = workers_->place(*req, cache_key);
  } else {
    try {
      out = execute_place(job);
    } catch (const std::bad_alloc& e) {
      // In-process, running out of memory is a pipeline failure like
      // any other; only a worker child turns it into its typed OOM exit.
      return error_frame(StatusCode::kPlacementFailed, e.what());
    }
  }
  if (out.error.status != StatusCode::kOk) return outcome_error_frame(out.error);
  PlaceReply& rep = out.reply;
  rep.cache_key = cache_key;
  if (req->use_cache) {
    cache_.put(cache_key, out.text);
    {
      std::lock_guard<std::mutex> lock(spacing_mutex_);
      spacing_by_key_[cache_key] = out.spacing;
    }
    // Durable tier: queue an atomic background write — the reply never
    // waits on disk; stop() flushes what is still pending.
    if (store_) store_->enqueue({cache_key, out.spacing, out.text});
  }

  // Wall-budget check sits after the cache fill on purpose: an
  // over-budget place reports kTimeout, but the work is banked — the
  // client's retry lands on the warm path.
  if (opt_.place_budget_ms > 0 && ms_since(t0) > opt_.place_budget_ms) {
    timeouts_.fetch_add(1);
    return error_frame(StatusCode::kTimeout,
                       "place exceeded its wall budget (" +
                           std::to_string(opt_.place_budget_ms) +
                           " ms); result banked in the layout cache");
  }

  // The session keeps the live netlist when the place ran in-process —
  // a follow-up eco edit starts from it, not a reparse. A fork-isolated
  // place hands back text only; the session stays parse-free until an
  // eco edit actually needs the netlist.
  session.has_layout = true;
  session.materialized = out.netlist.has_value();
  if (out.netlist) session.nl = std::move(*out.netlist);
  session.grid.reset();
  session.layout_payload = std::move(out.text);
  session.cache_key = cache_key;
  session.spacing = out.spacing;
  if (req->want_layout) rep.layout = session.layout_payload;
  rep.place_ms = ms_since(t0);
  if (opt_.verbose) {
    std::cerr << "qgdpd: place " << req->topology << '/' << req->flow << " cold " << cache_key
              << " in " << rep.place_ms << " ms\n";
  }
  return encode_frame(FrameType::kPlaceReply, format_place_reply(rep));
}

std::string Qgdpd::handle_eco(Session& session, const std::string& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  served_eco_.fetch_add(1);
  const auto req = parse_eco_request(payload);
  if (!req) {
    protocol_errors_.fetch_add(1);
    return error_frame(StatusCode::kBadRequest, "unparseable eco request");
  }
  // Semantic validation before any session state is touched: NaN/Inf
  // targets and duplicate qubits are rejected here; out-of-range qubit
  // ids and out-of-fabric targets are rejected against the qubit count
  // and die read straight from the layout text — a warm session stays
  // parse-free even for a reject, and the executor only ever sees
  // valid moves.
  if (const ValidationResult vr = validate_eco_request(*req); !vr.ok()) {
    validation_rejects_.fetch_add(1);
    return error_frame(vr.status, vr.message);
  }
  if (!session.has_layout) {
    return error_frame(StatusCode::kNoLayout, "eco before place on this session");
  }
  {
    const std::size_t qubits = session.materialized
                                   ? session.nl.qubit_count()
                                   : qlay_count(session.layout_payload, "qubits");
    ValidationResult vr = validate_eco_qubits(*req, qubits);
    const std::optional<Rect> die = session.materialized
                                        ? std::optional<Rect>(session.nl.die())
                                        : qlay_die(session.layout_payload);
    if (vr.ok() && die) vr = validate_eco_targets_in_fabric(*req, *die, EcoOptions{}.search_radius);
    if (!vr.ok()) {
      validation_rejects_.fetch_add(1);
      return error_frame(vr.status, vr.message);
    }
  }

  // The edit runs here against the session's live netlist, or under
  // fork isolation in a sandboxed child against the layout text (the
  // session then stays text-authoritative and never materializes).
  EcoOutcome out;
  if (workers_) {
    out = workers_->eco(*req, session.layout_payload, session.spacing);
  } else {
    if (!session.materialized) {
      std::istringstream is(session.layout_payload);
      session.nl = read_layout(is);
      session.materialized = true;
    }
    if (!session.grid) session.grid.emplace(IncrementalLegalizer::grid_for(session.nl));
    out = execute_eco(*req, session.nl, *session.grid, session.spacing);
  }
  if (out.error.status != StatusCode::kOk) return outcome_error_frame(out.error);
  EcoReply& rep = out.reply;
  if (!rep.success) {
    rep.layout_hash = hex64(fnv1a64(session.layout_payload));  // unchanged
  } else {
    session.layout_payload = std::move(out.text);
    // An over-budget eco already landed (the session layout is the
    // post-edit state), so the reply stays a typed eco reply — with
    // status kTimeout so a latency-sensitive client knows the budget
    // was blown, and the diagnostics/hash so it knows what it now has.
    if (opt_.place_budget_ms > 0 && ms_since(t0) > opt_.place_budget_ms) {
      timeouts_.fetch_add(1);
      rep.status = StatusCode::kTimeout;
    }
    if (req->want_layout) rep.layout = session.layout_payload;
  }
  rep.eco_ms = ms_since(t0);
  if (opt_.verbose) {
    std::cerr << "qgdpd: eco " << req->moves.size() << " moves, " << rep.replaced_blocks
              << " blocks replaced in " << rep.eco_ms << " ms\n";
  }
  return encode_frame(FrameType::kEcoReply, format_eco_reply(rep));
}

std::string Qgdpd::handle_stats() {
  served_stats_.fetch_add(1);
  StatsReply rep;
  rep.uptime_ms = ms_since(started_);
  rep.sessions = sessions_accepted_.load();
  rep.active_sessions = active_sessions();
  rep.served_place = served_place_.load();
  rep.served_eco = served_eco_.load();
  rep.served_stats = served_stats_.load();
  rep.protocol_errors = protocol_errors_.load();
  rep.internal_errors = internal_errors_.load();
  rep.shed_sessions = shed_sessions_.load();
  rep.shed_places = shed_places_.load();
  rep.timeouts = timeouts_.load();
  rep.accept_retries = accept_retries_.load();
  rep.validation_rejects = validation_rejects_.load();
  if (store_) {
    const CacheStoreStats ss = store_->stats();
    rep.entries_loaded = ss.entries_loaded;
    rep.entries_flushed = ss.entries_flushed;
    rep.corrupt_quarantined = ss.corrupt_quarantined;
  }
  if (workers_) {
    const WorkerPoolCounters wc = workers_->counters();
    rep.worker_crashes = wc.worker_crashes;
    rep.worker_oom_kills = wc.worker_oom_kills;
    rep.worker_timeouts = wc.worker_timeouts;
    rep.workers_recycled = wc.workers_recycled;
  }
  const LayoutCacheStats cs = cache_.stats();
  rep.cache_hits = cs.hits;
  rep.cache_misses = cs.misses;
  rep.cache_insertions = cs.insertions;
  rep.cache_evictions = cs.evictions;
  rep.cache_entries = cs.entries;
  rep.cache_bytes = cs.bytes;
  return encode_frame(FrameType::kStatsReply, format_stats_reply(rep));
}

void Qgdpd::initiate_shutdown() {
  if (shutdown_.exchange(true)) return;
  // Shutting down the listener pops accept() out of its blocking call;
  // the session loops re-check shutdown_ after their current request.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.notify_all();
}

void Qgdpd::wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_.load(); });
  }
  stop();
}

void Qgdpd::stop() {
  if (!running_.exchange(false)) return;
  initiate_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock sessions parked in recv — only via fds still published in
  // the registry (a retired fd may already belong to someone else) —
  // then wait for every session to retire itself.
  {
    std::unique_lock<std::mutex> lock(sessions_mutex_);
    for (auto& [id, entry] : sessions_) {
      (void)id;
      if (entry.fd >= 0) ::shutdown(entry.fd, SHUT_RDWR);
    }
    sessions_cv_.wait(lock, [this] { return sessions_.empty(); });
  }
  reap_finished();
  // Sessions are drained, so every cache fill has been enqueued; drain
  // the writer so a clean shutdown leaves a fully durable cache dir.
  if (store_) store_->stop();
}

}  // namespace qgdp::server
