#include "server/worker_pool.h"

#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <new>
#include <sstream>
#include <thread>

#include "core/incremental.h"
#include "io/serialization.h"
#include "netlist/topologies.h"
#include "runtime/thread_pool.h"
#include "server/cache_store.h"

namespace qgdp::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Scans the header section (lines before the first blank line) for
/// "key value"; empty string when absent. The worker-only headers
/// (w_key, w_fault) ride in front of the regular protocol payload,
/// whose parsers ignore unknown keys.
[[nodiscard]] std::string header_value(const std::string& payload, const std::string& key) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) eol = payload.size();
    if (eol == pos) break;  // blank line: headers end
    const std::string line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      return line.substr(key.size() + 1);
    }
  }
  return {};
}

/// Everything after the first blank line, verbatim.
[[nodiscard]] std::string payload_body(const std::string& payload) {
  const std::size_t pos = payload.find("\n\n");
  return pos == std::string::npos ? std::string{} : payload.substr(pos + 2);
}

/// `.qlc` codec instance for the pipe hand-off. Never open()ed — only
/// encode_entry/decode_entry are used, which are pure functions of the
/// default fingerprint.
[[nodiscard]] const CacheStore& pipe_codec() {
  static CacheStore codec{CacheStoreOptions{}};
  return codec;
}

// ---- child side ------------------------------------------------------

/// Current VM size in bytes from /proc/self/statm; 0 on failure.
[[nodiscard]] std::size_t current_vm_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long pages = 0;
  const int got = std::fscanf(f, "%llu", &pages);
  std::fclose(f);
  if (got != 1) return 0;
  return static_cast<std::size_t>(pages) * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

void apply_limits(const WorkerLimits& limits) {
  // Never dump core: a crashing worker is an expected event, not a
  // forensics request, and cores at placement sizes are huge.
  rlimit core{0, 0};
  ::setrlimit(RLIMIT_CORE, &core);
  if (limits.max_rss_mb > 0) {
    // RLIMIT_RSS is a no-op on Linux; cap the address space instead.
    // The limit bounds *growth over the inherited image* — the fork
    // already maps the parent's code, pool stacks, and (under ASan)
    // the shadow region, so a raw cap would kill the child at mmap 0.
    const std::size_t cap = limits.max_rss_mb << 20;
    const std::size_t base = current_vm_bytes();
    rlimit as{};
    as.rlim_cur = as.rlim_max = static_cast<rlim_t>(base + cap);
    ::setrlimit(RLIMIT_AS, &as);
  }
  if (limits.cpu_s > 0) {
    // SIGXCPU (terminate) at the soft limit; hard SIGKILL one second
    // later if the child somehow survives it.
    rlimit cpu{};
    cpu.rlim_cur = static_cast<rlim_t>(limits.cpu_s);
    cpu.rlim_max = static_cast<rlim_t>(limits.cpu_s + 1);
    ::setrlimit(RLIMIT_CPU, &cpu);
  }
}

/// Closes every descriptor the child inherited except its own pipe
/// ends and the std streams, so a sibling worker's pipes never stay
/// open here (that would delay the parent's EOF-based crash detection
/// of the sibling until this child also exits).
void close_inherited_fds(int keep_a, int keep_b) {
  long max_fd = ::sysconf(_SC_OPEN_MAX);
  if (max_fd <= 0 || max_fd > 65536) max_fd = 65536;
  for (int fd = 3; fd < static_cast<int>(max_fd); ++fd) {
    if (fd == keep_a || fd == keep_b) continue;
    ::close(fd);
  }
}

/// Blocking exact read in the child (the parent writes the whole
/// request, then only reads). False on EOF/error.
[[nodiscard]] bool child_read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r > 0) {
      p += r;
      n -= static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

[[nodiscard]] bool child_write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Applies an injected fault directive. The directives fire *after*
/// the request is fully read, so the parent's request write never
/// blocks against a pre-fault child.
void apply_fault_directive(const std::string& fault, const WorkerLimits& limits) {
  if (fault.empty() || fault == "none") return;
  if (fault == "crash") {
    // Reset to the default disposition first: sanitizers install
    // their own SIGSEGV handlers, and the supervisor classifies by
    // termination signal.
    std::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
    ::_exit(detail::kWorkerExitOom + 1);  // unreachable
  }
  if (fault == "oom") {
    // Allocate (and touch) until the RLIMIT_AS governor fails an
    // allocation; convert to the typed OOM exit. Without a cap there
    // is nothing to breach — exit as OOM directly rather than eating
    // the machine.
    if (limits.max_rss_mb == 0) ::_exit(detail::kWorkerExitOom);
    std::vector<char*> blocks;
    try {
      for (;;) {
        char* b = new char[1 << 20];
        std::memset(b, 0x5A, 1 << 20);
        blocks.push_back(b);
      }
    } catch (const std::bad_alloc&) {
      ::_exit(detail::kWorkerExitOom);
    }
  }
  if (fault == "hang") {
    // Sleep forever (no CPU burned, so RLIMIT_CPU never fires); the
    // supervisor's wall deadline SIGKILLs us.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
  if (fault == "exit1") ::_exit(1);  // test-only: plain nonzero exit
}

[[noreturn]] void child_reply_and_exit(int reply_fd, FrameType type, const std::string& payload) {
  const std::string frame = encode_frame(type, payload);
  (void)child_write_all(reply_fd, frame.data(), frame.size());
  ::_exit(detail::kWorkerExitOk);
}

[[noreturn]] void child_error_and_exit(int reply_fd, const ErrorReply& error) {
  child_reply_and_exit(reply_fd, FrameType::kErrorReply, format_error_reply(error));
}

// The child is a transport around the executor: decode the request,
// run the same function the in-process path runs, encode the outcome.
// A std::bad_alloc anywhere propagates to worker_child_main's OOM exit.

[[noreturn]] void child_place(int reply_fd, const std::string& payload) {
  const auto req = parse_place_request(payload);
  if (!req) child_error_and_exit(reply_fd, {StatusCode::kBadRequest, "unparseable worker place"});
  BatchJob job;
  if (const ErrorReply err = resolve_place(*req, &job); err.status != StatusCode::kOk) {
    child_error_and_exit(reply_fd, err);
  }
  const PlaceOutcome out = execute_place(job);
  if (out.error.status != StatusCode::kOk) child_error_and_exit(reply_fd, out.error);
  PlaceReply rep = out.reply;
  rep.cache_key = header_value(payload, "w_key");
  // The layout crosses the pipe as a checksummed .qlc entry, never as
  // raw text: a child dying mid-write leaves a torn body the parent
  // rejects by checksum instead of banking.
  rep.layout = pipe_codec().encode_entry({rep.cache_key, out.spacing, out.text});
  child_reply_and_exit(reply_fd, FrameType::kPlaceReply, format_place_reply(rep));
}

[[noreturn]] void child_eco(int reply_fd, const std::string& payload) {
  const auto req = parse_eco_request(payload);
  if (!req) child_error_and_exit(reply_fd, {StatusCode::kBadRequest, "unparseable worker eco"});
  CacheStoreEntry state;
  if (!pipe_codec().decode_entry(payload_body(payload), header_value(payload, "w_key"), &state)) {
    child_error_and_exit(reply_fd, {StatusCode::kBadRequest, "torn warm-state hand-off"});
  }
  std::istringstream is(state.payload);
  QuantumNetlist nl = read_layout(is);
  BinGrid grid = IncrementalLegalizer::grid_for(nl);
  EcoOutcome out = execute_eco(*req, nl, grid, state.spacing);
  if (out.error.status != StatusCode::kOk) child_error_and_exit(reply_fd, out.error);
  if (out.reply.success) {
    // Keyed by its own content hash (announced in layout_hash) so the
    // parent can decode_entry with a checksum check.
    out.reply.layout = pipe_codec().encode_entry({out.reply.layout_hash, state.spacing, out.text});
  }
  child_reply_and_exit(reply_fd, FrameType::kEcoReply, format_eco_reply(out.reply));
}

/// The typed error a worker run ended in: the supervisor's 13/14, or
/// the error frame the child replied with. kOk when the child replied
/// with an `expect` frame.
[[nodiscard]] ErrorReply worker_error(const WorkerResult& w, FrameType expect) {
  if (w.status != StatusCode::kOk) return {w.status, w.message};
  if (w.reply_type == expect) return {StatusCode::kOk, {}};
  if (w.reply_type == FrameType::kErrorReply) {
    if (auto err = parse_error_reply(w.reply_payload)) return *err;
  }
  return {StatusCode::kInternalError, "unparseable worker reply"};
}

// ---- parent-side pipe I/O -------------------------------------------

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Poll-driven write with a deadline; tolerates a child that dies
/// before draining the request (EPIPE — SIGPIPE is ignored
/// process-wide). False on error/timeout: the supervisor then learns
/// the truth from the reply pipe and waitpid.
[[nodiscard]] bool parent_write_all(int fd, const std::string& bytes, Clock::time_point deadline,
                                    bool has_deadline) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int timeout_ms = -1;
      if (has_deadline) {
        const double left = std::chrono::duration<double, std::milli>(deadline - Clock::now())
                                .count();
        if (left <= 0) return false;
        timeout_ms = static_cast<int>(left) + 1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0 && errno != EINTR) return false;
      if (pr == 0) return false;  // deadline
      continue;
    }
    return false;  // EPIPE or hard error
  }
  return true;
}

}  // namespace

namespace detail {

void worker_child_main(int request_fd, int reply_fd, const WorkerLimits& limits) {
  // Serial execution first: nothing below may touch the shared pool a
  // multi-threaded parent forked us out of.
  set_serial_execution(true);
  std::signal(SIGPIPE, SIG_IGN);
  close_inherited_fds(request_fd, reply_fd);
  apply_limits(limits);

  unsigned char header[kFrameHeaderSize];
  if (!child_read_exact(request_fd, header, kFrameHeaderSize)) ::_exit(2);
  const auto fh = decode_frame_header(header);
  if (!fh) ::_exit(2);
  std::string payload(fh->length, '\0');
  if (fh->length > 0 && !child_read_exact(request_fd, payload.data(), payload.size())) ::_exit(2);
  ::close(request_fd);

  apply_fault_directive(header_value(payload, "w_fault"), limits);

  // Nothing may escape the child: an exception unwinding past this
  // frame would re-enter the forked copy of the parent's stack (the
  // daemon loop, a test harness) with undefined results. bad_alloc
  // anywhere — parsing, topology construction, reply encoding, not
  // just the solve — is the typed OOM exit; anything else is a
  // best-effort error reply.
  try {
    switch (fh->type) {
      case FrameType::kPlaceRequest:
        child_place(reply_fd, payload);
      case FrameType::kEcoRequest:
        child_eco(reply_fd, payload);
      default:
        child_error_and_exit(reply_fd, {StatusCode::kBadRequest, "unexpected worker frame type"});
    }
  } catch (const std::bad_alloc&) {
    ::_exit(kWorkerExitOom);
  } catch (const std::exception& e) {
    child_error_and_exit(reply_fd, {StatusCode::kInternalError, e.what()});
  } catch (...) {
    ::_exit(2);
  }
}

}  // namespace detail

// ---- supervisor ------------------------------------------------------

/// One forked worker as the parent sees it.
struct WorkerPool::Child {
  pid_t pid{-1};
  int reply_fd{-1};
  Clock::time_point forked_at;
  std::string buf;  ///< reply bytes read so far
};

WorkerPool::WorkerPool(WorkerPoolOptions opt) : opt_(std::move(opt)) {
  if (opt_.max_workers == 0) opt_.max_workers = 1;
  // Pipe writes to a dead child must surface as EPIPE, not kill the
  // process. qgdpd installs this too; standalone users of the pool
  // (tests, tools) get it here.
  std::signal(SIGPIPE, SIG_IGN);
  // Touch the topology registry once so no child can be forked while
  // another thread is mid-way through its first lazy initialization
  // (the child would inherit a held magic-static guard).
  (void)topology_catalog();
}

WorkerPool::~WorkerPool() {
  // run() owns every child from fork to waitpid, so by the time the
  // pool is destroyed (daemon drained, no in-flight requests) there is
  // nothing left to reap.
}

std::string WorkerPool::fault_directive() {
  if (!opt_.test_fault_directive.empty()) return opt_.test_fault_directive;
  if (opt_.faults) {
    switch (opt_.faults->next_worker()) {
      case FaultInjector::Action::kCrashChild: return "crash";
      case FaultInjector::Action::kOomChild: return "oom";
      case FaultInjector::Action::kHangChild: return "hang";
      default: break;
    }
  }
  return "none";
}

bool WorkerPool::decode_layout_entry(const std::string& body, const std::string& expect_key,
                                     std::string* layout, double* spacing) {
  CacheStoreEntry entry;
  if (!pipe_codec().decode_entry(body, expect_key, &entry)) return false;
  if (layout) *layout = std::move(entry.payload);
  if (spacing) *spacing = entry.spacing;
  return true;
}

void WorkerPool::acquire_slot() {
  std::unique_lock<std::mutex> lock(slots_mutex_);
  slots_cv_.wait(lock, [&] { return active_workers_ < opt_.max_workers; });
  ++active_workers_;
}

void WorkerPool::release_slot() {
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    --active_workers_;
  }
  slots_cv_.notify_one();
}

bool WorkerPool::spawn(const std::string& request_payload, FrameType request_type, Child* child) {
  int req_pipe[2] = {-1, -1};
  int rep_pipe[2] = {-1, -1};
  if (::pipe(req_pipe) != 0) return false;
  if (::pipe(rep_pipe) != 0) {
    ::close(req_pipe[0]);
    ::close(req_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {req_pipe[0], req_pipe[1], rep_pipe[0], rep_pipe[1]}) ::close(fd);
    return false;
  }
  if (pid == 0) {
    ::close(req_pipe[1]);
    ::close(rep_pipe[0]);
    detail::worker_child_main(req_pipe[0], rep_pipe[1], opt_.limits);
  }
  ::close(req_pipe[0]);
  ::close(rep_pipe[1]);
  child->pid = pid;
  child->reply_fd = rep_pipe[0];
  child->forked_at = Clock::now();
  set_nonblocking(req_pipe[1]);
  set_nonblocking(child->reply_fd);

  const bool has_deadline = opt_.limits.wall_timeout_ms > 0;
  const Clock::time_point deadline =
      child->forked_at + std::chrono::milliseconds(opt_.limits.wall_timeout_ms);
  const std::string frame = encode_frame(request_type, request_payload);
  // A failed hand-off is not fatal here: the child will see EOF or a
  // torn frame, exit, and the supervise loop classifies it.
  (void)parent_write_all(req_pipe[1], frame, deadline, has_deadline);
  ::close(req_pipe[1]);
  return true;
}

PlaceOutcome WorkerPool::place(const PlaceRequest& req, const std::string& cache_key) {
  WorkerResult w = run_place(req, cache_key);
  PlaceOutcome out;
  out.error = worker_error(w, FrameType::kPlaceReply);
  if (out.error.status == StatusCode::kOk) {
    out.reply = *parse_place_reply(w.reply_payload);  // run_place validated it
    out.reply.layout.clear();  // the child's body is the .qlc entry, not a .qlay
    out.text = std::move(w.layout);
    out.spacing = w.spacing;
  }
  return out;
}

EcoOutcome WorkerPool::eco(const EcoRequest& req, const std::string& layout_payload,
                           double spacing) {
  WorkerResult w = run_eco(req, layout_payload, spacing);
  EcoOutcome out;
  out.error = worker_error(w, FrameType::kEcoReply);
  if (out.error.status == StatusCode::kOk) {
    out.reply = *parse_eco_reply(w.reply_payload);  // run_eco validated it
    out.reply.layout.clear();
    out.text = std::move(w.layout);
  }
  return out;
}

WorkerResult WorkerPool::run_place(const PlaceRequest& req, const std::string& cache_key,
                                   std::size_t /*qubits*/) {
  std::ostringstream os;
  os << "w_key " << cache_key << "\nw_fault " << fault_directive() << '\n'
     << format_place_request(req);
  WorkerResult res = run(os.str(), FrameType::kPlaceRequest);
  if (res.status == StatusCode::kOk && res.reply_type == FrameType::kPlaceReply) {
    // Validate the hand-off before anyone banks it: the layout rides
    // in a checksummed .qlc entry keyed by the cache key.
    const auto rep = parse_place_reply(res.reply_payload);
    if (!rep || !decode_layout_entry(rep->layout, cache_key, &res.layout, &res.spacing)) {
      worker_crashes_.fetch_add(1);
      res.status = StatusCode::kWorkerCrashed;
      res.message = "worker place reply failed its checksum";
      res.reply_payload.clear();
    }
  }
  return res;
}

WorkerResult WorkerPool::run_eco(const EcoRequest& req, const std::string& layout_payload,
                                 double spacing, std::size_t /*qubits*/) {
  const std::string state_key = hex64(fnv1a64(layout_payload));
  std::ostringstream os;
  os << "w_key " << state_key << "\nw_fault " << fault_directive() << '\n'
     << format_eco_request(req)
     << pipe_codec().encode_entry({state_key, spacing, layout_payload});
  WorkerResult res = run(os.str(), FrameType::kEcoRequest);
  if (res.status == StatusCode::kOk && res.reply_type == FrameType::kEcoReply) {
    const auto rep = parse_eco_reply(res.reply_payload);
    if (!rep) {
      worker_crashes_.fetch_add(1);
      res.status = StatusCode::kWorkerCrashed;
      res.message = "worker eco reply failed to parse";
      res.reply_payload.clear();
    } else if (rep->success) {
      // A landed edit carries the post-edit layout keyed by its own
      // content hash (announced in layout_hash).
      if (!decode_layout_entry(rep->layout, rep->layout_hash, &res.layout, &res.spacing)) {
        worker_crashes_.fetch_add(1);
        res.status = StatusCode::kWorkerCrashed;
        res.message = "worker eco reply failed its checksum";
        res.reply_payload.clear();
      }
    }
  }
  return res;
}

void WorkerPool::classify_failure(int wait_status, bool deadline_killed,
                                  WorkerResult* result) {
  auto fail = [&](std::atomic<std::uint64_t>& counter, StatusCode code, std::string message) {
    counter.fetch_add(1);
    result->status = code;
    result->message = std::move(message);
  };
  const int st = wait_status;
  if (deadline_killed) {
    fail(worker_timeouts_, StatusCode::kResourceExhausted,
         "worker exceeded its wall deadline (" + std::to_string(opt_.limits.wall_timeout_ms) +
             " ms) and was killed");
  } else if (WIFEXITED(st) && WEXITSTATUS(st) == detail::kWorkerExitOom) {
    fail(worker_oom_kills_, StatusCode::kResourceExhausted,
         "worker hit its memory cap (" + std::to_string(opt_.limits.max_rss_mb) + " MB)");
  } else if (WIFEXITED(st) && WEXITSTATUS(st) == detail::kWorkerExitOk) {
    fail(worker_crashes_, StatusCode::kWorkerCrashed, "worker replied with a garbled frame");
  } else if (WIFEXITED(st)) {
    fail(worker_crashes_, StatusCode::kWorkerCrashed,
         "worker exited with code " + std::to_string(WEXITSTATUS(st)) + " before replying");
  } else if (WIFSIGNALED(st) && WTERMSIG(st) == SIGXCPU) {
    fail(worker_timeouts_, StatusCode::kResourceExhausted,
         "worker hit its CPU cap (" + std::to_string(opt_.limits.cpu_s) + " s)");
  } else if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
    // Our own SIGKILL lands only after the reply stream ended; an
    // earlier, unsolicited one is the kernel OOM killer.
    fail(worker_oom_kills_, StatusCode::kResourceExhausted, "worker was OOM-killed");
  } else if (WIFSIGNALED(st)) {
    fail(worker_crashes_, StatusCode::kWorkerCrashed,
         std::string("worker killed by ") + strsignal(WTERMSIG(st)));
  } else {
    fail(worker_crashes_, StatusCode::kWorkerCrashed, "worker ended in an unrecognized state");
  }
  workers_recycled_.fetch_add(1);
  if (opt_.verbose) {
    std::cerr << "worker_pool: " << to_string(result->status) << ": " << result->message << "\n";
  }
}

WorkerResult WorkerPool::run(const std::string& request_payload, FrameType request_type) {
  WorkerResult result;
  acquire_slot();
  Child child;
  if (!spawn(request_payload, request_type, &child)) {
    release_slot();
    worker_crashes_.fetch_add(1);
    workers_recycled_.fetch_add(1);
    result.status = StatusCode::kWorkerCrashed;
    result.message = std::string("cannot fork worker: ") + std::strerror(errno);
    return result;
  }
  launched_.fetch_add(1);

  // Read the reply frame under the wall deadline, until a complete
  // frame arrives, the stream ends (EOF, read error or a garbled
  // header), or the deadline passes.
  const bool has_wall = opt_.limits.wall_timeout_ms > 0;
  bool frame_done = false;
  bool stream_ended = false;
  while (!frame_done && !stream_ended) {
    int wait_ms = -1;
    if (has_wall) {
      const double left = opt_.limits.wall_timeout_ms - ms_since(child.forked_at);
      if (left <= 0.0) break;
      wait_ms = static_cast<int>(left) + 1;
    }
    pollfd pfd{child.reply_fd, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) <= 0) continue;  // timeout or EINTR: re-check the deadline
    char chunk[4096];
    for (;;) {
      const ssize_t r = ::read(child.reply_fd, chunk, sizeof(chunk));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;  // drained for now
      if (r <= 0) {
        stream_ended = true;
        break;
      }
      child.buf.append(chunk, static_cast<std::size_t>(r));
      if (child.buf.size() < kFrameHeaderSize) continue;
      const auto fh = decode_frame_header(reinterpret_cast<const unsigned char*>(child.buf.data()));
      if (!fh) {
        stream_ended = true;
        break;
      }
      if (child.buf.size() >= kFrameHeaderSize + fh->length) {
        result.reply_type = fh->type;
        result.reply_payload = child.buf.substr(kFrameHeaderSize, fh->length);
        frame_done = true;
        break;
      }
    }
  }

  // Every path reaps the child exactly once. After a complete frame it
  // is a straggler about to _exit(); otherwise it is dead already, or
  // hung past its deadline, or garbling, and the kill settles it.
  ::close(child.reply_fd);
  ::kill(child.pid, SIGKILL);
  int st = 0;
  (void)::waitpid(child.pid, &st, 0);
  if (frame_done) {
    completed_ok_.fetch_add(1);
  } else {
    classify_failure(st, /*deadline_killed=*/!stream_ended, &result);
  }
  release_slot();
  return result;
}

WorkerPoolCounters WorkerPool::counters() const {
  WorkerPoolCounters c;
  c.launched = launched_.load();
  c.completed_ok = completed_ok_.load();
  c.worker_crashes = worker_crashes_.load();
  c.worker_oom_kills = worker_oom_kills_.load();
  c.worker_timeouts = worker_timeouts_.load();
  c.workers_recycled = workers_recycled_.load();
  return c;
}

}  // namespace qgdp::server
