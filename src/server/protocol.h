// qgdpd wire protocol: length-prefixed frames over a byte stream.
//
// Every message is one frame:
//
//   offset  size  field
//   0       2     magic 'Q' 'D'
//   2       1     protocol version (kProtocolVersion)
//   3       1     frame type (FrameType)
//   4       4     payload length, unsigned 32-bit big-endian
//   8       n     payload
//
// Payloads are line-oriented text: "key value\n" header lines, a blank
// line, then an optional free-form body (a `.qlay` layout for place
// and eco replies). Requests carry a status-free header set; replies
// lead with "status <code>" so clients can gate on StatusCode::kOk.
// The codec here is socket-independent — encode/decode work on
// strings/buffers, so the framing is unit-testable without a daemon —
// and both qgdpd and QgdpdClient are thin I/O loops around it.
//
// See docs/SERVING.md for the full request/response reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace qgdp::server {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 8;
/// Upper bound on a frame payload; larger lengths are a bad frame.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;
/// Upper bound on the qubit edits carried by one eco request.
inline constexpr std::size_t kMaxEcoMoves = 64;

enum class FrameType : std::uint8_t {
  kPlaceRequest = 0x01,
  kEcoRequest = 0x02,
  kStatsRequest = 0x03,
  kShutdownRequest = 0x04,
  kPlaceReply = 0x81,
  kEcoReply = 0x82,
  kStatsReply = 0x83,
  kShutdownReply = 0x84,
  kErrorReply = 0xEE,
};

enum class StatusCode : int {
  kOk = 0,
  kBadFrame = 1,         ///< magic/version/length violation
  kBadRequest = 2,       ///< unparseable or out-of-range payload
  kUnknownTopology = 3,  ///< name not in the topology registry
  kUnknownFlow = 4,      ///< flow string not a LegalizerKind
  kPlacementFailed = 5,  ///< pipeline threw / audit failed
  kEcoFailed = 6,        ///< ECO could not repair the dirty window
  kNoLayout = 7,         ///< eco before any place on this session
  kShuttingDown = 8,     ///< daemon is draining
  kInternalError = 9,
  /// The edit itself is over-constrained: no legal spot exists for a
  /// moved qubit within the search radius, so the solver would have to
  /// serve an infeasible (or silently unmoved) layout. Carried in an
  /// error frame, unlike kEcoFailed's typed eco reply: there is no
  /// meaningful dirty-window diagnostics payload for a move that never
  /// landed.
  kSolverInfeasible = 10,
  /// Admission control shed the request instead of queueing it: the
  /// daemon is at its concurrent-session cap (shed at accept, then the
  /// connection is closed) or at its in-flight cold-place cap (shed
  /// per request; the connection stays open). Retryable.
  kOverloaded = 11,
  /// A deadline expired: the peer stalled mid-frame or between
  /// requests (connection is closed after this frame), or a place
  /// exceeded the per-request wall budget (the result was still
  /// banked in the layout cache, so a retry is warm). Retryable.
  kTimeout = 12,
  /// A fork-isolated worker died abnormally (signal, nonzero exit, or
  /// a garbled reply) before producing a result. The daemon itself is
  /// unharmed — the blast radius is this one request — and the
  /// crashed slot has been recycled, so a retry runs on a fresh
  /// worker. Retryable.
  kWorkerCrashed = 13,
  /// A fork-isolated worker hit its resource governor: RLIMIT_AS
  /// (allocation failure at the RSS cap), RLIMIT_CPU (SIGXCPU /
  /// SIGKILL), or the supervisor's wall deadline (hang → SIGKILL).
  /// Retryable — a smaller request or a less-loaded replica may fit.
  kResourceExhausted = 14,
};

[[nodiscard]] std::string to_string(StatusCode code);

/// The client retry contract: true for transient conditions a
/// well-behaved client should retry with backoff (kOverloaded,
/// kTimeout, kShuttingDown, kWorkerCrashed, kResourceExhausted —
/// another replica or a fresh worker may be healthy); false for
/// request or state errors a retry cannot fix.
[[nodiscard]] bool is_retryable(StatusCode code);

// ---- framing ---------------------------------------------------------

struct FrameHeader {
  FrameType type{FrameType::kErrorReply};
  std::uint32_t length{0};
};

/// Serializes a complete frame (header + payload).
[[nodiscard]] std::string encode_frame(FrameType type, const std::string& payload);

/// Validates and decodes the 8 header bytes; nullopt on bad magic,
/// version mismatch, unknown type, or oversized length.
[[nodiscard]] std::optional<FrameHeader> decode_frame_header(
    const unsigned char header[kFrameHeaderSize]);

// ---- requests --------------------------------------------------------

struct PlaceRequest {
  std::string topology;      ///< topology_by_name() key, e.g. "heavyhex-23x39"
  std::string flow{"qgdp"};  ///< flow_by_name() key
  unsigned seed{1};
  bool run_detailed{false};  ///< DP stage (qgdp flow only)
  int gp_levels{0};          ///< 0 = auto
  bool use_cache{true};      ///< consult/fill the layout cache
  bool want_layout{true};    ///< include the .qlay body in the reply
};

struct EcoMove {
  int qubit{-1};
  double x{0.0};
  double y{0.0};
};

struct EcoRequest {
  std::vector<EcoMove> moves;
  std::string policy{"abacus"};  ///< "abacus" (live clump stacks) or "baa"
  bool want_layout{false};
};

[[nodiscard]] std::string format_place_request(const PlaceRequest& req);
[[nodiscard]] std::optional<PlaceRequest> parse_place_request(const std::string& payload);

[[nodiscard]] std::string format_eco_request(const EcoRequest& req);
[[nodiscard]] std::optional<EcoRequest> parse_eco_request(const std::string& payload);

/// The canonical payload of a body-less request (stats, shutdown): an
/// empty header set, i.e. exactly one blank line. parse returns false
/// for anything else — the daemon answers kBadRequest rather than
/// silently ignoring a malformed payload.
[[nodiscard]] std::string format_empty_request();
[[nodiscard]] bool parse_empty_request(const std::string& payload);

// ---- replies ---------------------------------------------------------

struct PlaceReply {
  StatusCode status{StatusCode::kOk};
  bool cached{false};          ///< layout came from the content cache
  std::string cache_key;       ///< content-addressed key (hex64)
  std::string layout_hash;     ///< fnv1a64 of the .qlay text (hex64)
  std::size_t qubits{0};
  std::size_t blocks{0};
  double place_ms{0.0};        ///< end-to-end server-side time
  double gp_ms{0.0};
  double qubit_ms{0.0};
  double resonator_ms{0.0};
  double dp_ms{0.0};
  std::string layout;          ///< .qlay body (empty unless requested)
};

struct EcoReply {
  StatusCode status{StatusCode::kOk};
  bool success{false};
  int ripped_blocks{0};
  int replaced_blocks{0};
  int edges_touched{0};
  int window_violations{0};
  int grid_bins_touched{0};
  int window_growths{0};
  double window[4]{0.0, 0.0, 0.0, 0.0};  ///< dirty window lo.x lo.y hi.x hi.y
  double eco_ms{0.0};
  std::string layout_hash;  ///< fnv1a64 of the post-edit .qlay (hex64)
  std::string layout;       ///< .qlay body (empty unless requested)
};

struct StatsReply {
  StatusCode status{StatusCode::kOk};
  double uptime_ms{0.0};
  std::uint64_t sessions{0};       ///< connections accepted so far
  std::uint64_t active_sessions{0};  ///< sessions currently registered
  std::uint64_t served_place{0};
  std::uint64_t served_eco{0};
  std::uint64_t served_stats{0};
  std::uint64_t protocol_errors{0};
  std::uint64_t internal_errors{0};  ///< kInternalError frames emitted
  std::uint64_t shed_sessions{0};    ///< connections shed at the session cap
  std::uint64_t shed_places{0};      ///< cold places shed at the in-flight cap
  std::uint64_t timeouts{0};         ///< deadline evictions + budget expiries
  std::uint64_t accept_retries{0};   ///< transient accept errors survived
  std::uint64_t validation_rejects{0};  ///< requests rejected by validate_*()
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t cache_insertions{0};
  std::uint64_t cache_evictions{0};
  std::size_t cache_entries{0};
  std::size_t cache_bytes{0};
  // Durable tier (zero when the daemon runs without --cache-dir).
  std::uint64_t entries_loaded{0};       ///< disk entries accepted at startup
  std::uint64_t entries_flushed{0};      ///< entries durably written to disk
  std::uint64_t corrupt_quarantined{0};  ///< bad files quarantined, never fatal
  // Worker tier (zero when the daemon runs with --isolation=none).
  std::uint64_t worker_crashes{0};    ///< signal / nonzero-exit / garbled reply
  std::uint64_t worker_oom_kills{0};  ///< RLIMIT_AS breaches (code 14)
  std::uint64_t worker_timeouts{0};   ///< wall-deadline / RLIMIT_CPU kills
  std::uint64_t hedges_launched{0};   ///< retired with hedged execution; always 0
  std::uint64_t hedge_wins{0};        ///< retired with hedged execution; always 0
  std::uint64_t workers_recycled{0};  ///< crashed slots replaced with fresh ones
};

struct ErrorReply {
  StatusCode status{StatusCode::kInternalError};
  std::string message;
};

[[nodiscard]] std::string format_place_reply(const PlaceReply& rep);
[[nodiscard]] std::optional<PlaceReply> parse_place_reply(const std::string& payload);

[[nodiscard]] std::string format_eco_reply(const EcoReply& rep);
[[nodiscard]] std::optional<EcoReply> parse_eco_reply(const std::string& payload);

[[nodiscard]] std::string format_stats_reply(const StatsReply& rep);
[[nodiscard]] std::optional<StatsReply> parse_stats_reply(const std::string& payload);

[[nodiscard]] std::string format_error_reply(const ErrorReply& rep);
[[nodiscard]] std::optional<ErrorReply> parse_error_reply(const std::string& payload);

// ---- shared helpers --------------------------------------------------

/// Flow registry shared by the daemon, client tool, and bench:
/// qgdp · q-abacus · q-tetris · abacus · tetris.
[[nodiscard]] std::optional<LegalizerKind> flow_by_name(const std::string& name);

/// FNV-1a 64-bit hash — the content-addressing primitive for cache
/// keys and layout fingerprints.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size);
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);

/// Lower-case 16-digit hex rendering of a 64-bit hash.
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace qgdp::server
