// Semantic request validation — the layer between "the payload
// parsed" and "the daemon touches session state". The wire parsers in
// protocol.h reject unparseable payloads (kBadRequest via nullopt);
// validate_*() rejects payloads that parse fine but would poison the
// pipeline: NaN/Inf coordinates, duplicate move targets, out-of-fabric
// positions, out-of-range knobs. Rejections happen before any session
// or placement state is read, and the daemon counts them in the
// validation_rejects stat.
//
// See docs/ARCHITECTURE.md ("Input-validation boundaries") for the
// full table of which layer rejects what.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "geometry/rect.h"
#include "server/protocol.h"

namespace qgdp::server {

struct ValidationResult {
  StatusCode status{StatusCode::kOk};
  std::string message;  ///< empty on ok; human-readable reason otherwise

  [[nodiscard]] bool ok() const { return status == StatusCode::kOk; }

  static ValidationResult accept() { return {}; }
  static ValidationResult reject(const std::string& why) {
    return {StatusCode::kBadRequest, why};
  }
};

/// Bounds the knobs a place request may carry: topology/flow name
/// length caps (registry lookup happens later and gives its own typed
/// status), gp_levels in [0, 8]. Does not hit the topology registry.
[[nodiscard]] ValidationResult validate_place_request(const PlaceRequest& req);

/// Structural checks on an eco request: finite coordinates, no
/// duplicate qubit targets, non-negative qubit ids. (Move-count bounds
/// are already a parse-level reject.)
[[nodiscard]] ValidationResult validate_eco_request(const EcoRequest& req);

/// Range check: every moved qubit id must name one of the session
/// layout's `qubit_count` qubits.
[[nodiscard]] ValidationResult validate_eco_qubits(const EcoRequest& req,
                                                   std::size_t qubit_count);

/// Fabric check: every move target must land inside the session's die
/// inflated by `slack` (the ECO search radius — a target the solver
/// could never reach is rejected up front instead of burning a solve).
[[nodiscard]] ValidationResult validate_eco_targets_in_fabric(const EcoRequest& req,
                                                              const Rect& die, double slack);

/// Extracts the "die lox loy hix hiy" line from a .qlay text without a
/// full parse — the fabric check needs only the die, and warm sessions
/// keep the layout as text. nullopt if the line is missing/malformed.
[[nodiscard]] std::optional<Rect> qlay_die(const std::string& qlay_text);

}  // namespace qgdp::server
