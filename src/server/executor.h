// The request executor: what a cold place or an eco edit does to a
// layout, one function per request type.
//
// qgdpd runs every cold place and every eco edit through these
// functions, whether in-process on the session thread or in a forked
// worker child (server/worker_pool.h). Fork isolation is only a
// transport around them: the child decodes the request, calls the same
// function, and encodes its outcome, so the two modes cannot drift.
// Request validation (server/validation.h) happens before either.
#pragma once

#include <optional>
#include <string>

#include "core/incremental.h"
#include "runtime/batch_runner.h"
#include "server/protocol.h"

namespace qgdp::server {

/// A cold place's result. `reply` carries the pipeline fields (qubits,
/// blocks, layout_hash, stage times); `spacing` is the qubit spacing
/// rule later eco edits apply. `netlist` is the live layout, set only
/// when the place ran in this process.
struct PlaceOutcome {
  ErrorReply error{StatusCode::kOk, {}};  ///< kOk unless the place failed
  PlaceReply reply;
  std::string text;  ///< the .qlay layout
  double spacing{0.0};
  std::optional<QuantumNetlist> netlist;
};

/// An eco edit's result. `reply` carries the diagnostics and, when the
/// edit landed, the post-edit layout_hash; an edit that did not land
/// has status kEcoFailed and an empty `text`.
struct EcoOutcome {
  ErrorReply error{StatusCode::kOk, {}};  ///< kOk unless the edit maps to an error frame
  EcoReply reply;
  std::string text;  ///< the post-edit .qlay layout
};

/// Resolves a place request's flow and topology into its pipeline job;
/// kUnknownFlow or kUnknownTopology otherwise.
[[nodiscard]] ErrorReply resolve_place(const PlaceRequest& req, BatchJob* job);

/// Runs the full pipeline for one job and serializes the result. A
/// pipeline exception becomes kPlacementFailed, except std::bad_alloc,
/// which propagates (a worker child turns it into its typed OOM exit).
[[nodiscard]] PlaceOutcome execute_place(const BatchJob& job);

/// Applies the request's moves to `nl` under the `spacing` rule, with
/// `grid` as nl's bin grid. Qubit ids must already be validated against
/// nl. An infeasible moved qubit is kSolverInfeasible.
[[nodiscard]] EcoOutcome execute_eco(const EcoRequest& req, QuantumNetlist& nl, BinGrid& grid,
                                     double spacing);

}  // namespace qgdp::server
