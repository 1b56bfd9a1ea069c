#include "server/executor.h"

#include <exception>
#include <new>
#include <sstream>
#include <vector>

#include "io/serialization.h"
#include "netlist/topologies.h"

namespace qgdp::server {

namespace {

[[nodiscard]] std::string write_text(const QuantumNetlist& nl) {
  std::ostringstream qlay;
  write_layout(nl, qlay);
  return qlay.str();
}

}  // namespace

ErrorReply resolve_place(const PlaceRequest& req, BatchJob* job) {
  const auto kind = flow_by_name(req.flow);
  if (!kind) return {StatusCode::kUnknownFlow, req.flow};
  const auto spec = topology_by_name(req.topology);
  if (!spec) return {StatusCode::kUnknownTopology, req.topology};
  job->spec = *spec;
  job->kind = *kind;
  job->gp_seed = req.seed;
  job->gp_levels = req.gp_levels;
  job->run_detailed = req.run_detailed;
  return {StatusCode::kOk, {}};
}

PlaceOutcome execute_place(const BatchJob& job) {
  PlaceOutcome out;
  BatchResult res;
  try {
    res = run_batch_job(job);
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& e) {
    out.error = {StatusCode::kPlacementFailed, e.what()};
    return out;
  }
  out.text = write_text(res.netlist);
  out.spacing = quantum_flow(job.kind) ? res.stats.qubit.spacing_used : 0.0;
  out.reply.qubits = static_cast<std::size_t>(job.spec.qubit_count);
  out.reply.blocks = res.netlist.block_count();
  out.reply.layout_hash = hex64(fnv1a64(out.text));
  out.reply.gp_ms = res.stats.gp_ms;
  out.reply.qubit_ms = res.stats.qubit_ms;
  out.reply.resonator_ms = res.stats.resonator_ms;
  out.reply.dp_ms = res.stats.dp_ms;
  out.netlist = std::move(res.netlist);
  return out;
}

EcoOutcome execute_eco(const EcoRequest& req, QuantumNetlist& nl, BinGrid& grid,
                       double spacing) {
  std::vector<QubitMove> moves;
  moves.reserve(req.moves.size());
  for (const EcoMove& m : req.moves) moves.push_back({m.qubit, Point{m.x, m.y}});
  EcoOptions eopt;
  eopt.min_spacing = spacing;
  eopt.policy = req.policy == "baa" ? EcoOptions::BlockPolicy::kBaa
                                    : EcoOptions::BlockPolicy::kAbacusWindow;
  const EcoResult res = IncrementalLegalizer(eopt).move_qubits(nl, grid, moves);

  EcoOutcome out;
  EcoReply& rep = out.reply;
  rep.success = res.success;
  rep.ripped_blocks = res.ripped_blocks;
  rep.replaced_blocks = res.replaced_blocks;
  rep.edges_touched = res.edges_touched;
  rep.window_violations = res.window_violations;
  rep.grid_bins_touched = res.grid_bins_touched;
  rep.window_growths = res.window_growths;
  rep.window[0] = res.dirty_window.lo.x;
  rep.window[1] = res.dirty_window.lo.y;
  rep.window[2] = res.dirty_window.hi.x;
  rep.window[3] = res.dirty_window.hi.y;
  if (!res.success) {
    // An infeasible moved qubit is an error frame, not an eco reply:
    // the move never landed, and a client gating only on `success`
    // must not mistake the unchanged layout for a serviced edit.
    if (res.failure == EcoResult::Failure::kQubitInfeasible) {
      out.error = {StatusCode::kSolverInfeasible,
                   "no legal spot for a moved qubit within the search radius"};
    }
    rep.status = StatusCode::kEcoFailed;
    return out;
  }
  out.text = write_text(nl);
  rep.layout_hash = hex64(fnv1a64(out.text));
  return out;
}

}  // namespace qgdp::server
