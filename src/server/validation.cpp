#include "server/validation.h"

#include <cmath>
#include <set>
#include <sstream>

namespace qgdp::server {

namespace {

// Topology/flow names are registry keys, not free text; anything past
// these lengths is hostile input, not a typo.
constexpr std::size_t kMaxNameBytes = 256;
// gp_levels 0 means auto; the multilevel GP never builds more than a
// handful of coarsening levels, so single digits bound honest use.
constexpr int kMaxGpLevels = 8;

}  // namespace

ValidationResult validate_place_request(const PlaceRequest& req) {
  if (req.topology.size() > kMaxNameBytes) {
    return ValidationResult::reject("topology name too long");
  }
  if (req.flow.size() > kMaxNameBytes) {
    return ValidationResult::reject("flow name too long");
  }
  if (req.gp_levels < 0 || req.gp_levels > kMaxGpLevels) {
    std::ostringstream why;
    why << "gp_levels " << req.gp_levels << " out of range [0, " << kMaxGpLevels << "]";
    return ValidationResult::reject(why.str());
  }
  return ValidationResult::accept();
}

ValidationResult validate_eco_request(const EcoRequest& req) {
  std::set<int> targets;
  for (const EcoMove& m : req.moves) {
    if (m.qubit < 0) {
      return ValidationResult::reject("negative qubit id");
    }
    if (!std::isfinite(m.x) || !std::isfinite(m.y)) {
      std::ostringstream why;
      why << "non-finite target for qubit " << m.qubit;
      return ValidationResult::reject(why.str());
    }
    if (!targets.insert(m.qubit).second) {
      std::ostringstream why;
      why << "duplicate move target for qubit " << m.qubit;
      return ValidationResult::reject(why.str());
    }
  }
  return ValidationResult::accept();
}

ValidationResult validate_eco_qubits(const EcoRequest& req, std::size_t qubit_count) {
  for (const EcoMove& m : req.moves) {
    if (static_cast<std::size_t>(m.qubit) >= qubit_count) {
      return ValidationResult::reject("qubit " + std::to_string(m.qubit) + " out of range");
    }
  }
  return ValidationResult::accept();
}

ValidationResult validate_eco_targets_in_fabric(const EcoRequest& req, const Rect& die,
                                                double slack) {
  const Rect fabric{die.lo.x - slack, die.lo.y - slack, die.hi.x + slack, die.hi.y + slack};
  for (const EcoMove& m : req.moves) {
    if (!fabric.contains(Point{m.x, m.y})) {
      std::ostringstream why;
      why << "move target (" << m.x << ", " << m.y << ") for qubit " << m.qubit
          << " outside the fabric";
      return ValidationResult::reject(why.str());
    }
  }
  return ValidationResult::accept();
}

std::optional<Rect> qlay_die(const std::string& qlay_text) {
  std::size_t pos = 0;
  while (pos < qlay_text.size()) {
    std::size_t nl = qlay_text.find('\n', pos);
    if (nl == std::string::npos) nl = qlay_text.size();
    const std::string line = qlay_text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.compare(0, 4, "die ") != 0) continue;
    std::istringstream ss(line.substr(4));
    Rect die;
    ss >> die.lo.x >> die.lo.y >> die.hi.x >> die.hi.y;
    if (ss.fail() || !std::isfinite(die.lo.x) || !std::isfinite(die.lo.y) ||
        !std::isfinite(die.hi.x) || !std::isfinite(die.hi.y)) {
      return std::nullopt;
    }
    return die;
  }
  return std::nullopt;
}

}  // namespace qgdp::server
