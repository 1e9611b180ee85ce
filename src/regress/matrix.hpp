// The pinned scenario matrix the regression plane records and checks.
//
// Cells are chosen to be FAST (the whole matrix runs in seconds) while still
// crossing the subsystems that matter for determinism: both topologies, DCTCP
// and the per-queue/TCN marking variants, enqueue vs dequeue marking, an SP
// scheduler, fault-plane cells (bleach; loss plus jittered delay) so the
// digest covers the fault path too, and the flow lifetimes of a deadline RPC
// workload and a two-stage coflow workload. Names are stable identifiers —
// baselines key cells by name, so renaming a cell orphans its baseline entry.
#pragma once

#include <string>
#include <vector>

#include "experiments/options.hpp"

namespace pmsb::regress {

struct RegressCell {
  std::string name;
  experiments::Options opts;
};

/// The default matrix (see header comment). Deterministic order.
[[nodiscard]] std::vector<RegressCell> default_matrix();

/// Subset of the default matrix by comma-separated cell names; empty `names`
/// returns the full matrix. Throws std::invalid_argument on unknown names.
[[nodiscard]] std::vector<RegressCell> select_cells(const std::string& names);

}  // namespace pmsb::regress
