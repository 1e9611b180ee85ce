// Executes one scenario described by an Options set (the same key=value
// vocabulary as tools/pmsbsim.cpp: topology=dumbbell|leafspine, scheme=,
// scheduler=, load=, seed=, ...).
//
// Every call builds a fresh scenario — its own Simulator (and with it the
// run's packet-id allocator), Rng, telemetry registry — so concurrent calls
// on different threads are independent and a given Options set always
// produces the same RunRecord. This is the unit of work the sweep runner
// fans out, and also what pmsbsim runs for a single (non-sweep) invocation.
#pragma once

#include "sweep/sweep.hpp"

namespace pmsb::regress {
class RunDigest;
}

namespace pmsb::sweep {

/// Runs the scenario `point.opts` describes and returns its record. With
/// quiet=false the run also prints the human-readable tables pmsbsim shows.
/// Honors `metrics_json=` (pmsb.run_manifest/1) and, when quiet, ignores
/// console-only keys. `cell_timeout_s=` gives the run's faults::Watchdog a
/// wall-clock budget; running out throws faults::WallBudgetExceeded, and any
/// other watchdog trip throws std::runtime_error. Throws
/// std::invalid_argument on unknown topology / scheme / malformed options.
///
/// `digest=1` in the options computes a run digest internally and reports
/// it in info["digest"] / results["digest.events"].
[[nodiscard]] RunRecord run_scenario(const SweepPoint& point, bool quiet);

/// As above, but feeds the run's canonical events into an EXTERNAL `digest`
/// (which must be fresh — entities are registered per run). The regression
/// plane uses this form so it can inspect sub-digests, checkpoints, and the
/// windowed journal after the run. Pass nullptr for the plain behavior.
[[nodiscard]] RunRecord run_scenario(const SweepPoint& point, bool quiet,
                                     regress::RunDigest* digest);

}  // namespace pmsb::sweep
