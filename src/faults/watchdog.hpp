// The run guard: the one periodic tick of a simulation run.
//
// A Watchdog owns one sim::Timer that fires once per kTickPeriod of
// simulated time. Each tick first runs the invariant checker's tick, when
// the run has a checker (faults/invariants.hpp), and then trips when
//   - the executed-event count exceeds `max_events` (an event explosion:
//     e.g. a retransmit storm or a scheduling loop),
//   - a progress counter (typically total bytes acked across all flows) has
//     not advanced for `stall_horizon` of simulation time while work is
//     still outstanding (a stalled run: e.g. a link that never came back up
//     and a transport with no retransmission path), or
//   - `wall_budget_s` host seconds have passed since construction (a cell
//     that burns host time: an event storm that advances simulated time
//     slowly, a scheme parameterization that makes every packet expensive).
// Every trip throws out of Simulator::run(), so no part of the run goes on
// past it. A stall or event-budget trip throws std::runtime_error carrying
// a forensic diagnostic (entity, time, counters, heap stats); a wall-budget
// trip throws WallBudgetExceeded, which a sweep classifies as a timeout. A
// sweep worker catches either and fails only that cell.
//
// The blind spot: the tick is itself a simulation event. A storm of events
// at one instant never reaches the next tick, and a single callback that
// never *returns* (an infinite loop inside one event, a deadlocked wait)
// starves the event loop, so in-process the cell wedges forever. The
// sweep's `isolate=1` mode closes this: the CellSupervisor parent enforces
// the same `cell_timeout_s` budget from outside the process and hard-kills
// the child.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::faults {

class InvariantChecker;

/// The sim-time cadence of the run guard's tick.
inline constexpr sim::TimeNs kTickPeriod = sim::microseconds(100);

/// Thrown from the event loop when a Watchdog's wall budget runs out.
/// what() carries the diagnostic (limit, phase, simulated time, executed
/// events).
struct WallBudgetExceeded : std::runtime_error {
  WallBudgetExceeded(const std::string& what, double elapsed)
      : std::runtime_error(what), elapsed_s(elapsed) {}

  double elapsed_s;  ///< measured wall seconds when the budget ran out
};

struct WatchdogConfig {
  /// Trip if progress() is flat for this long while done() is false.
  /// <= 0 disables stall detection.
  sim::TimeNs stall_horizon = 0;
  /// Trip when the simulator has executed more events than this.
  /// 0 disables the budget.
  std::uint64_t max_events = 0;
  /// Trip once this many host seconds have passed since construction.
  /// <= 0 disables the budget.
  double wall_budget_s = 0.0;
};

class Watchdog {
 public:
  /// Starts the wall clock and arms the first tick at now() + kTickPeriod.
  /// `checker` (may be null) is ticked first at every tick and must outlive
  /// the guard. `progress` returns a monotone measure of useful work (bytes
  /// acked) and `done` returns true when the run has legitimately finished
  /// (so an idle tail after completion is not a stall); both are read only
  /// under a stall horizon, which requires them. `forensics` (optional)
  /// contributes extra lines to the trip diagnostic.
  Watchdog(sim::Simulator& simulator, InvariantChecker* checker,
           WatchdogConfig config = {}, std::function<std::uint64_t()> progress = {},
           std::function<bool()> done = {},
           std::function<std::string()> forensics = {});
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  void tick();
  /// Throws the forensic diagnostic for `reason`.
  [[noreturn]] void trip(const std::string& reason) const;

  sim::Simulator& sim_;
  InvariantChecker* checker_;
  WatchdogConfig config_;
  std::function<std::uint64_t()> progress_;
  std::function<bool()> done_;
  std::function<std::string()> forensics_;

  std::uint64_t last_progress_ = 0;
  sim::TimeNs last_advance_ = 0;
  std::chrono::steady_clock::time_point start_wall_;
  std::uint64_t samples_ = 0;
  sim::Timer tick_;  ///< runs tick()
};

}  // namespace pmsb::faults
