// The run guard: stall, runaway and wall-clock detection for simulation runs.
//
// A Watchdog ticks once per kTickPeriod (faults/invariants.hpp) of
// simulated time. Each tick trips when
//   - the executed-event count exceeds `max_events` (an event explosion:
//     e.g. a retransmit storm or a scheduling loop),
//   - a progress counter (typically total bytes acked across all flows) has
//     not advanced for `stall_horizon` of simulation time while work is
//     still outstanding (a stalled run: e.g. a link that never came back up
//     and a transport with no retransmission path), or
//   - `wall_budget_s` host seconds have passed since start() (a cell that
//     burns host time: an event storm that advances simulated time slowly,
//     a scheme parameterization that makes every packet expensive).
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
  /// Trip once this many host seconds have passed since start().
  /// <= 0 disables the budget.
  double wall_budget_s = 0.0;
};

class Watchdog {
 public:
  /// `progress` returns a monotone measure of useful work (bytes acked);
  /// `done` returns true when the run has legitimately finished (so an
  /// idle tail after completion is not a stall). `forensics` (optional)
  /// contributes extra lines to the trip diagnostic.
  Watchdog(sim::Simulator& simulator, WatchdogConfig config,
           std::function<std::uint64_t()> progress, std::function<bool()> done,
           std::function<std::string()> forensics = {});
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the wall clock and begins periodic sampling. Like the invariant
  /// checker, the tick stops rescheduling when the event queue is otherwise
  /// empty.
  void start();

  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  void tick();
  /// Throws the forensic diagnostic for `reason`.
  [[noreturn]] void trip(const std::string& reason) const;

  sim::Simulator& sim_;
  WatchdogConfig config_;
  std::function<std::uint64_t()> progress_;
  std::function<bool()> done_;
  std::function<std::string()> forensics_;

  std::uint64_t last_progress_ = 0;
  sim::TimeNs last_advance_ = 0;
  std::chrono::steady_clock::time_point start_wall_;
  std::uint64_t samples_ = 0;
  bool started_ = false;
};

}  // namespace pmsb::faults
