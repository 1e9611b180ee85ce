// Process-isolated execution of one sweep cell.
//
// run_scenario() contains a cell failure only when it is a C++ exception: a
// SIGSEGV, an OOM kill, a stack overflow, or a callback wedged in an
// infinite loop takes down the whole pmsbsim process and every in-flight
// cell with it. The CellSupervisor closes that gap: with `isolate=1` each
// cell runs in a forked child under resource caps (RLIMIT_AS from
// `cell_mem_mb=`, a hard wall-clock kill from `cell_timeout_s=` enforced by
// the PARENT, so it fires even when the child never dispatches another
// event), results come back through the cell's record file, and any
// abnormal exit is classified into a structured diagnostic instead of a
// dead sweep.
//
// Exit classes:
//   ok       the child completed and wrote its record
//   throw    a C++ exception — deterministic, never retried
//   signal   the child died on a signal (SIGSEGV, SIGABRT, ...)
//   timeout  the in-child watchdog's wall budget ran out (exit code 4) or
//            the parent had to hard-kill past it
//   oom      std::bad_alloc under the address-space cap (exit code 3), or a
//            SIGKILL with rusage evidence of hitting the cap
//
// signal/timeout/oom are the transient ("crash") classes the retry policy
// may re-attempt; `throw` is deterministic and quarantines immediately.
//
// Child exit-code protocol (chosen to dodge 0/1/2, which scenario code and
// shells already use): 0 ok, 2 throw, 3 oom, 4 timeout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "sweep/sweep.hpp"

namespace pmsb::sweep {

enum class ExitClass { kOk, kThrow, kSignal, kTimeout, kOom };

/// Stable lowercase name ("ok", "throw", "signal", "timeout", "oom") used in
/// reports and cell records.
[[nodiscard]] const char* exit_class_name(ExitClass c);

/// True for the crash classes the retry policy may re-attempt (signal,
/// timeout, oom). `throw` is deterministic: re-running the same Options
/// reproduces it, so retrying only burns the budget.
[[nodiscard]] bool exit_class_retryable(ExitClass c);

/// Resource caps applied to the forked child. Zero disables a cap.
struct CellLimits {
  double wall_s = 0.0;      ///< hard wall-clock kill (cell_timeout_s)
  std::size_t mem_mb = 0;   ///< RLIMIT_AS in MiB (cell_mem_mb)
};

/// The largest `cell_mem_mb=` whose byte count fits RLIMIT_AS: one more
/// MiB would wrap the cap to nearly nothing.
inline constexpr std::uint64_t kMaxCellMemMb = std::numeric_limits<std::uint64_t>::max() >> 20;

/// What happened to one child attempt.
struct CellOutcome {
  ExitClass exit_class = ExitClass::kOk;
  int exit_code = 0;      ///< child exit status (when it exited)
  int exit_signal = 0;    ///< terminating signal (when it was killed)
  bool hard_killed = false;  ///< the parent SIGKILLed past the wall budget
  double peak_rss_bytes = 0.0;  ///< child ru_maxrss
  double wall_ms = 0.0;
  std::string error;      ///< diagnostic; empty iff exit_class == kOk
};

/// Forks and runs run_scenario(point, quiet=true) in the child under
/// `limits`, then waits, classifies, and returns. On success the child
/// writes the cell's record at `record_path` (none when empty), which the
/// caller reads back on kOk; on a thrown exception the child ships e.what()
/// back over a pipe so the parent's diagnostic carries the exact message.
/// `attempt` (1-based) is exported to the child as PMSB_CRASH_ATTEMPT so the
/// crash-injection hook can build transient faults.
///
/// The hard kill triggers at wall_s * 1.25 + 0.5s: the in-child watchdog
/// gets first shot at a deterministic [cell_timeout] diagnostic, the parent
/// only steps in when the child is too wedged to run its own tick.
[[nodiscard]] CellOutcome run_cell_in_child(const SweepPoint& point,
                                            const CellLimits& limits, int attempt,
                                            const std::string& record_path);

/// "SIGSEGV" / "SIGKILL" / ... for the common fatal signals, "signal <n>"
/// otherwise.
[[nodiscard]] std::string signal_name(int sig);

}  // namespace pmsb::sweep
