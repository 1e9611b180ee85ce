// Deterministic crash injection for testing the sweep supervisor.
//
// The CellSupervisor exists to contain cells that die in ways a C++ catch
// block never sees — SIGSEGV, address-space exhaustion, a callback wedged in
// an infinite loop. Proving that containment works needs a way to produce
// exactly those deaths on demand, in a named cell, deterministically. This
// hook is that way, and it is TEST-ONLY: it does nothing unless the
// PMSB_CRASH_AT environment variable is set, which no production sweep sets.
//
//   PMSB_CRASH_AT=<cell>:<mode>[@<attempt>][,<cell>:<mode>[@<attempt>]...]
//
//   mode  := segv | oom | hang | throw
//     segv   raise(SIGSEGV) — the uncatchable crash class
//     oom    allocate-and-touch until std::bad_alloc (pair with the
//            supervisor's cell_mem_mb address-space cap)
//     hang   spin forever without yielding — the cell_timeout_s blind spot:
//            no event is ever dispatched again, so the in-process watchdog
//            tick can never run; only the supervisor's hard kill helps
//     throw  throw std::runtime_error — the deterministic failure class the
//            retry policy must NOT retry
//
// The optional @<attempt> suffix restricts the crash to one attempt number
// (1-based), which is how tests build transient faults: "0:segv@1" crashes
// cell 0 on its first attempt and lets the retry succeed. The current
// attempt is read from PMSB_CRASH_ATTEMPT, which the supervisor exports in
// each forked child; outside the supervisor it defaults to 1.
#pragma once

#include <cstddef>

namespace pmsb::sweep {

/// Called at the top of run_scenario with the cell's grid index. No-op
/// unless PMSB_CRASH_AT names this cell (and, with @N, this attempt).
void maybe_inject_crash(std::size_t cell_index);

}  // namespace pmsb::sweep
