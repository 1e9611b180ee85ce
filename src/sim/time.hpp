// Time representation for the dcnsim discrete-event simulator.
//
// All simulation time is an integer count of nanoseconds (TimeNs). Using a
// 64-bit integer rather than floating point keeps event ordering exact and
// runs reproducible: two events scheduled for the same instant compare equal
// and are broken by insertion order, never by rounding noise.
#pragma once

#include <cstdint>

namespace pmsb::sim {

/// Simulation time in nanoseconds since the start of the run.
using TimeNs = std::int64_t;

/// Sentinel for "no deadline" / "never".
inline constexpr TimeNs kTimeNever = INT64_MAX;

inline constexpr TimeNs nanoseconds(std::int64_t v) { return v; }
inline constexpr TimeNs microseconds(std::int64_t v) { return v * 1'000; }
inline constexpr TimeNs milliseconds(std::int64_t v) { return v * 1'000'000; }
inline constexpr TimeNs seconds(std::int64_t v) { return v * 1'000'000'000; }

/// The largest microsecond value that microseconds_f converts to a TimeNs:
/// times 1e3 it rounds to 2^63 - 2048 ns, and the next double up rounds past
/// INT64_MAX.
inline constexpr double kMaxMicrosecondsF = 9'223'372'036'854'774.0;

/// Converts a (possibly fractional) microsecond value to TimeNs.
inline constexpr TimeNs microseconds_f(double v) {
  return static_cast<TimeNs>(v * 1e3);
}

/// Converts a (possibly fractional) second value to TimeNs.
inline constexpr TimeNs seconds_f(double v) {
  return static_cast<TimeNs>(v * 1e9);
}

inline constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) * 1e-9; }
inline constexpr double to_microseconds(TimeNs t) { return static_cast<double>(t) * 1e-3; }
inline constexpr double to_milliseconds(TimeNs t) { return static_cast<double>(t) * 1e-6; }

}  // namespace pmsb::sim
