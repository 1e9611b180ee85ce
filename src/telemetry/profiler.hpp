// Per-event-kind kernel profiler with scoped component timers.
//
// A Profiler answers the question end-to-end timings cannot: WHERE do the
// events/second go? It plugs into the kernel as a
// sim::DispatchHook (wall-clock + sim-time-delta histogram per dispatch,
// schedule/cancel churn) and into components as named RAII scopes
// (ProfileScope) whose self-time excludes nested scopes, so "port.handle"
// and the "sched.*.dequeue" it calls are attributed separately.
//
// Cost contract: everything is OFF by default and costs exactly one null
// check per instrumented call site (packet observers pay the same through
// an empty tap list).
// A component holds a `Profiler*` (nullptr when off) plus KindIds interned
// once at set_profiler() time — the hot path never touches a string.
//
// Output is a `pmsb.profile/1` JSON document (to_json), spliced verbatim
// into run manifests (`RunManifest::set_profile_json`) and written
// standalone by `profile_json=`. Keys are emitted in sorted order at every
// nesting level, so the document byte-stably round-trips through
// telemetry::json — the property the regression tests pin down.
//
// Schema (`pmsb.profile/1`):
//   {
//     "kernel": {
//       "dispatch_wall_ns": W, "dispatches": N,
//       "events_cancelled": N, "events_scheduled": N,
//       "max_heap_depth": N, "packet_ids_allocated": N,
//       "sim_delta_ns": {"buckets": [{"count": N, "le": bound|"inf"}, ...],
//                        "count": N, "sum": S}
//     },
//     "schema": "pmsb.profile/1",
//     "scopes": [ {"count": N, "name": "...", "self_wall_ns": S,
//                  "total_wall_ns": T}, ... ]   // sorted by name
//   }
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::telemetry {

class Profiler final : public sim::DispatchHook {
 public:
  /// Handle for an interned scope kind; hot paths pass these, never strings.
  using KindId = std::uint32_t;

  Profiler();
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Returns the id for `name`, creating it on first use. Call once per
  /// component at wiring time (set_profiler), not on the packet path.
  [[nodiscard]] KindId intern(const std::string& name);

  /// Installs this profiler as `simulator`'s dispatch hook and remembers the
  /// kernel for the heap-depth / packet-id snapshot in to_json(). Detaches
  /// automatically on destruction (the simulator must still be alive then —
  /// declare the profiler after the scenario that owns the kernel).
  void attach(sim::Simulator& simulator);
  void detach();

  // --- Scope timing (driven by ProfileScope) ---
  void scope_begin(KindId kind);
  void scope_end();

  // --- sim::DispatchHook ---
  void begin_dispatch(sim::TimeNs now, sim::TimeNs delta) override;
  void end_dispatch() override;
  void on_schedule() override { ++events_scheduled_; }
  void on_cancel() override { ++events_cancelled_; }

  // --- Introspection (tests / report glue) ---
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  [[nodiscard]] std::uint64_t dispatch_wall_ns() const { return dispatch_wall_ns_; }
  [[nodiscard]] std::uint64_t events_scheduled() const { return events_scheduled_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return events_cancelled_; }
  [[nodiscard]] const Histogram& sim_delta_ns() const { return sim_delta_ns_; }
  [[nodiscard]] std::size_t num_kinds() const { return kinds_.size(); }
  [[nodiscard]] std::uint64_t count(KindId kind) const { return kinds_.at(kind).count; }
  [[nodiscard]] std::uint64_t self_wall_ns(KindId kind) const {
    return kinds_.at(kind).self_wall_ns;
  }
  [[nodiscard]] std::uint64_t total_wall_ns(KindId kind) const {
    return kinds_.at(kind).total_wall_ns;
  }
  [[nodiscard]] const std::string& kind_name(KindId kind) const {
    return kinds_.at(kind).name;
  }

  /// Serializes the `pmsb.profile/1` document (see header comment).
  [[nodiscard]] std::string to_json() const;

 private:
  struct KindStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t self_wall_ns = 0;   ///< elapsed minus nested scopes
    std::uint64_t total_wall_ns = 0;  ///< elapsed including nested scopes
  };
  struct ScopeFrame {
    KindId kind = 0;
    std::int64_t start_ns = 0;
    std::uint64_t child_ns = 0;  ///< wall-ns consumed by nested scopes
  };

  sim::Simulator* sim_ = nullptr;
  std::vector<KindStats> kinds_;
  std::map<std::string, KindId> kind_index_;
  std::vector<ScopeFrame> stack_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t dispatch_wall_ns_ = 0;
  std::int64_t dispatch_start_ns_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_cancelled_ = 0;
  Histogram sim_delta_ns_;
};

/// RAII scope timer. No-op (a single branch) when `profiler` is null, so
/// instrumented hot paths keep the zero-cost-when-off contract.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, Profiler::KindId kind) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->scope_begin(kind);
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->scope_end();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace pmsb::telemetry
