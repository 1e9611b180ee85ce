// Runtime invariant checking for simulation runs.
//
// An InvariantChecker holds named predicate checks over live simulation
// state and evaluates them at every tick of the run guard (faults::Watchdog,
// once per kTickPeriod of simulated time), plus once on demand via
// check_now. Checks are read-only observers: they may inspect any entity but
// must not mutate it, so enabling the checker never changes a run's
// packet-level behaviour.
//
// A failing check reports a structured Violation (check name, entity,
// simulation time, human-readable counter detail) instead of asserting, so
// a sweep cell can fail in isolation with a diagnostic while sibling cells
// keep running. The standard fabric checks (conservation ledger, per-port
// byte accounting, CE-vs-data sanity, flow liveness) live in
// faults/standard_checks.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::faults {

/// One invariant failure, with enough context to debug it post-mortem.
struct Violation {
  std::string check;    ///< name of the failing check
  std::string entity;   ///< entity it concerns ("spine0 port 2", "flow 7")
  sim::TimeNs time = 0; ///< simulation time of detection
  std::string detail;   ///< counter values / expected-vs-actual text

  [[nodiscard]] std::string to_string() const;
};

class InvariantChecker {
 public:
  /// Handed to each check; call violate() for every failure found.
  class Context {
   public:
    /// `check` is the check's registered name; it must outlive the context.
    Context(InvariantChecker& owner, const std::string& check)
        : owner_(owner), check_(check) {}

    void violate(const std::string& entity, const std::string& detail);

   private:
    InvariantChecker& owner_;
    const std::string& check_;
  };

  using Check = std::function<void(Context&)>;

  explicit InvariantChecker(sim::Simulator& simulator) : sim_(simulator) {}
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void add_check(std::string name, Check check) {
    checks_.push_back({std::move(name), std::move(check)});
  }

  /// Runs every check once at the current simulation time.
  void check_now();

  /// One periodic evaluation, run by the guard's tick event. It counts an
  /// evaluation without running the checks when no other event has run and
  /// no packet id was handed out since the last evaluation, and the last
  /// run of the checks found nothing: the state they read has not changed.
  void tick();

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] bool clean() const { return violations_.empty(); }

  /// Every violation, including those past the kMaxRecorded stored ones.
  [[nodiscard]] std::uint64_t total_violations() const { return total_violations_; }

  /// First-N violations joined for exception messages / forensic dumps.
  [[nodiscard]] std::string summary(std::size_t max_lines = 8) const;

  /// Exposes evaluation and violation counts as probe instruments.
  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  /// Stored violations are capped: a systemically broken invariant would
  /// otherwise flood memory. total_violations() keeps counting.
  static constexpr std::size_t kMaxRecorded = 64;

  struct NamedCheck {
    std::string name;
    Check fn;
  };

  void record(Violation v);
  /// Runs every check and notes the kernel position it saw.
  void walk();

  friend class Context;

  sim::Simulator& sim_;
  std::vector<NamedCheck> checks_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t evaluations_ = 0;
  // The kernel's event count and last packet id at the last evaluation, and
  // whether the next tick may skip its walk: the last walk found nothing
  // and no check_now() came since.
  std::uint64_t events_at_eval_ = 0;
  std::uint64_t packet_ids_at_eval_ = 0;
  bool may_skip_ = false;
};

}  // namespace pmsb::faults
