// Scripted failure timelines for a simulated fabric.
//
// A FaultPlan turns a compact option string into timed fault events wired
// into a scenario's links. The grammar (clauses joined by ';'):
//
//   link:A-B:down@T1..T2     both directions of the A<->B link go down at T1
//                            and come back at T2 (omit T2 for "forever");
//                            packets in flight on a downed link are dropped
//                            and counted
//   loss:A->B:P              unidirectional random loss with probability P
//   delay:A->B:D[+J]         unidirectional extra delay D with uniform
//                            jitter in [0, J) (reorders when J is large)
//   bleach:A:P               every CE-marked packet leaving node A has its
//                            mark cleared with probability P (ECN bleaching)
//
// Node names are the scenario's (h0, leaf0, spine1, sender0, switch, ...);
// either side of '->' may be '*' (or empty) to match every node. Durations
// accept ns/us/ms/s suffixes (bare numbers are ns).
//
// install() interposes one plan-owned FaultInjector per matching directed
// link (Link::set_destination) and schedules the flap timeline on the
// Simulator. The plan must outlive the run; the injectors' counters feed
// the telemetry registry and the conservation invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_injector.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::faults {

/// A directed link of the scenario topology, named by its endpoints.
/// Scenarios expose one per Link so the fault plane can match clauses
/// against the fabric ("leaf0" -> "spine1").
struct LinkRef {
  std::string src;
  std::string dst;
  net::Link* link = nullptr;
};

/// One parsed fault clause.
struct FaultSpec {
  enum class Kind : std::uint8_t { kLinkFlap, kLoss, kDelay, kBleach };

  Kind kind = Kind::kLoss;
  std::string a;  ///< source endpoint; "*" matches every node
  std::string b;  ///< destination endpoint (flap: the other side of the pair)
  double probability = 0.0;          ///< loss / bleach
  sim::TimeNs down_at = 0;           ///< flap: link goes down
  sim::TimeNs up_at = sim::kTimeNever;  ///< flap: link comes back (kTimeNever = stays down)
  sim::TimeNs delay = 0;             ///< delay: fixed component
  sim::TimeNs jitter = 0;            ///< delay: uniform jitter bound
};

/// Parses the full `faults=` option string; throws std::invalid_argument
/// with the offending clause on malformed input.
[[nodiscard]] std::vector<FaultSpec> parse_fault_spec(const std::string& spec);

class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  void add(const FaultSpec& spec) { specs_.push_back(spec); }
  /// Parses `spec` and adds every clause.
  void add_spec_string(const std::string& spec);

  [[nodiscard]] bool empty() const { return specs_.empty(); }

  /// Interposes injectors on every link a spec matches and schedules the
  /// flap timeline. Call exactly once, after the topology is built and
  /// before the run. Throws std::invalid_argument if a spec matches no
  /// link (a typo would otherwise silently run the healthy fabric) or on a
  /// second call.
  void install(sim::Simulator& simulator, const std::vector<LinkRef>& links,
               std::uint64_t seed = 0xfa17);

  [[nodiscard]] std::size_t num_points() const { return points_.size(); }

  /// The injector interposed on src->dst, or nullptr (for tests).
  [[nodiscard]] net::FaultInjector* point_between(const std::string& src,
                                                  const std::string& dst);

  // --- Aggregates over every interposed injector ---
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::uint64_t bleached() const;
  [[nodiscard]] std::uint64_t forwarded() const;
  [[nodiscard]] std::uint64_t delayed_in_flight() const;

  /// Registers every injector's instruments, labelled `link=<src>-><dst>`.
  void bind_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  struct Point {
    std::string src;
    std::string dst;
    std::unique_ptr<net::FaultInjector> node;
  };

  Point& ensure_point(sim::Simulator& simulator, const LinkRef& ref,
                      std::uint64_t seed);

  std::vector<FaultSpec> specs_;
  std::vector<std::unique_ptr<Point>> points_;
  bool installed_ = false;
};

}  // namespace pmsb::faults
