// Fault injection for tests and robustness experiments.
//
// A FaultInjector wraps any Node and perturbs the packet stream headed to
// it: link-down blackholing, probabilistic or counted drops, ECN bleaching
// (clearing CE marks in flight, the classic broken-middlebox failure), fixed
// extra delay, and random jitter (which reorders packets). Point a Link at
// the injector instead of the real node to create a faulty path segment.
// The fault plane (src/faults/) owns one injector per interposed link and
// drives these knobs from a scripted timeline; tests also use them directly.
//
// Packets pass through in their store nodes: bleaching clears the CE bit in
// the node, a drop gives the node back to the store, and the delay stage
// moves the node into its event's closure.
//
// Lifetime: delayed deliveries are scheduled on the simulator and route back
// through the injector, guarded by a shared liveness token. Destroying the
// injector (or detach()ing the inner node) while deliveries are pending is
// safe — the orphaned events become no-ops instead of dereferencing a dead
// node, and their packets' nodes go back to the store with the closures.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::net {

class FaultInjector : public Node {
 public:
  /// Per-effect counters. `dropped()` below aggregates the drop cells; the
  /// individual cells back the telemetry instruments bind_metrics registers.
  struct Counters {
    std::uint64_t forwarded = 0;        ///< packets delivered to the inner node
    std::uint64_t dropped_counted = 0;  ///< drop_next() deterministic drops
    std::uint64_t dropped_loss = 0;     ///< probabilistic loss drops
    std::uint64_t dropped_down = 0;     ///< blackholed while down / detached
    std::uint64_t bleached = 0;         ///< CE marks cleared in flight
    std::uint64_t delayed_in_flight = 0;  ///< packets inside the delay stage
  };

  FaultInjector(sim::Simulator& simulator, Node* inner,
                std::uint64_t seed = 0x5eed, std::string name = "")
      : Node(name.empty()
                 ? "fault(" +
                       (inner != nullptr ? inner->name() : std::string("detached")) +
                       ")"
                 : std::move(name)),
        sim_(simulator), inner_(inner), rng_(seed),
        alive_(std::make_shared<char>(0)) {}

  /// Takes the link down (drop everything, counted) or back up.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const { return down_; }

  /// Drops each packet independently with probability `p`.
  void set_drop_rate(double p) { drop_rate_ = p; }

  /// Clears the CE mark of each CE-carrying packet with probability `p`
  /// (ECN bleaching). The packet itself is still delivered.
  void set_bleach_rate(double p) { bleach_rate_ = p; }

  /// Deterministically drops the next `n` packets (counted drops win over
  /// the probabilistic setting).
  void drop_next(std::uint64_t n) { drop_next_ += n; }

  /// Adds `fixed` delay plus uniform jitter in [0, jitter) to every packet.
  /// Jitter larger than a packet's serialization gap reorders the stream.
  void set_extra_delay(sim::TimeNs fixed, sim::TimeNs jitter = 0) {
    delay_fixed_ = fixed;
    delay_jitter_ = jitter;
  }

  /// Disconnects the inner node; subsequent deliveries are blackholed
  /// (counted as dropped_down). Call when the inner node's lifetime ends
  /// before the injector's.
  void detach() { inner_ = nullptr; }

  void receive(PacketNodePtr node) override {
    if (down_ || inner_ == nullptr) {
      ++counters_.dropped_down;
      return;
    }
    if (drop_next_ > 0) {
      --drop_next_;
      ++counters_.dropped_counted;
      return;
    }
    if (drop_rate_ > 0.0 && rng_.uniform() < drop_rate_) {
      ++counters_.dropped_loss;
      return;
    }
    if (node->pkt.ce && bleach_rate_ > 0.0 && rng_.uniform() < bleach_rate_) {
      node->pkt.ce = false;
      ++counters_.bleached;
    }
    if (delay_fixed_ == 0 && delay_jitter_ == 0) {
      deliver(std::move(node));
      return;
    }
    sim::TimeNs delay = delay_fixed_;
    if (delay_jitter_ > 0) delay += rng_.uniform_int(0, delay_jitter_ - 1);
    ++counters_.delayed_in_flight;
    // The callback routes back through this injector, guarded by the
    // liveness token: if the injector is destroyed before the delay stage
    // drains, the event fires as a no-op instead of dereferencing inner_.
    // The closure (32 bytes) owns the node, so it stays inline in the event.
    sim_.schedule_in(delay, [w = std::weak_ptr<char>(alive_), this,
                             held = std::move(node)]() mutable {
      if (w.expired()) return;
      --counters_.delayed_in_flight;
      if (down_ || inner_ == nullptr) {
        ++counters_.dropped_down;
        return;
      }
      deliver(std::move(held));
    });
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Total packets dropped for any reason (legacy aggregate).
  [[nodiscard]] std::uint64_t dropped() const {
    return counters_.dropped_counted + counters_.dropped_loss +
           counters_.dropped_down;
  }
  [[nodiscard]] std::uint64_t forwarded() const { return counters_.forwarded; }
  [[nodiscard]] std::uint64_t bleached() const { return counters_.bleached; }
  /// Packets currently queued in the delay stage (in-flight for the purpose
  /// of conservation invariants).
  [[nodiscard]] std::uint64_t delayed_in_flight() const {
    return counters_.delayed_in_flight;
  }

  /// Registers every counter cell under `labels`; drops carry an extra
  /// `reason` label (counted | loss | link_down) so faulted runs are
  /// attributable in metrics_json output.
  void bind_metrics(telemetry::MetricsRegistry& registry, telemetry::LabelSetId labels) {
    const auto with_reason = [&registry, labels](std::string_view reason) {
      return registry.label_set(labels, "reason", reason);
    };
    registry.bind_counter("faults.dropped", with_reason("counted"),
                          &counters_.dropped_counted, "packets");
    registry.bind_counter("faults.dropped", with_reason("loss"),
                          &counters_.dropped_loss, "packets");
    registry.bind_counter("faults.dropped", with_reason("link_down"),
                          &counters_.dropped_down, "packets");
    registry.bind_counter("faults.bleached", labels, &counters_.bleached, "packets");
    registry.bind_counter("faults.forwarded", labels, &counters_.forwarded,
                          "packets");
    registry.gauge_fn(
        "faults.delayed_in_flight", labels,
        [this] { return static_cast<double>(counters_.delayed_in_flight); },
        "packets");
  }

 private:
  void deliver(PacketNodePtr node) {
    ++counters_.forwarded;
    inner_->receive(std::move(node));
  }

  sim::Simulator& sim_;
  Node* inner_;
  sim::Rng rng_;
  bool down_ = false;
  double drop_rate_ = 0.0;
  double bleach_rate_ = 0.0;
  std::uint64_t drop_next_ = 0;
  sim::TimeNs delay_fixed_ = 0;
  sim::TimeNs delay_jitter_ = 0;
  Counters counters_;
  std::shared_ptr<char> alive_;  ///< liveness token for delayed deliveries
};

}  // namespace pmsb::net
