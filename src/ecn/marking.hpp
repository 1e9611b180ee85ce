// ECN marking scheme interface.
//
// A MarkingScheme decides, per packet, whether the switch sets the CE
// codepoint. The owning Port invokes it at enqueue and/or dequeue time
// (configurable per scheme capability) with a snapshot of the buffer state.
//
// Buffer-length convention: the snapshot always INCLUDES the packet being
// judged — at enqueue the lengths are "after insertion", at dequeue "before
// removal" — so a threshold of K bytes trips on the packet that pushes the
// occupancy to K, matching the instantaneous-queue-length semantics of
// DCTCP-style RED marking.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::ecn {

using net::Packet;
using sim::TimeNs;

/// Where in the switch pipeline the marking decision runs.
enum class MarkPoint : std::uint8_t {
  kEnqueue,  ///< on packet arrival (classic RED/ECN position)
  kDequeue,  ///< on packet departure (accelerates congestion feedback, §II)
};

/// Snapshot of one port's buffer state at decision time.
struct PortSnapshot {
  std::uint64_t port_bytes = 0;      ///< total bytes buffered at the port
  std::size_t port_packets = 0;      ///< total packets buffered at the port
  std::uint64_t queue_bytes = 0;     ///< bytes in the judged packet's queue
  std::size_t queue_packets = 0;     ///< packets in the judged packet's queue
  std::size_t queue = 0;             ///< queue index of the judged packet
  double weight = 1.0;               ///< weight of that queue
  double weight_sum = 1.0;           ///< sum of all queue weights at the port
  std::size_t num_queues = 1;
  // Shared service-pool state (valid only when has_pool).
  bool has_pool = false;
  std::uint64_t pool_bytes = 0;      ///< occupancy of the shared buffer pool
};

class MarkingScheme {
 public:
  virtual ~MarkingScheme() = default;
  MarkingScheme() = default;
  MarkingScheme(const MarkingScheme&) = delete;
  MarkingScheme& operator=(const MarkingScheme&) = delete;

  /// Returns true if `pkt` should carry CE. Called once per packet per
  /// configured mark point.
  [[nodiscard]] virtual bool should_mark(const PortSnapshot& snap, const Packet& pkt,
                                         MarkPoint point, TimeNs now) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // --- Capability flags (paper Table I) ---
  /// Works with round-based schedulers (WRR/DWRR).
  [[nodiscard]] virtual bool supports_round_based() const { return true; }
  /// Works with generic schedulers (WFQ/SP) — MQ-ECN does not.
  [[nodiscard]] virtual bool supports_generic() const { return true; }
  /// Dequeue marking delivers congestion information early — TCN does not.
  [[nodiscard]] virtual bool early_notification() const { return true; }
  /// Needs changes inside the switch (everything except plain per-port used
  /// by PMSB(e) end hosts).
  [[nodiscard]] virtual bool requires_switch_modification() const { return true; }

  /// Registers this scheme's internal instruments (threshold evaluations,
  /// blindness suppressions, sojourn histograms, ...) under `labels`.
  /// Default: the scheme has nothing beyond what the Port already counts.
  virtual void bind_metrics(telemetry::MetricsRegistry& registry,
                            telemetry::LabelSetId labels) {
    (void)registry;
    (void)labels;
  }

  // --- Hooks driven by the owning Port ---
  /// A scheduling round completed (round-based schedulers only).
  virtual void on_round_complete(TimeNs now) { (void)now; }
  /// A packet arrived at the port; `port_was_empty` is the state before it.
  virtual void on_port_activity(TimeNs now, bool port_was_empty) {
    (void)now;
    (void)port_was_empty;
  }
};

}  // namespace pmsb::ecn
