// Causal packet-lifecycle spans for sampled flows.
//
// The port Tracer answers "what happened at this port"; a SpanTracer
// answers "what happened to THIS packet" across components: the sender
// stamps kSend, the switch port stamps kEnqueue/kMark/kDrop/kDequeue, the
// link stamps kLinkTx (serialization done) and kRx (delivery), and the
// sender's ack path stamps kAck. Ordering the spans of one flow by time
// and charging each gap to the phase that OPENED it decomposes the flow's
// FCT exactly into sender/queueing/serialization/propagation/receiver/
// loss-recovery time — the per-packet evidence trail behind the paper's
// marking-decision claims (see trace/analysis.hpp for the arithmetic).
//
// Capture is opt-in per flow (`trace_flows=` in pmsbsim → watch_flow()).
// The SpanTracer is a net::PacketObserver: scenario wiring attaches it to
// each component it should hear from, with an interned node id as the site,
// so a run without spans pays only the components' empty-tap-list check.
// Node names are interned once at wiring time; the hot path records
// integer ids only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/time.hpp"

namespace pmsb::trace {

enum class SpanPhase : std::uint8_t {
  kSend,     ///< transport handed the segment to its host link
  kEnqueue,  ///< switch port accepted the packet into a queue
  kDequeue,  ///< scheduler picked the packet; serialization starts
  kLinkTx,   ///< last bit left the link (serialization done)
  kRx,       ///< packet delivered to the destination
  kAck,      ///< sender processed the ack covering this packet
  kMark,     ///< ECN mark decision on the packet
  kDrop,     ///< packet dropped (buffer or fault)
};

inline constexpr std::size_t kNumSpanPhases = 8;

[[nodiscard]] inline const char* span_phase_name(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kSend: return "send";
    case SpanPhase::kEnqueue: return "enqueue";
    case SpanPhase::kDequeue: return "dequeue";
    case SpanPhase::kLinkTx: return "link_tx";
    case SpanPhase::kRx: return "rx";
    case SpanPhase::kAck: return "ack";
    case SpanPhase::kMark: return "mark";
    case SpanPhase::kDrop: return "drop";
  }
  return "?";
}

/// Interned node-name handle (SpanTracer::intern_node).
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = 0xffffffff;

struct SpanRecord {
  sim::TimeNs time = 0;
  SpanPhase phase = SpanPhase::kSend;
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  NodeId node = kNoNode;      ///< where it happened (kNoNode = n/a)
  std::size_t queue = 0;      ///< service queue (ports only)
  std::uint64_t seq = 0;      ///< transport sequence / ack number
  std::uint32_t size_bytes = 0;
  bool marked = false;        ///< CE on the wire / ECE on the ack
  bool retransmit = false;    ///< kSend only: this is a retransmission
};

/// Bounded collector of SpanRecords with the Tracer's overflow semantics:
/// kDropNewest keeps the head and counts the rest, kRingBuffer keeps the
/// tail. Default capacity is generous because spans are per-sampled-flow,
/// not per-port. As an observer, the site id is the NodeId of the
/// component (intern_node); a link's on_link_rx yields kLinkTx + kRx.
class SpanTracer final : public net::PacketObserver {
 public:
  /// What to do with a new span once `capacity` is reached.
  enum class OverflowPolicy : std::uint8_t { kDropNewest, kRingBuffer };

  explicit SpanTracer(std::size_t capacity = 1'000'000,
                      OverflowPolicy policy = OverflowPolicy::kDropNewest)
      : capacity_(capacity), policy_(policy) {}

  /// Adds `flow` to the sampled set. Only watched flows are recorded.
  void watch_flow(net::FlowId flow) { watched_.insert(flow); }
  /// Captures every flow (tests / tiny runs).
  void watch_all() { watch_all_ = true; }
  /// One hash lookup; instrumented components call this before building a
  /// record so unwatched flows pay nothing beyond the null check.
  [[nodiscard]] bool wants(net::FlowId flow) const {
    return watch_all_ || watched_.count(flow) != 0;
  }
  [[nodiscard]] std::size_t num_watched() const { return watched_.size(); }

  /// Interns `name` (wiring time, not packet path) and returns its id.
  [[nodiscard]] NodeId intern_node(const std::string& name);
  [[nodiscard]] const std::string& node_name(NodeId id) const {
    return nodes_.at(id);
  }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  void record(const SpanRecord& span) {
    if (wants(span.flow)) store(span);
  }

  // --- net::PacketObserver (site = NodeId) ---
  void on_enqueue(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t /*port_bytes*/) override {
    port_span(SpanPhase::kEnqueue, site, now, pkt, queue);
  }
  void on_dequeue(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t /*port_bytes*/) override {
    port_span(SpanPhase::kDequeue, site, now, pkt, queue);
  }
  void on_mark(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t /*port_bytes*/) override {
    port_span(SpanPhase::kMark, site, now, pkt, queue);
  }
  void on_drop(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t /*port_bytes*/) override {
    port_span(SpanPhase::kDrop, site, now, pkt, queue);
  }
  void on_link_rx(net::SiteId site, sim::TimeNs rx_time, const net::Packet& pkt,
                  sim::TimeNs tx_done) override;
  void on_send(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
               bool retransmit) override;
  void on_ack(net::SiteId site, sim::TimeNs now, const net::Packet& ack,
              bool mark_accepted, sim::TimeNs rtt_sample) override;

  /// Raw storage; NOT chronological after a ring wrap. Use
  /// for_each_chronological() or write_ndjson() for ordered access.
  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void for_each_chronological(
      const std::function<void(const SpanRecord&)>& fn) const {
    for (std::size_t i = write_; i < records_.size(); ++i) fn(records_[i]);
    for (std::size_t i = 0; i < write_; ++i) fn(records_[i]);
  }

  /// NDJSON dump (chronological), one object per span with keys
  /// t_ns, phase, packet, flow, node (escaped name or ""), queue, seq,
  /// size_bytes, marked, retransmit. Read back by
  /// trace::read_spans_ndjson().
  void write_ndjson(const std::string& path) const;

 private:
  /// Appends a span already known to be wanted.
  void store(const SpanRecord& span) {
    if (records_.size() < capacity_) {
      records_.push_back(span);
      return;
    }
    if (policy_ == OverflowPolicy::kDropNewest || capacity_ == 0) {
      ++overflow_;
      return;
    }
    ++overflow_;
    records_[write_] = span;
    write_ = (write_ + 1) % capacity_;
  }
  /// A switch-port span (queue and CE bit from the packet).
  void port_span(SpanPhase phase, net::SiteId node, sim::TimeNs now,
                 const net::Packet& pkt, std::size_t queue);

  std::size_t capacity_;
  OverflowPolicy policy_;
  bool watch_all_ = false;
  std::unordered_set<net::FlowId> watched_;
  std::vector<std::string> nodes_;
  std::vector<SpanRecord> records_;
  std::size_t write_ = 0;  ///< ring mode: index of the oldest span
  std::uint64_t overflow_ = 0;
};

}  // namespace pmsb::trace
