#include "trace/spans.hpp"

#include <fstream>
#include <stdexcept>

#include "telemetry/run_report.hpp"

namespace pmsb::trace {

NodeId SpanTracer::intern_node(const std::string& name) {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == name) return i;
  }
  nodes_.push_back(name);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void SpanTracer::store(const SpanRecord& span) {
  if (records_.size() < capacity_) {
    records_.push_back(span);
    return;
  }
  ++overflow_;
  if (policy_ == OverflowPolicy::kDropNewest || capacity_ == 0) return;
  // Ring mode: evict the oldest span in place.
  records_[write_] = span;
  write_ = (write_ + 1) % capacity_;
}

namespace {

/// The span of `pkt` itself (CE bit as `marked`) at `node`.
SpanRecord packet_span(SpanPhase phase, NodeId node, sim::TimeNs time,
                       const net::Packet& pkt) {
  return {.time = time, .packet = pkt.id, .seq = pkt.seq, .flow = pkt.flow_id,
          .node = node, .size_bytes = pkt.size_bytes, .phase = phase, .marked = pkt.ce};
}

}  // namespace

void SpanTracer::port_span(SpanPhase phase, net::SiteId node, sim::TimeNs now,
                           const net::Packet& pkt, std::size_t queue,
                           std::uint64_t port_bytes) {
  if (!wants(pkt.flow_id)) return;
  SpanRecord span = packet_span(phase, node, now, pkt);
  // A port classifies by service % num_queues, so the index fits a ServiceId.
  span.queue = static_cast<net::ServiceId>(queue);
  span.port_bytes = port_bytes;
  store(span);
}

void SpanTracer::on_link_rx(net::SiteId site, sim::TimeNs rx_time,
                            const net::Packet& pkt, sim::TimeNs tx_done) {
  if (!wants(pkt.flow_id)) return;
  store(packet_span(SpanPhase::kLinkTx, site, tx_done, pkt));
  store(packet_span(SpanPhase::kRx, site, rx_time, pkt));
}

void SpanTracer::on_send(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
                         bool retransmit) {
  if (!wants(pkt.flow_id)) return;
  SpanRecord span = packet_span(SpanPhase::kSend, site, now, pkt);
  span.retransmit = retransmit;
  store(span);
}

void SpanTracer::on_ack(net::SiteId site, sim::TimeNs now, const net::Packet& ack,
                        bool /*mark_accepted*/, sim::TimeNs /*rtt_sample*/) {
  if (!wants(ack.flow_id)) return;
  // An ack's span carries its cumulative ack number and its ECE bit.
  store({.time = now, .packet = ack.id, .seq = ack.ack, .flow = ack.flow_id, .node = site,
         .size_bytes = ack.size_bytes, .phase = SpanPhase::kAck, .marked = ack.ece});
}

void SpanTracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SpanTracer::write_ndjson: cannot open " + path);
  for_each_chronological([&](const SpanRecord& s) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("t_ns").value(s.time);
    w.key("phase").value(span_phase_name(s.phase));
    w.key("packet").value(s.packet);
    w.key("flow").value(static_cast<std::uint64_t>(s.flow));
    w.key("node").value(s.node == kNoNode ? std::string() : nodes_.at(s.node));
    w.key("queue").value(static_cast<std::uint64_t>(s.queue));
    w.key("port_bytes").value(s.port_bytes);
    w.key("seq").value(s.seq);
    w.key("size_bytes").value(static_cast<std::uint64_t>(s.size_bytes));
    w.key("marked").value(s.marked);
    w.key("retransmit").value(s.retransmit);
    w.end_object();
    out << w.str() << '\n';
  });
}

}  // namespace pmsb::trace
