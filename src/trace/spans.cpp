#include "trace/spans.hpp"

#include <fstream>
#include <stdexcept>

#include "trace/json_escape.hpp"

namespace pmsb::trace {

NodeId SpanTracer::intern_node(const std::string& name) {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == name) return i;
  }
  nodes_.push_back(name);
  return static_cast<NodeId>(nodes_.size() - 1);
}

namespace {

/// The span of `pkt` itself (CE bit as `marked`) at `node`.
SpanRecord packet_span(SpanPhase phase, NodeId node, sim::TimeNs time,
                       const net::Packet& pkt) {
  return {.time = time, .phase = phase, .packet = pkt.id, .flow = pkt.flow_id,
          .node = node, .seq = pkt.seq, .size_bytes = pkt.size_bytes, .marked = pkt.ce};
}

}  // namespace

void SpanTracer::port_span(SpanPhase phase, net::SiteId node, sim::TimeNs now,
                           const net::Packet& pkt, std::size_t queue) {
  if (!wants(pkt.flow_id)) return;
  SpanRecord span = packet_span(phase, node, now, pkt);
  span.queue = queue;
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
  store({.time = now, .phase = SpanPhase::kAck, .packet = ack.id, .flow = ack.flow_id,
         .node = site, .seq = ack.ack, .size_bytes = ack.size_bytes, .marked = ack.ece});
}

void SpanTracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SpanTracer::write_ndjson: cannot open " + path);
  for_each_chronological([&](const SpanRecord& s) {
    out << "{\"t_ns\":" << s.time << ",\"phase\":\"" << span_phase_name(s.phase)
        << "\",\"packet\":" << s.packet << ",\"flow\":" << s.flow
        << ",\"node\":\""
        << (s.node == kNoNode ? std::string() : json_escape(nodes_.at(s.node)))
        << "\",\"queue\":" << s.queue << ",\"seq\":" << s.seq
        << ",\"size_bytes\":" << s.size_bytes << ",\"marked\":"
        << (s.marked ? "true" : "false") << ",\"retransmit\":"
        << (s.retransmit ? "true" : "false") << "}\n";
  });
}

}  // namespace pmsb::trace
