// Structured per-packet event tracing for switch ports.
//
// A Tracer is a net::PacketObserver: attach it to a Port (add_observer) to
// capture enqueue / dequeue / mark / drop events with timestamps and buffer
// state. Intended for debugging marking behaviour and for fine-grained
// analysis (e.g. "which queue's packets were marked while the port was over
// threshold" — the victim question at the heart of the paper). Capture is
// bounded (see bounded_log.hpp); count events by walking records().
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/time.hpp"
#include "trace/bounded_log.hpp"

namespace pmsb::trace {

enum class EventKind : std::uint8_t { kEnqueue, kDequeue, kMark, kDrop };

[[nodiscard]] inline const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kMark: return "mark";
    case EventKind::kDrop: return "drop";
  }
  return "?";
}

struct Record {
  sim::TimeNs time = 0;
  EventKind kind = EventKind::kEnqueue;
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  std::size_t queue = 0;
  std::uint64_t port_bytes = 0;  ///< port occupancy at the event
};

class Tracer final : public net::PacketObserver, private BoundedLog<Record> {
 public:
  explicit Tracer(std::size_t capacity = 1'000'000,
                  OverflowPolicy policy = OverflowPolicy::kDropNewest)
      : BoundedLog(capacity, policy) {}

  // --- net::PacketObserver: port events (the site id is not recorded) ---
  void on_enqueue(net::SiteId /*site*/, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    record({now, EventKind::kEnqueue, pkt.id, pkt.flow_id, queue, port_bytes});
  }
  void on_dequeue(net::SiteId /*site*/, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    record({now, EventKind::kDequeue, pkt.id, pkt.flow_id, queue, port_bytes});
  }
  void on_mark(net::SiteId /*site*/, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    record({now, EventKind::kMark, pkt.id, pkt.flow_id, queue, port_bytes});
  }
  void on_drop(net::SiteId /*site*/, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    record({now, EventKind::kDrop, pkt.id, pkt.flow_id, queue, port_bytes});
  }

  void record(const Record& rec) { store(rec); }

  using BoundedLog::clear, BoundedLog::for_each_chronological, BoundedLog::overflow,
      BoundedLog::records;

  /// NDJSON dump (chronological): one JSON object per line with keys
  /// t_us, event, packet, flow, queue, port_bytes.
  void write_ndjson(const std::string& path) const;
};

}  // namespace pmsb::trace
