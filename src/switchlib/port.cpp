#include "switchlib/port.hpp"

#include <optional>
#include <utility>

namespace pmsb::switchlib {

Port::Port(sim::Simulator& simulator, net::Link* link, const PortConfig& config)
    : sim_(simulator),
      link_(link),
      sched_(sched::make_scheduler(config.scheduler)),
      marking_(ecn::make_marking(config.marking)),
      mark_point_(ecn::effective_mark_point(config.marking)),
      buffer_bytes_(config.buffer_bytes),
      policy_(make_buffer_policy(config.buffer_policy)),
      num_queues_(sched_->num_queues()) {
  stats_.marked_per_queue.assign(sched_->num_queues(), 0);
  // Round-based schedulers feed the marking scheme's T_round estimator.
  sched_->set_round_observer(
      [this](TimeNs now) { marking_->on_round_complete(now); });
  link_->attach_source(this);
}

ecn::PortSnapshot Port::snapshot(std::size_t queue, std::uint64_t packet_bytes) const {
  ecn::PortSnapshot snap;
  snap.port_bytes = sched_->total_bytes() + packet_bytes;
  snap.queue_bytes = sched_->queue_bytes(queue) + packet_bytes;
  snap.port_packets = sched_->total_packets() + 1;
  snap.queue_packets = sched_->queue_packets(queue) + 1;
  if (pool_ != nullptr) {
    snap.has_pool = true;
    // The pool charge for the packet under judgement is already reserved at
    // enqueue and not yet released at dequeue, so no extra adjustment.
    snap.pool_bytes = pool_->bytes();
  }
  snap.queue = queue;
  snap.weight = sched_->weight(queue);
  snap.weight_sum = sched_->weight_sum();
  snap.num_queues = sched_->num_queues();
  return snap;
}

void Port::bind_metrics(telemetry::MetricsRegistry& registry,
                        const telemetry::Labels& labels) {
  registry.bind_counter("port.enqueued_packets", labels, &stats_.enqueued_packets,
                        "packets");
  registry.bind_counter("port.dequeued_packets", labels, &stats_.dequeued_packets,
                        "packets");
  registry.bind_counter("port.dropped_packets", labels, &stats_.dropped_packets,
                        "packets");
  registry.bind_counter("port.dropped_bytes", labels, &stats_.dropped_bytes, "bytes");
  registry.bind_counter("port.marked_enqueue", labels, &stats_.marked_enqueue,
                        "packets");
  registry.bind_counter("port.marked_dequeue", labels, &stats_.marked_dequeue,
                        "packets");
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    telemetry::Labels l = labels;
    l.emplace_back("reason", drop_reason_name(static_cast<DropReason>(r)));
    registry.bind_counter("port.drops", l, &stats_.dropped_by_reason[r], "packets");
  }
  registry.gauge_fn(
      "port.occupancy_bytes", labels,
      [this] { return static_cast<double>(sched_->total_bytes()); }, "bytes");
  registry.gauge_fn(
      "buffer.admit_threshold_bytes", labels,
      [this] { return static_cast<double>(admission_threshold_bytes()); },
      "bytes");
  registry.gauge_fn(
      "port.occupancy_packets", labels,
      [this] { return static_cast<double>(sched_->total_packets()); }, "packets");
  for (std::size_t q = 0; q < sched_->num_queues(); ++q) {
    telemetry::Labels l = labels;
    l.emplace_back("queue", std::to_string(q));
    registry.bind_counter("port.marks", l, &stats_.marked_per_queue[q], "packets");
    registry.gauge_fn(
        "queue.backlog_bytes", l,
        [this, q] { return static_cast<double>(sched_->queue_bytes(q)); }, "bytes");
    registry.counter_fn(
        "sched.served_bytes", l, [this, q] { return sched_->served_bytes(q); },
        "bytes");
    registry.counter_fn(
        "sched.dequeued_packets", l, [this, q] { return sched_->served_packets(q); },
        "packets");
  }
  marking_->bind_metrics(registry, labels);
}

void Port::set_profiler(telemetry::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  kind_handle_ = profiler_->intern("port.handle");
  kind_transmit_ = profiler_->intern("port.transmit");
  kind_sched_enqueue_ = profiler_->intern("sched." + sched_->name() + ".enqueue");
  kind_sched_dequeue_ = profiler_->intern("sched." + sched_->name() + ".dequeue");
  kind_should_mark_ = profiler_->intern("ecn." + marking_->name() + ".should_mark");
}

void Port::drop(const Packet& pkt, std::size_t queue, DropReason reason) {
  ++stats_.dropped_packets;
  stats_.dropped_bytes += pkt.size_bytes;
  ++stats_.dropped_by_reason[static_cast<std::size_t>(reason)];
  notify(&net::PacketObserver::on_drop, pkt, queue);
}

void Port::handle(net::PacketNodePtr node) {
  telemetry::ProfileScope profile(profiler_, kind_handle_);
  Packet& pkt = node->pkt;
  const std::size_t q = static_cast<std::size_t>(pkt.service) % num_queues_;
  if (const auto refusal = policy_->admit(admission_request(pkt.size_bytes))) {
    drop(pkt, q, *refusal);
    return;
  }
  if (pool_ != nullptr) pool_->charge(pool_slot_, pkt.size_bytes);
  const bool was_empty = sched_->empty();
  marking_->on_port_activity(sim_.now(), was_empty);

  pkt.enqueue_time = sim_.now();
  if (mark_point_ == ecn::MarkPoint::kEnqueue && pkt.ect && !pkt.ce) {
    // Snapshot includes the arriving packet (see marking.hpp convention).
    bool mark;
    {
      telemetry::ProfileScope ecn_scope(profiler_, kind_should_mark_);
      mark = marking_->should_mark(snapshot(q, pkt.size_bytes), pkt,
                                   ecn::MarkPoint::kEnqueue, sim_.now());
    }
    if (mark) {
      pkt.ce = true;
      ++stats_.marked_enqueue;
      ++stats_.marked_per_queue[q];
      notify(&net::PacketObserver::on_mark, pkt, q);
    }
  }
  notify(&net::PacketObserver::on_enqueue, pkt, q);
  {
    telemetry::ProfileScope sched_scope(profiler_, kind_sched_enqueue_);
    sched_->enqueue(q, std::move(node));
  }
  ++stats_.enqueued_packets;
  link_->kick();
}

net::PacketNodePtr Port::pull() {
  telemetry::ProfileScope profile(profiler_, kind_transmit_);
  std::optional<sched::Dequeued> out;
  {
    telemetry::ProfileScope sched_scope(profiler_, kind_sched_dequeue_);
    out = sched_->dequeue(sim_.now());
  }
  ++stats_.dequeued_packets;
  Packet& pkt = out->pkt->pkt;
  if (mark_point_ == ecn::MarkPoint::kDequeue && pkt.ect && !pkt.ce) {
    // Snapshot includes the departing packet (state before removal).
    bool mark;
    {
      telemetry::ProfileScope ecn_scope(profiler_, kind_should_mark_);
      mark = marking_->should_mark(snapshot(out->queue, pkt.size_bytes), pkt,
                                   ecn::MarkPoint::kDequeue, sim_.now());
    }
    if (mark) {
      pkt.ce = true;
      ++stats_.marked_dequeue;
      ++stats_.marked_per_queue[out->queue];
      notify(&net::PacketObserver::on_mark, pkt, out->queue);
    }
  }
  notify(&net::PacketObserver::on_dequeue, pkt, out->queue);
  if (pool_ != nullptr) pool_->release(pool_slot_, pkt.size_bytes);
  return std::move(out->pkt);
}

}  // namespace pmsb::switchlib
