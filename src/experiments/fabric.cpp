#include "experiments/fabric.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pmsb::experiments {

sim::TimeNs unloaded_rtt(const FabricConfig& cfg, std::size_t hops) {
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg.link_rate);
  const auto h = static_cast<sim::TimeNs>(hops);
  return h * data_ser + h * ack_ser + 2 * h * cfg.link_delay;
}

Fabric::Fabric(sim::QueueBackend queue) : sim_(queue) {}

Fabric::~Fabric() = default;

net::Host& Fabric::add_host(std::string name) {
  hosts_.push_back(std::make_unique<net::Host>(
      sim_, static_cast<net::HostId>(hosts_.size()), std::move(name)));
  hosts_.back()->set_demux(this);
  return *hosts_.back();
}

switchlib::Switch& Fabric::add_switch(std::string name, std::uint64_t ecmp_salt) {
  switches_.push_back(
      std::make_unique<switchlib::Switch>(sim_, std::move(name), ecmp_salt));
  return *switches_.back();
}

net::Link& Fabric::add_link(const net::Node& src, net::Node& dst, sim::RateBps rate,
                            sim::TimeNs delay) {
  links_.push_back(std::make_unique<net::Link>(sim_, rate, delay, &dst));
  link_refs_.push_back({src.name(), dst.name(), links_.back().get()});
  return *links_.back();
}

void Fabric::pool_ports(const std::vector<switchlib::Port*>& ports,
                        const FabricConfig& cfg) {
  const bool pooled_policy =
      cfg.buffer_policy.kind != switchlib::BufferPolicyKind::kStaticPerPort;
  if (cfg.shared_pool_bytes == 0 && !pooled_policy) return;
  const std::uint64_t pool_bytes =
      cfg.shared_pool_bytes > 0
          ? cfg.shared_pool_bytes
          : cfg.buffer_bytes * static_cast<std::uint64_t>(ports.size());
  pools_.push_back(std::make_unique<switchlib::BufferPool>(pool_bytes));
  for (switchlib::Port* port : ports) port->attach_pool(pools_.back().get());
}

namespace {

/// Heap order for the start list: the earliest (time, seq) on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
};

}  // namespace

std::size_t Fabric::add_dctcp_flow(std::size_t src, std::size_t dst,
                                   net::ServiceId service, std::uint64_t bytes,
                                   const transport::DctcpConfig& tc, sim::TimeNs start,
                                   sim::TimeNs deadline) {
  if (start < sim_.now()) {
    throw std::invalid_argument("Fabric: a flow cannot start in the past");
  }
  auto config = std::find(configs_.begin(), configs_.end(), tc);
  if (config == configs_.end()) {
    if (configs_.size() > std::numeric_limits<std::uint16_t>::max()) {
      throw std::length_error("Fabric: too many distinct transport configs");
    }
    config = configs_.insert(configs_.end(), tc);
  }
  FlowSlot& slot = slots_.emplace_back();
  slot.bytes = bytes;
  slot.start = start;
  slot.deadline = deadline;
  slot.src = hosts_.at(src)->id();
  slot.dst = hosts_.at(dst)->id();
  slot.service = service;
  slot.config = static_cast<std::uint16_t>(config - configs_.begin());
  const auto idx = static_cast<std::uint32_t>(slots_.size() - 1);
  if (start != sim::kTimeNever) push_start(start, idx);
  return idx;
}

void Fabric::push_start(sim::TimeNs time, std::uint32_t idx) {
  starts_.push_back({time, sim_.reserve_seq(), idx, false});
  std::push_heap(starts_.begin(), starts_.end(), kLater);
}

void Fabric::reserve_flows(std::size_t n) {
  slots_.reserve(n);
  starts_.reserve(n);
}

void Fabric::release_flow(std::size_t idx) {
  FlowSlot& slot = slots_.at(idx);
  if (slot.state != FlowSlot::State::kPending || slot.start != sim::kTimeNever) {
    throw std::logic_error("Fabric::release_flow: flow is not held back");
  }
  slot.start = sim_.now();
  push_start(slot.start, static_cast<std::uint32_t>(idx));
}

void Fabric::queue_next_start() {
  if (starts_.empty() || starts_.front().queued) return;
  // A start added ahead of an already queued head is queued as well, on an
  // idle timer or a new one; the heap keeps both, and each start event runs
  // the heap's top, which is always its own entry because the queue
  // dispatches in the same order. A firing timer is idle, so the start it
  // runs queues the next one on it.
  PendingStart& head = starts_.front();
  head.queued = true;
  StartTimer* idle = nullptr;
  for (StartTimer& t : start_timers_) {
    if (!t.timer.armed()) {
      idle = &t;
      break;
    }
  }
  if (idle == nullptr) idle = &start_timers_.emplace_back(*this);
  idle->seq = head.seq;
  idle->timer.arm(head.time, head.seq);
}

void Fabric::run_next_start(std::uint64_t seq) {
  std::pop_heap(starts_.begin(), starts_.end(), kLater);
  const PendingStart start = starts_.back();
  starts_.pop_back();
  if (start.seq != seq) throw std::logic_error("Fabric: start list out of order");
  FlowSlot& slot = slots_[start.idx];
  transport::FlowEndpoints& endpoints =
      slot.endpoints != nullptr ? *slot.endpoints : build(start.idx);
  slot.state = FlowSlot::State::kRunning;
  live_.insert(std::upper_bound(live_.begin(), live_.end(), start.idx), start.idx);
  endpoints.sender().start_now();
  queue_next_start();
}

transport::FlowEndpoints& Fabric::build(std::uint32_t idx) {
  FlowSlot& slot = slots_[idx];
  slot.endpoints = std::make_unique<transport::FlowEndpoints>(
      sim_, *hosts_[slot.src], *hosts_[slot.dst], static_cast<net::FlowId>(idx + 1),
      slot.service, slot.bytes, configs_[slot.config]);
  transport::DctcpSender& sender = slot.endpoints->sender();
  if (slot.deadline > 0) sender.set_deadline(slot.deadline);
  if (digest_) sender.add_observer(digest_.get(), first_flow_entity_ + idx);
  if (spans_ != nullptr) sender.add_observer(spans_, span_nodes_[slot.src]);
  if (profiler_ != nullptr) sender.set_profiler(profiler_);
  return *slot.endpoints;
}

transport::FlowEndpoints& Fabric::flow(std::size_t idx) {
  FlowSlot& slot = slots_.at(idx);
  if (slot.endpoints == nullptr) {
    if (slot.state == FlowSlot::State::kDone) {
      throw std::logic_error("Fabric::flow: flow " + std::to_string(idx) +
                             " is done and its endpoints were freed");
    }
    build(static_cast<std::uint32_t>(idx));
  }
  slot.pinned = true;
  return *slot.endpoints;
}

bool Fabric::deliver(net::Host& host, const net::Packet& pkt) {
  const std::size_t idx = static_cast<std::size_t>(pkt.flow_id) - 1;
  if (pkt.flow_id == 0 || idx >= slots_.size()) return false;
  FlowSlot& slot = slots_[idx];
  if (slot.endpoints != nullptr) {
    slot.endpoints->deliver(pkt);
    if (slot.state == FlowSlot::State::kRunning && slot.endpoints->sender().complete()) {
      complete(static_cast<std::uint32_t>(idx));
    }
    return true;
  }
  if (slot.state != FlowSlot::State::kDone) return false;
  // A freed flow: its completed sender would ignore an ACK, and its
  // receiver would ACK a late segment for the whole flow.
  if (pkt.is_data()) {
    host.send(transport::DctcpReceiver::make_ack(sim_, host.id(), slot.src, pkt.flow_id,
                                                 slot.service, slot.bytes, pkt.ce,
                                                 pkt.sent_time));
  }
  return true;
}

void Fabric::complete(std::uint32_t idx) {
  FlowSlot& slot = slots_[idx];
  const transport::DctcpSender& sender = slot.endpoints->sender();
  slot.state = FlowSlot::State::kDone;
  slot.stats = sender.stats();
  slot.completion = sender.completion_time();
  ++flows_done_;
  done_bytes_acked_ += slot.bytes;
  live_.erase(std::lower_bound(live_.begin(), live_.end(), idx));
  // Its armed retransmission timer goes with it, as a tombstone.
  if (!slot.pinned) slot.endpoints.reset();
  on_flow_complete(idx);
}

void Fabric::trace_flow_senders(trace::SpanTracer& spans) {
  // Interned in flow order, as when every sender was tapped here.
  span_nodes_.assign(hosts_.size(), trace::kNoNode);
  for (const FlowSlot& slot : slots_) {
    if (span_nodes_[slot.src] == trace::kNoNode) {
      span_nodes_[slot.src] = spans.intern_node(hosts_[slot.src]->name());
    }
  }
  spans_ = &spans;
  // Watched flows only record; unwatched ones pay a hash lookup at most.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].endpoints != nullptr) {
      slots_[i].endpoints->sender().add_observer(&spans, span_nodes_[slots_[i].src]);
    }
  }
}

std::vector<switchlib::Port*> Fabric::all_ports(switchlib::Switch& sw) {
  std::vector<switchlib::Port*> ports;
  for (std::size_t p = 0; p < sw.num_ports(); ++p) ports.push_back(&sw.port(p));
  return ports;
}

std::uint64_t Fabric::total_marks() const {
  std::uint64_t marks = 0;
  for (const StudiedPort& sp : studied_) {
    marks += sp.port->stats().marked_enqueue + sp.port->stats().marked_dequeue;
  }
  return marks;
}

std::uint64_t Fabric::total_drops() const {
  std::uint64_t drops = 0;
  for (const StudiedPort& sp : studied_) drops += sp.port->stats().dropped_packets;
  return drops;
}

std::array<std::uint64_t, switchlib::kNumDropReasons> Fabric::total_drops_by_reason()
    const {
  std::array<std::uint64_t, switchlib::kNumDropReasons> drops{};
  for (const StudiedPort& sp : studied_) {
    const auto& by_reason = sp.port->stats().dropped_by_reason;
    for (std::size_t r = 0; r < drops.size(); ++r) drops[r] += by_reason[r];
  }
  return drops;
}

void Fabric::install_faults(faults::FaultPlan& plan, std::uint64_t seed) {
  plan.install(sim_, link_refs_, seed);
  plan_ = &plan;
}

void Fabric::install_invariants(faults::InvariantChecker& checker) {
  for (auto& sw : switches_) faults::add_switch_checks(checker, *sw);
  for (const auto& h : hosts_) ledger_.add_host(h.get());
  for (const auto& sw : switches_) ledger_.add_switch(sw.get());
  for (const auto& link : links_) ledger_.add_link(link.get());
  ledger_.set_fault_plan(plan_);
  ledger_.register_check(checker);
  checker.add_check("flow_liveness", [this](faults::InvariantChecker::Context& ctx) {
    for (const std::uint32_t idx : live_) {
      faults::check_flow_liveness(ctx, slots_[idx].endpoints->sender());
    }
  });
}

std::uint64_t Fabric::total_bytes_acked() const {
  std::uint64_t total = done_bytes_acked_;
  for (const std::uint32_t idx : live_) total += slots_[idx].endpoints->sender().bytes_acked();
  return total;
}

std::string Fabric::progress_line() const {
  std::uint64_t backlog = 0;
  for (const StudiedPort& sp : studied_) backlog += sp.port->buffered_bytes();
  return "flows_completed=" + std::to_string(flows_done_) + "/" +
         std::to_string(slots_.size()) +
         " bytes_acked=" + std::to_string(total_bytes_acked()) +
         " backlog=" + std::to_string(backlog) + "B";
}

void Fabric::install_digest(regress::RunDigest& digest) {
  digest_ = std::make_unique<regress::DigestObserver>(digest);
  digest_ids_.clear();
  for (const StudiedPort& sp : studied_) {
    digest_ids_.push_back(digest.register_entity("port/" + sp.name));
    sp.port->add_observer(digest_.get(), digest_ids_.back());
  }
  for (const faults::LinkRef& ref : digest_links_) {
    digest_ids_.push_back(digest.register_entity("link/" + ref.src + "->" + ref.dst));
    ref.link->add_observer(digest_.get(), digest_ids_.back());
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const regress::EntityId id = digest.register_entity("flow/" + std::to_string(i));
    if (i == 0) first_flow_entity_ = id;
    if (slots_[i].endpoints != nullptr) {
      slots_[i].endpoints->sender().add_observer(digest_.get(), id);
    }
  }
}

void Fabric::finalize_digest() {
  if (!digest_) return;
  regress::RunDigest& d = digest_->digest();
  std::size_t k = 0;  // digest_ids_ is in install order
  for (const StudiedPort& sp : studied_) {
    const regress::EntityId id = digest_ids_.at(k++);
    const switchlib::PortStats& ps = sp.port->stats();
    d.stat(id, "enqueued_packets", ps.enqueued_packets);
    d.stat(id, "dequeued_packets", ps.dequeued_packets);
    d.stat(id, "dropped_packets", ps.dropped_packets);
    d.stat(id, "dropped_bytes", ps.dropped_bytes);
    d.stat(id, "marked_enqueue", ps.marked_enqueue);
    d.stat(id, "marked_dequeue", ps.marked_dequeue);
    for (std::size_t q = 0; q < ps.marked_per_queue.size(); ++q) {
      d.stat(id, "marked.q" + std::to_string(q), ps.marked_per_queue[q]);
    }
  }
  for (const faults::LinkRef& ref : digest_links_) {
    const regress::EntityId id = digest_ids_.at(k++);
    d.stat(id, "bytes_sent", ref.link->bytes_sent());
    d.stat(id, "packets_sent", ref.link->packets_sent());
    d.stat(id, "packets_delivered", ref.link->packets_delivered());
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto id = static_cast<regress::EntityId>(first_flow_entity_ + i);
    const FlowSlot& slot = slots_[i];
    const transport::SenderStats& st = slot.sender_stats();
    const bool done = slot.state == FlowSlot::State::kDone;
    d.stat(id, "segments_sent", st.segments_sent);
    d.stat(id, "retransmits", st.retransmits);
    d.stat(id, "timeouts", st.timeouts);
    d.stat(id, "acks_received", st.acks_received);
    d.stat(id, "ece_acks", st.ece_acks);
    d.stat(id, "ece_ignored", st.ece_ignored);
    d.stat(id, "window_cuts", st.window_cuts);
    d.stat(id, "bytes_acked", slot.acked());
    d.stat(id, "complete", done ? 1 : 0);
    d.stat(id, "completion_time", static_cast<std::uint64_t>(done ? slot.completion : 0));
  }
}

void Fabric::install_profiler(telemetry::Profiler& profiler) {
  profiler.attach(sim_);
  for (const StudiedPort& sp : studied_) sp.port->set_profiler(&profiler);
  profiler_ = &profiler;
  for (FlowSlot& slot : slots_) {
    if (slot.endpoints != nullptr) slot.endpoints->sender().set_profiler(&profiler);
  }
}

}  // namespace pmsb::experiments
