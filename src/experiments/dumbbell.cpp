#include "experiments/dumbbell.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

DumbbellScenario::DumbbellScenario(const DumbbellConfig& config)
    : cfg_(config), sim_(cfg_.queue) {
  if (cfg_.num_senders == 0) throw std::invalid_argument("dumbbell: need senders");

  // Hosts: senders are 0..N-1, the receiver is host N.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    senders_.push_back(std::make_unique<net::Host>(
        sim_, static_cast<net::HostId>(i), "sender" + std::to_string(i)));
  }
  receiver_ = std::make_unique<net::Host>(
      sim_, static_cast<net::HostId>(cfg_.num_senders), "receiver");

  switch_ = std::make_unique<switchlib::Switch>(sim_, "switch");

  // ACK-return / sender-facing ports: FIFO, no marking, ample buffer.
  switchlib::PortConfig plain;
  plain.scheduler.kind = sched::SchedulerKind::kFifo;
  plain.scheduler.num_queues = 1;
  plain.marking.kind = ecn::MarkingKind::kNone;
  plain.buffer_bytes = 4096ull * 1500ull;
  plain.buffer_policy = cfg_.buffer_policy;

  // Bottleneck port: the scheduler + marking under study.
  switchlib::PortConfig bottleneck;
  bottleneck.scheduler = cfg_.scheduler;
  bottleneck.marking = cfg_.marking;
  bottleneck.buffer_bytes = cfg_.buffer_bytes;
  bottleneck.buffer_policy = cfg_.buffer_policy;

  // Shared buffer: requested explicitly, or implied by a pool-based policy
  // (equal division / DT are meaningless without one). All switch ports
  // join, so the reverse (ACK) paths feel the same buffer pressure.
  const bool pooled_policy =
      cfg_.buffer_policy.kind != switchlib::BufferPolicyKind::kStaticPerPort;
  if (cfg_.shared_pool_bytes > 0 || pooled_policy) {
    const std::size_t num_ports = cfg_.num_senders + 1;
    const std::uint64_t pool_bytes =
        cfg_.shared_pool_bytes > 0
            ? cfg_.shared_pool_bytes
            : cfg_.buffer_bytes * static_cast<std::uint64_t>(num_ports);
    pool_ = std::make_unique<switchlib::BufferPool>(pool_bytes);
  }

  const sim::RateBps uplink_rate =
      cfg_.sender_uplink_rate != 0 ? cfg_.sender_uplink_rate : cfg_.link_rate;
  auto name_link = [this](const std::string& src, const std::string& dst) {
    link_refs_.push_back({src, dst, links_.back().get()});
  };

  // Wire sender <-> switch links and sender-facing switch ports.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    links_.push_back(std::make_unique<net::Link>(sim_, uplink_rate, cfg_.link_delay,
                                                 switch_.get()));
    senders_[i]->attach_uplink(links_.back().get());
    name_link(senders_[i]->name(), switch_->name());
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 senders_[i].get()));
    name_link(switch_->name(), senders_[i]->name());
    const std::size_t port = switch_->add_port(links_.back().get(), plain);
    switch_->routing().add_route(static_cast<net::HostId>(i), port);
  }

  // Receiver <-> switch.
  links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                               switch_.get()));
  receiver_->attach_uplink(links_.back().get());
  name_link(receiver_->name(), switch_->name());
  links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                               receiver_.get()));
  name_link(switch_->name(), receiver_->name());
  bottleneck_port_ = switch_->add_port(links_.back().get(), bottleneck);
  switch_->routing().add_route(static_cast<net::HostId>(cfg_.num_senders),
                               bottleneck_port_);

  if (pool_) {
    for (std::size_t p = 0; p < switch_->num_ports(); ++p) {
      switch_->port(p).attach_pool(pool_.get());
    }
  }
}

DumbbellScenario::~DumbbellScenario() = default;

std::size_t DumbbellScenario::add_flow(const DumbbellFlowSpec& spec) {
  if (spec.sender >= cfg_.num_senders) throw std::out_of_range("dumbbell: bad sender");
  transport::DctcpConfig tc = cfg_.transport;
  tc.max_rate = spec.max_rate;
  if (spec.pmsbe) {
    tc.pmsbe_enabled = true;
    tc.pmsbe_rtt_threshold = spec.pmsbe_rtt_threshold;
  }
  auto flow = std::make_unique<transport::Flow>(sim_, *senders_[spec.sender], *receiver_,
                                                next_flow_id_++, spec.service,
                                                spec.bytes, tc);
  flow->start(spec.start);
  flows_.push_back(std::move(flow));
  flow_sender_idx_.push_back(spec.sender);
  return flows_.size() - 1;
}

void DumbbellScenario::bind_metrics(telemetry::MetricsRegistry& registry) {
  switch_->port(bottleneck_port_).bind_metrics(registry, {{"port", "bottleneck"}});
  if (pool_) pool_->bind_metrics(registry, {});
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i]->sender().bind_metrics(registry, {{"flow", std::to_string(i)}});
  }
}

void DumbbellScenario::add_sampler_columns(telemetry::TimeSeriesSampler& sampler) {
  switchlib::Port& port = switch_->port(bottleneck_port_);
  sampler.add_probe("bottleneck.occupancy_bytes", [&port] {
    return static_cast<double>(port.buffered_bytes());
  });
  const std::size_t num_queues = cfg_.scheduler.num_queues;
  for (std::size_t q = 0; q < num_queues; ++q) {
    sampler.add_probe("bottleneck.q" + std::to_string(q) + ".backlog_bytes",
                      [&port, q] { return static_cast<double>(port.queue_bytes(q)); });
  }
  sampler.add_rate("bottleneck.mark_rate_pps", [&port]() -> std::uint64_t {
    return port.stats().marked_enqueue + port.stats().marked_dequeue;
  });
  if (pool_) {
    sampler.add_probe("buffer.free_pool_bytes", [pool = pool_.get()] {
      return static_cast<double>(pool->free_bytes());
    });
    sampler.add_probe("bottleneck.admit_threshold_bytes", [&port] {
      return static_cast<double>(port.admission_threshold_bytes());
    });
  }
}

void DumbbellScenario::install_digest(regress::RunDigest& digest) {
  digest_ = std::make_unique<regress::DigestObserver>(digest);
  digest_port_ = digest.register_entity("port/bottleneck");
  switch_->port(bottleneck_port_).add_observer(digest_.get(), digest_port_);
  digest_link_ = digest.register_entity("link/switch->receiver");
  switch_->port(bottleneck_port_).link()->add_observer(digest_.get(), digest_link_);
  digest_flows_.clear();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto id = digest.register_entity("flow/" + std::to_string(i));
    digest_flows_.push_back(id);
    flows_[i]->sender().add_observer(digest_.get(), id);
  }
}

void DumbbellScenario::finalize_digest() {
  if (!digest_) return;
  regress::RunDigest& d = digest_->digest();
  const switchlib::PortStats& ps = switch_->port(bottleneck_port_).stats();
  d.stat(digest_port_, "enqueued_packets", ps.enqueued_packets);
  d.stat(digest_port_, "dequeued_packets", ps.dequeued_packets);
  d.stat(digest_port_, "dropped_packets", ps.dropped_packets);
  d.stat(digest_port_, "dropped_bytes", ps.dropped_bytes);
  d.stat(digest_port_, "marked_enqueue", ps.marked_enqueue);
  d.stat(digest_port_, "marked_dequeue", ps.marked_dequeue);
  for (std::size_t q = 0; q < ps.marked_per_queue.size(); ++q) {
    d.stat(digest_port_, "marked.q" + std::to_string(q), ps.marked_per_queue[q]);
  }
  const net::Link* link = switch_->port(bottleneck_port_).link();
  d.stat(digest_link_, "bytes_sent", link->bytes_sent());
  d.stat(digest_link_, "packets_sent", link->packets_sent());
  d.stat(digest_link_, "packets_delivered", link->packets_delivered());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const transport::DctcpSender& s = flows_[i]->sender();
    const regress::EntityId id = digest_flows_.at(i);
    const transport::SenderStats& st = s.stats();
    d.stat(id, "segments_sent", st.segments_sent);
    d.stat(id, "retransmits", st.retransmits);
    d.stat(id, "timeouts", st.timeouts);
    d.stat(id, "acks_received", st.acks_received);
    d.stat(id, "ece_acks", st.ece_acks);
    d.stat(id, "ece_ignored", st.ece_ignored);
    d.stat(id, "window_cuts", st.window_cuts);
    d.stat(id, "bytes_acked", s.bytes_acked());
    d.stat(id, "complete", s.complete() ? 1 : 0);
    d.stat(id, "completion_time",
           static_cast<std::uint64_t>(s.complete() ? s.completion_time() : 0));
  }
}

void DumbbellScenario::install_profiler(telemetry::Profiler& profiler) {
  profiler.attach(sim_);
  switch_->port(bottleneck_port_).set_profiler(&profiler);
  for (auto& flow : flows_) flow->sender().set_profiler(&profiler);
}

void DumbbellScenario::install_span_tracer(trace::SpanTracer& spans) {
  switch_->port(bottleneck_port_).add_observer(&spans,
                                               spans.intern_node(switch_->name()));
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    // Watched flows only record; unwatched ones pay a hash lookup at most.
    flows_[i]->sender().add_observer(
        &spans, spans.intern_node(senders_[flow_sender_idx_.at(i)]->name()));
  }
  // The bottleneck link's deliveries yield kLinkTx and kRx.
  switch_->port(bottleneck_port_).link()->add_observer(
      &spans, spans.intern_node("switch->receiver"));
}

void DumbbellScenario::install_faults(faults::FaultPlan& plan, std::uint64_t seed) {
  plan.install(sim_, link_refs_, seed);
  plan_ = &plan;
}

void DumbbellScenario::install_invariants(faults::InvariantChecker& checker) {
  faults::add_switch_checks(checker, *switch_);
  for (const auto& s : senders_) ledger_.add_host(s.get());
  ledger_.add_host(receiver_.get());
  ledger_.add_switch(switch_.get());
  for (const auto& link : links_) ledger_.add_link(link.get());
  ledger_.set_fault_plan(plan_);
  ledger_.register_check(checker);
  faults::add_flow_liveness_check(checker, [this] {
    std::vector<const transport::DctcpSender*> senders;
    senders.reserve(flows_.size());
    for (const auto& f : flows_) senders.push_back(&f->sender());
    return senders;
  });
}

std::uint64_t DumbbellScenario::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->sender().bytes_acked();
  return total;
}

bool DumbbellScenario::all_complete() const {
  for (const auto& f : flows_) {
    if (!f->sender().complete()) return false;
  }
  return true;
}

sim::TimeNs DumbbellScenario::base_rtt() const {
  // Data: sender NIC serialize + 2 propagation hops + switch serialize;
  // ACK: the same with a 40 B packet.
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg_.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg_.link_rate);
  return 2 * data_ser + 2 * ack_ser + 4 * cfg_.link_delay;
}

}  // namespace pmsb::experiments
