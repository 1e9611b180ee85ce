#include "experiments/fabric.hpp"

namespace pmsb::experiments {

sim::TimeNs unloaded_rtt(const FabricConfig& cfg, std::size_t hops) {
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg.link_rate);
  const auto h = static_cast<sim::TimeNs>(hops);
  return h * data_ser + h * ack_ser + 2 * h * cfg.link_delay;
}

Fabric::Fabric(sim::QueueBackend queue, DigestStats digest_stats)
    : sim_(queue), digest_stats_(digest_stats) {}

Fabric::~Fabric() = default;

net::Host& Fabric::add_host(std::string name) {
  hosts_.push_back(std::make_unique<net::Host>(
      sim_, static_cast<net::HostId>(hosts_.size()), std::move(name)));
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

transport::Flow& Fabric::add_dctcp_flow(std::size_t src, std::size_t dst,
                                        net::ServiceId service, std::uint64_t bytes,
                                        const transport::DctcpConfig& tc) {
  flows_.push_back(std::make_unique<transport::Flow>(
      sim_, *hosts_.at(src), *hosts_.at(dst), next_flow_id_++, service, bytes, tc));
  flow_src_.push_back(src);
  return *flows_.back();
}

void Fabric::trace_flow_senders(trace::SpanTracer& spans) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    // Watched flows only record; unwatched ones pay a hash lookup at most.
    flows_[i]->sender().add_observer(
        &spans, spans.intern_node(hosts_[flow_src_.at(i)]->name()));
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
  faults::add_flow_liveness_check(checker, [this] {
    std::vector<const transport::DctcpSender*> senders;
    senders.reserve(flows_.size());
    for (const auto& f : flows_) senders.push_back(&f->sender());
    return senders;
  });
}

std::uint64_t Fabric::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->sender().bytes_acked();
  return total;
}

bool Fabric::all_complete() const {
  for (const auto& f : flows_) {
    if (!f->sender().complete()) return false;
  }
  return true;
}

std::string Fabric::progress_line() const {
  std::size_t completed = 0;
  for (const auto& f : flows_) completed += f->sender().complete() ? 1 : 0;
  std::uint64_t backlog = 0;
  for (const StudiedPort& sp : studied_) backlog += sp.port->buffered_bytes();
  return "flows_completed=" + std::to_string(completed) + "/" +
         std::to_string(flows_.size()) +
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
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    digest_ids_.push_back(digest.register_entity("flow/" + std::to_string(i)));
    flows_[i]->sender().add_observer(digest_.get(), digest_ids_.back());
  }
}

void Fabric::finalize_digest() {
  if (!digest_) return;
  regress::RunDigest& d = digest_->digest();
  const bool detailed = digest_stats_ == DigestStats::kDetailed;
  std::size_t k = 0;  // digest_ids_ is in install order
  for (const StudiedPort& sp : studied_) {
    const regress::EntityId id = digest_ids_.at(k++);
    const switchlib::PortStats& ps = sp.port->stats();
    d.stat(id, "enqueued_packets", ps.enqueued_packets);
    d.stat(id, "dequeued_packets", ps.dequeued_packets);
    d.stat(id, "dropped_packets", ps.dropped_packets);
    if (detailed) d.stat(id, "dropped_bytes", ps.dropped_bytes);
    d.stat(id, "marked_enqueue", ps.marked_enqueue);
    d.stat(id, "marked_dequeue", ps.marked_dequeue);
    for (std::size_t q = 0; detailed && q < ps.marked_per_queue.size(); ++q) {
      d.stat(id, "marked.q" + std::to_string(q), ps.marked_per_queue[q]);
    }
  }
  for (const faults::LinkRef& ref : digest_links_) {
    const regress::EntityId id = digest_ids_.at(k++);
    d.stat(id, "bytes_sent", ref.link->bytes_sent());
    d.stat(id, "packets_sent", ref.link->packets_sent());
    d.stat(id, "packets_delivered", ref.link->packets_delivered());
  }
  for (const auto& flow : flows_) {
    const regress::EntityId id = digest_ids_.at(k++);
    const transport::DctcpSender& s = flow->sender();
    const transport::SenderStats& st = s.stats();
    d.stat(id, "segments_sent", st.segments_sent);
    d.stat(id, "retransmits", st.retransmits);
    d.stat(id, "timeouts", st.timeouts);
    d.stat(id, "acks_received", st.acks_received);
    d.stat(id, "ece_acks", st.ece_acks);
    d.stat(id, "ece_ignored", st.ece_ignored);
    if (detailed) d.stat(id, "window_cuts", st.window_cuts);
    d.stat(id, "bytes_acked", s.bytes_acked());
    d.stat(id, "complete", s.complete() ? 1 : 0);
    d.stat(id, "completion_time",
           static_cast<std::uint64_t>(s.complete() ? s.completion_time() : 0));
  }
}

void Fabric::install_profiler(telemetry::Profiler& profiler) {
  profiler.attach(sim_);
  for (const StudiedPort& sp : studied_) sp.port->set_profiler(&profiler);
  for (auto& flow : flows_) flow->sender().set_profiler(&profiler);
}

}  // namespace pmsb::experiments
