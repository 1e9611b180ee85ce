#include "experiments/leafspine.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

LeafSpineScenario::LeafSpineScenario(const LeafSpineConfig& config)
    : cfg_(config), sim_(cfg_.queue) {
  const std::size_t n_hosts = num_hosts();
  if (n_hosts < 2) throw std::invalid_argument("leafspine: need >= 2 hosts");

  for (std::size_t h = 0; h < n_hosts; ++h) {
    hosts_.push_back(std::make_unique<net::Host>(sim_, static_cast<net::HostId>(h),
                                                 "h" + std::to_string(h)));
  }
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    leaves_.push_back(
        std::make_unique<switchlib::Switch>(sim_, "leaf" + std::to_string(l),
                                            /*ecmp_salt=*/0x1000 + l));
  }
  for (std::size_t s = 0; s < cfg_.num_spines; ++s) {
    spines_.push_back(
        std::make_unique<switchlib::Switch>(sim_, "spine" + std::to_string(s),
                                            /*ecmp_salt=*/0x2000 + s));
  }

  switchlib::PortConfig port_cfg;
  port_cfg.scheduler = cfg_.scheduler;
  port_cfg.marking = cfg_.marking;
  port_cfg.buffer_bytes = cfg_.buffer_bytes;
  port_cfg.buffer_policy = cfg_.buffer_policy;

  auto name_link = [this](const std::string& src, const std::string& dst) {
    link_refs_.push_back({src, dst, links_.back().get()});
  };

  // Host <-> leaf wiring.
  for (std::size_t h = 0; h < n_hosts; ++h) {
    const std::size_t l = leaf_of(h);
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 leaves_[l].get()));
    hosts_[h]->attach_uplink(links_.back().get());
    name_link(hosts_[h]->name(), leaves_[l]->name());
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 hosts_[h].get()));
    name_link(leaves_[l]->name(), hosts_[h]->name());
    const std::size_t port = leaves_[l]->add_port(links_.back().get(), port_cfg);
    leaves_[l]->routing().add_route(static_cast<net::HostId>(h), port);
  }

  // Leaf <-> spine wiring and routing.
  const sim::RateBps core_rate = cfg_.core_rate != 0 ? cfg_.core_rate : cfg_.link_rate;
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    for (std::size_t s = 0; s < cfg_.num_spines; ++s) {
      // Uplink leaf -> spine.
      links_.push_back(std::make_unique<net::Link>(sim_, core_rate, cfg_.link_delay,
                                                   spines_[s].get()));
      name_link(leaves_[l]->name(), spines_[s]->name());
      const std::size_t up = leaves_[l]->add_port(links_.back().get(), port_cfg);
      // Downlink spine -> leaf.
      links_.push_back(std::make_unique<net::Link>(sim_, core_rate, cfg_.link_delay,
                                                   leaves_[l].get()));
      name_link(spines_[s]->name(), leaves_[l]->name());
      const std::size_t down = spines_[s]->add_port(links_.back().get(), port_cfg);

      for (std::size_t h = 0; h < n_hosts; ++h) {
        if (leaf_of(h) != l) {
          // Remote hosts reachable from leaf l via any spine (ECMP set).
          leaves_[l]->routing().add_route(static_cast<net::HostId>(h), up);
        } else {
          // Hosts under leaf l reachable from spine s via this downlink.
          spines_[s]->routing().add_route(static_cast<net::HostId>(h), down);
        }
      }
    }
  }

  // Shared-buffer pools: one per switch (the shared-memory-chip model), so
  // ports of the same chip compete for buffer while chips stay independent.
  // Attach after all add_port calls so every port registers a ledger slot.
  const bool pooled_policy =
      cfg_.buffer_policy.kind != switchlib::BufferPolicyKind::kStaticPerPort;
  if (cfg_.shared_pool_bytes > 0 || pooled_policy) {
    auto pool_switch = [this](switchlib::Switch& sw) {
      const std::uint64_t pool_bytes =
          cfg_.shared_pool_bytes > 0
              ? cfg_.shared_pool_bytes
              : cfg_.buffer_bytes * static_cast<std::uint64_t>(sw.num_ports());
      pools_.push_back(std::make_unique<switchlib::BufferPool>(pool_bytes));
      for (std::size_t p = 0; p < sw.num_ports(); ++p) {
        sw.port(p).attach_pool(pools_.back().get());
      }
    };
    for (auto& l : leaves_) pool_switch(*l);
    for (auto& s : spines_) pool_switch(*s);
  }
}

LeafSpineScenario::~LeafSpineScenario() = default;

void LeafSpineScenario::add_workload(const std::vector<workload::FlowSpec>& specs) {
  workload::Workload wl;
  wl.flows = specs;
  add_workload(wl);
}

void LeafSpineScenario::add_workload(const workload::Workload& wl) {
  if (!wl.groups.empty()) {
    if (!flows_.empty() || tracker_ != nullptr) {
      throw std::invalid_argument(
          "leafspine: a grouped workload must be the only workload added");
    }
    tracker_ = std::make_unique<workload::GroupTracker>(wl);
    tracked_flows_ = wl.flows.size();
  }
  const std::size_t base = flows_.size();
  for (std::size_t k = 0; k < wl.flows.size(); ++k) {
    const workload::FlowSpec& spec = wl.flows[k];
    const std::size_t idx = base + k;
    auto flow = std::make_unique<transport::Flow>(
        sim_, *hosts_.at(spec.src), *hosts_.at(spec.dst), next_flow_id_++, spec.service,
        spec.bytes, cfg_.transport);
    transport::DctcpSender& sender = flow->sender();
    if (spec.deadline > 0) sender.set_deadline(spec.deadline);
    sender.set_completion_callback([this, idx](sim::TimeNs fct) {
      const transport::DctcpSender& s = flows_[idx]->sender();
      const workload::FlowSpec& done = specs_[idx];
      fct_.record({s.flow_id(), done.bytes, s.start_time(), fct, done.service,
                   done.pattern, done.deadline,
                   done.deadline == 0 || sim_.now() <= done.deadline, done.group,
                   done.stage});
      ++completed_;
      if (tracker_ != nullptr && idx < tracked_flows_) {
        for (const std::size_t released : tracker_->on_flow_complete(idx, sim_.now())) {
          realized_start_[released] = sim_.now();
          flows_[released]->start(sim_.now());
        }
      }
      if (completed_ == flows_.size()) sim_.stop();
    });
    const bool deferred = tracker_ != nullptr && idx < tracked_flows_ &&
                          tracker_->deferred(idx);
    if (deferred) {
      realized_start_.push_back(sim::kTimeNever);
    } else {
      flow->start(spec.start);
      realized_start_.push_back(spec.start);
    }
    flows_.push_back(std::move(flow));
    flow_src_idx_.push_back(spec.src);
    specs_.push_back(spec);
  }
}

std::vector<workload::FlowSpec> LeafSpineScenario::realized_workload() const {
  std::vector<workload::FlowSpec> out;
  out.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (realized_start_.at(i) == sim::kTimeNever) continue;  // never released
    workload::FlowSpec spec = specs_[i];
    spec.start = realized_start_[i];
    out.push_back(spec);
  }
  return out;
}

bool LeafSpineScenario::run_until_complete(sim::TimeNs max_time) {
  sim_.run(max_time);
  return completed_ == flows_.size();
}

void LeafSpineScenario::bind_metrics(telemetry::MetricsRegistry& registry) {
  auto bind_switch = [&registry](switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      sw.port(p).bind_metrics(
          registry, {{"switch", sw.name()}, {"port", std::to_string(p)}});
    }
  };
  for (auto& l : leaves_) bind_switch(*l);
  for (auto& s : spines_) bind_switch(*s);
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    // pools_ is ordered leaves then spines, mirroring construction.
    const std::string& name = i < leaves_.size()
                                  ? leaves_[i]->name()
                                  : spines_[i - leaves_.size()]->name();
    pools_[i]->bind_metrics(registry, {{"switch", name}});
  }

  // Fabric-wide transport aggregates, summed over flows at collect time so
  // the instrument count stays independent of workload size.
  auto sum = [this](std::uint64_t transport::SenderStats::* cell) {
    return [this, cell]() -> std::uint64_t {
      std::uint64_t total = 0;
      for (const auto& f : flows_) total += f->sender().stats().*cell;
      return total;
    };
  };
  registry.counter_fn("transport.segments_sent", {},
                      sum(&transport::SenderStats::segments_sent), "segments");
  registry.counter_fn("transport.retransmits", {},
                      sum(&transport::SenderStats::retransmits), "segments");
  registry.counter_fn("transport.timeouts", {},
                      sum(&transport::SenderStats::timeouts), "events");
  registry.counter_fn("transport.ece_acks", {},
                      sum(&transport::SenderStats::ece_acks), "acks");
  registry.counter_fn("transport.ece_ignored", {},
                      sum(&transport::SenderStats::ece_ignored), "acks");
  registry.counter_fn("transport.window_cuts", {},
                      sum(&transport::SenderStats::window_cuts), "cuts");
  registry.counter_fn(
      "flows.completed", {},
      [this]() -> std::uint64_t { return completed_; }, "flows");
  registry.counter_fn(
      "flows.total", {},
      [this]() -> std::uint64_t { return flows_.size(); }, "flows");
}

void LeafSpineScenario::add_sampler_columns(telemetry::TimeSeriesSampler& sampler) {
  auto add_switch = [&sampler](switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      switchlib::Port& port = sw.port(p);
      const std::string prefix = sw.name() + ".p" + std::to_string(p);
      sampler.add_probe(prefix + ".occupancy_bytes", [&port] {
        return static_cast<double>(port.buffered_bytes());
      });
      sampler.add_rate(prefix + ".mark_rate_pps", [&port]() -> std::uint64_t {
        return port.stats().marked_enqueue + port.stats().marked_dequeue;
      });
    }
  };
  for (auto& l : leaves_) add_switch(*l);
  for (auto& s : spines_) add_switch(*s);
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    const std::string& name = i < leaves_.size()
                                  ? leaves_[i]->name()
                                  : spines_[i - leaves_.size()]->name();
    switchlib::BufferPool* pool = pools_[i].get();
    sampler.add_probe(name + ".free_pool_bytes", [pool] {
      return static_cast<double>(pool->free_bytes());
    });
  }
}

std::uint64_t LeafSpineScenario::total_marks() const {
  std::uint64_t marks = 0;
  auto add = [&marks](const switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      marks += sw.port(p).stats().marked_enqueue + sw.port(p).stats().marked_dequeue;
    }
  };
  for (const auto& l : leaves_) add(*l);
  for (const auto& s : spines_) add(*s);
  return marks;
}

std::array<std::uint64_t, switchlib::kNumDropReasons>
LeafSpineScenario::total_drops_by_reason() const {
  std::array<std::uint64_t, switchlib::kNumDropReasons> drops{};
  auto add = [&drops](const switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const auto& by_reason = sw.port(p).stats().dropped_by_reason;
      for (std::size_t r = 0; r < drops.size(); ++r) drops[r] += by_reason[r];
    }
  };
  for (const auto& l : leaves_) add(*l);
  for (const auto& s : spines_) add(*s);
  return drops;
}

std::uint64_t LeafSpineScenario::total_drops() const {
  std::uint64_t drops = 0;
  auto add = [&drops](const switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      drops += sw.port(p).stats().dropped_packets;
    }
  };
  for (const auto& l : leaves_) add(*l);
  for (const auto& s : spines_) add(*s);
  return drops;
}

void LeafSpineScenario::install_digest(regress::RunDigest& digest) {
  digest_ = std::make_unique<regress::DigestObserver>(digest);
  digest_ports_.clear();
  auto wire_switch = [this, &digest](switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const auto id =
          digest.register_entity("port/" + sw.name() + "/" + std::to_string(p));
      sw.port(p).add_observer(digest_.get(), id);
      digest_ports_.emplace_back(&sw.port(p), id);
    }
  };
  for (auto& l : leaves_) wire_switch(*l);
  for (auto& s : spines_) wire_switch(*s);
  digest_flows_.clear();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto id = digest.register_entity("flow/" + std::to_string(i));
    digest_flows_.push_back(id);
    flows_[i]->sender().add_observer(digest_.get(), id);
  }
}

void LeafSpineScenario::finalize_digest() {
  if (!digest_) return;
  regress::RunDigest& d = digest_->digest();
  for (const auto& [port, id] : digest_ports_) {
    const switchlib::PortStats& ps = port->stats();
    d.stat(id, "enqueued_packets", ps.enqueued_packets);
    d.stat(id, "dequeued_packets", ps.dequeued_packets);
    d.stat(id, "dropped_packets", ps.dropped_packets);
    d.stat(id, "marked_enqueue", ps.marked_enqueue);
    d.stat(id, "marked_dequeue", ps.marked_dequeue);
  }
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
    d.stat(id, "bytes_acked", s.bytes_acked());
    d.stat(id, "complete", s.complete() ? 1 : 0);
    d.stat(id, "completion_time",
           static_cast<std::uint64_t>(s.complete() ? s.completion_time() : 0));
  }
}

void LeafSpineScenario::install_profiler(telemetry::Profiler& profiler) {
  profiler.attach(sim_);
  auto wire_switch = [&profiler](switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) sw.port(p).set_profiler(&profiler);
  };
  for (auto& l : leaves_) wire_switch(*l);
  for (auto& s : spines_) wire_switch(*s);
  for (auto& flow : flows_) flow->sender().set_profiler(&profiler);
}

void LeafSpineScenario::install_span_tracer(trace::SpanTracer& spans) {
  auto wire_switch = [&spans](switchlib::Switch& sw) {
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      sw.port(p).add_observer(&spans,
                              spans.intern_node(sw.name() + "/p" + std::to_string(p)));
    }
  };
  for (auto& l : leaves_) wire_switch(*l);
  for (auto& s : spines_) wire_switch(*s);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i]->sender().add_observer(
        &spans, spans.intern_node(hosts_[flow_src_idx_.at(i)]->name()));
  }
  // kLinkTx/kRx on the last hop only (leaf -> destination host), so kRx
  // always means arrival at the receiver and the FCT decomposition stays
  // well-formed; mid-path hops show up as enqueue/dequeue pairs instead.
  // The constructor wires host links first, two per host, downlink second.
  for (std::size_t h = 0; h < num_hosts(); ++h) {
    const faults::LinkRef& ref = link_refs_.at(2 * h + 1);
    ref.link->add_observer(&spans, spans.intern_node(ref.src + "->" + ref.dst));
  }
}

void LeafSpineScenario::install_faults(faults::FaultPlan& plan, std::uint64_t seed) {
  plan.install(sim_, link_refs_, seed);
  plan_ = &plan;
}

void LeafSpineScenario::install_invariants(faults::InvariantChecker& checker) {
  for (auto& l : leaves_) faults::add_switch_checks(checker, *l);
  for (auto& s : spines_) faults::add_switch_checks(checker, *s);
  for (const auto& h : hosts_) ledger_.add_host(h.get());
  for (const auto& l : leaves_) ledger_.add_switch(l.get());
  for (const auto& s : spines_) ledger_.add_switch(s.get());
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

std::uint64_t LeafSpineScenario::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->sender().bytes_acked();
  return total;
}

sim::TimeNs LeafSpineScenario::base_rtt_interrack() const {
  // Four links each way (host-leaf-spine-leaf-host); store-and-forward
  // serialization of the data packet at each of the four transmitters, ACK
  // serialization on the way back.
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg_.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg_.link_rate);
  return 4 * data_ser + 4 * ack_ser + 8 * cfg_.link_delay;
}

}  // namespace pmsb::experiments
