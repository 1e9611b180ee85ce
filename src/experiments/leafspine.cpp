#include "experiments/leafspine.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

LeafSpineScenario::LeafSpineScenario(const LeafSpineConfig& config)
    : Fabric(config.queue), cfg_(config) {
  const std::size_t n_hosts = num_hosts();
  if (n_hosts < 2) throw std::invalid_argument("leafspine: need >= 2 hosts");

  for (std::size_t h = 0; h < n_hosts; ++h) {
    add_host(std::string("h").append(std::to_string(h)));
  }
  // switches_ holds the leaves, then the spines.
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    add_switch("leaf" + std::to_string(l), /*ecmp_salt=*/0x1000 + l);
  }
  for (std::size_t s = 0; s < cfg_.num_spines; ++s) {
    add_switch("spine" + std::to_string(s), /*ecmp_salt=*/0x2000 + s);
  }

  switchlib::PortConfig port_cfg;
  port_cfg.scheduler = cfg_.scheduler;
  port_cfg.marking = cfg_.marking;
  port_cfg.buffer_bytes = cfg_.buffer_bytes;
  port_cfg.buffer_policy = cfg_.buffer_policy;

  // Host <-> leaf wiring.
  for (std::size_t h = 0; h < n_hosts; ++h) {
    net::Host& host = *hosts_[h];
    switchlib::Switch& lf = leaf(leaf_of(h));
    host.attach_uplink(&add_link(host, lf, cfg_.link_rate, cfg_.link_delay));
    const std::size_t port =
        lf.add_port(&add_link(lf, host, cfg_.link_rate, cfg_.link_delay), port_cfg);
    lf.routing().add_route(static_cast<net::HostId>(h), port);
  }

  // Leaf <-> spine wiring and routing.
  const sim::RateBps core_rate = cfg_.core_rate != 0 ? cfg_.core_rate : cfg_.link_rate;
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    for (std::size_t s = 0; s < cfg_.num_spines; ++s) {
      switchlib::Switch& lf = leaf(l);
      switchlib::Switch& sp = spine(s);
      // Uplink leaf -> spine, downlink spine -> leaf.
      const std::size_t up =
          lf.add_port(&add_link(lf, sp, core_rate, cfg_.link_delay), port_cfg);
      const std::size_t down =
          sp.add_port(&add_link(sp, lf, core_rate, cfg_.link_delay), port_cfg);

      for (std::size_t h = 0; h < n_hosts; ++h) {
        if (leaf_of(h) != l) {
          // Remote hosts reachable from leaf l via any spine (ECMP set).
          lf.routing().add_route(static_cast<net::HostId>(h), up);
        } else {
          // Hosts under leaf l reachable from spine s via this downlink.
          sp.routing().add_route(static_cast<net::HostId>(h), down);
        }
      }
    }
  }

  // Every port is studied, named "<switch>/<idx>", leaves first. Shared
  // pools: one per switch (the shared-memory-chip model), so ports of the
  // same chip compete for buffer while chips stay independent.
  for (auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->num_ports(); ++p) {
      studied_.push_back({&sw->port(p), sw->name() + "/" + std::to_string(p)});
    }
    pool_ports(all_ports(*sw), cfg_);
  }
}

LeafSpineScenario::~LeafSpineScenario() = default;

void LeafSpineScenario::add_workload(std::vector<workload::FlowSpec> specs) {
  add_workload(workload::Workload{.flows = std::move(specs), .groups = {}});
}

void LeafSpineScenario::add_workload(workload::Workload wl) {
  if (!wl.groups.empty()) {
    if (num_flows() > 0 || tracker_ != nullptr) {
      throw std::invalid_argument(
          "leafspine: a grouped workload must be the only workload added");
    }
    tracker_ = std::make_unique<workload::GroupTracker>(wl);
    tracked_flows_ = wl.flows.size();
  }
  const std::size_t first = num_flows();
  reserve_flows(first + wl.flows.size());
  tags_.reserve(first + wl.flows.size());
  fct_.reserve(first + wl.flows.size());
  for (std::size_t i = 0; i < wl.flows.size(); ++i) {
    const workload::FlowSpec& spec = wl.flows[i];
    const std::size_t idx = first + i;
    const bool deferred =
        tracker_ != nullptr && idx < tracked_flows_ && tracker_->deferred(idx);
    add_dctcp_flow(spec.src, spec.dst, spec.service, spec.bytes, cfg_.transport,
                   deferred ? sim::kTimeNever : spec.start, spec.deadline);
    tags_.push_back({spec.group, spec.stage, spec.pattern});
  }
  queue_next_start();
}

void LeafSpineScenario::on_flow_complete(std::size_t idx) {
  const FlowSlot& done = slot(idx);
  const FlowTag& tag = tags_[idx];
  fct_.record({static_cast<net::FlowId>(idx + 1), done.bytes, done.start,
               done.completion - done.start, done.service, tag.pattern, done.deadline,
               done.deadline == 0 || sim_.now() <= done.deadline, tag.group, tag.stage});
  if (tracker_ != nullptr && idx < tracked_flows_) {
    for (const std::size_t released : tracker_->on_flow_complete(idx, sim_.now())) {
      release_flow(released);
    }
    queue_next_start();
  }
  if (flows_done() == num_flows()) sim_.stop();
}

std::vector<workload::FlowSpec> LeafSpineScenario::realized_workload() const {
  std::vector<workload::FlowSpec> out;
  out.reserve(num_flows());
  for (std::size_t i = 0; i < num_flows(); ++i) {
    const FlowSlot& s = slot(i);
    if (s.start == sim::kTimeNever) continue;  // never released
    const FlowTag& tag = tags_[i];
    out.push_back({.src = s.src,
                   .dst = s.dst,
                   .service = s.service,
                   .bytes = s.bytes,
                   .start = s.start,
                   .deadline = s.deadline,
                   .pattern = tag.pattern,
                   .group = tag.group,
                   .stage = tag.stage});
  }
  return out;
}

bool LeafSpineScenario::run_until_complete(sim::TimeNs max_time) {
  sim_.run(max_time);
  return all_complete();
}

void LeafSpineScenario::bind_metrics(telemetry::MetricsRegistry& registry) {
  for (auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->num_ports(); ++p) {
      sw->port(p).bind_metrics(
          registry, {{"switch", sw->name()}, {"port", std::to_string(p)}});
    }
  }
  // When pooled, every switch has one pool, in switches_ order.
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    pools_[i]->bind_metrics(registry, {{"switch", switches_[i]->name()}});
  }

  // Fabric-wide transport aggregates, summed over flows at collect time so
  // the instrument count stays independent of workload size.
  auto sum = [this](std::uint64_t transport::SenderStats::* cell) {
    return [this, cell]() -> std::uint64_t {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < num_flows(); ++i) total += slot(i).sender_stats().*cell;
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
      [this]() -> std::uint64_t { return flows_done(); }, "flows");
  registry.counter_fn(
      "flows.total", {},
      [this]() -> std::uint64_t { return num_flows(); }, "flows");
}

void LeafSpineScenario::add_sampler_columns(telemetry::TimeSeriesSampler& sampler) {
  for (auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->num_ports(); ++p) {
      switchlib::Port& port = sw->port(p);
      const std::string prefix = sw->name() + ".p" + std::to_string(p);
      sampler.add_probe(prefix + ".occupancy_bytes", [&port] {
        return static_cast<double>(port.buffered_bytes());
      });
      sampler.add_rate(prefix + ".mark_rate_pps", [&port]() -> std::uint64_t {
        return port.stats().marked_enqueue + port.stats().marked_dequeue;
      });
    }
  }
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    switchlib::BufferPool* pool = pools_[i].get();
    sampler.add_probe(switches_[i]->name() + ".free_pool_bytes", [pool] {
      return static_cast<double>(pool->free_bytes());
    });
  }
}

void LeafSpineScenario::install_span_tracer(trace::SpanTracer& spans) {
  for (auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->num_ports(); ++p) {
      sw->port(p).add_observer(&spans, spans.intern_node(port_node(*sw, p)));
    }
  }
  trace_flow_senders(spans);
  // kLinkTx/kRx on the last hop only (leaf -> destination host), so kRx
  // always means arrival at the receiver and the FCT decomposition stays
  // well-formed; mid-path hops show up as enqueue/dequeue pairs instead.
  // The constructor wires host links first, two per host, downlink second.
  for (std::size_t h = 0; h < num_hosts(); ++h) {
    const faults::LinkRef& ref = link_refs_.at(2 * h + 1);
    ref.link->add_observer(&spans, spans.intern_node(ref.src + "->" + ref.dst));
  }
}

}  // namespace pmsb::experiments
