#include "experiments/dumbbell.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

DumbbellScenario::DumbbellScenario(const DumbbellConfig& config)
    : Fabric(config.queue), cfg_(config) {
  if (cfg_.num_senders == 0) throw std::invalid_argument("dumbbell: need senders");

  // Hosts: senders are 0..N-1, the receiver is host N.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    add_host("sender" + std::to_string(i));
  }
  net::Host& receiver = add_host("receiver");
  switchlib::Switch& sw = add_switch("switch");

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

  const sim::RateBps uplink_rate =
      cfg_.sender_uplink_rate != 0 ? cfg_.sender_uplink_rate : cfg_.link_rate;

  // Wire sender <-> switch links and sender-facing switch ports.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    net::Host& sender = *hosts_[i];
    sender.attach_uplink(&add_link(sender, sw, uplink_rate, cfg_.link_delay));
    const std::size_t port =
        sw.add_port(&add_link(sw, sender, cfg_.link_rate, cfg_.link_delay), plain);
    sw.routing().add_route(static_cast<net::HostId>(i), port);
  }

  // Receiver <-> switch.
  receiver.attach_uplink(&add_link(receiver, sw, cfg_.link_rate, cfg_.link_delay));
  const std::size_t port =
      sw.add_port(&add_link(sw, receiver, cfg_.link_rate, cfg_.link_delay), bottleneck);
  sw.routing().add_route(static_cast<net::HostId>(cfg_.num_senders), port);
  studied_.push_back({&sw.port(port), "bottleneck"});
  digest_links_.push_back(link_refs_.back());

  // Shared buffer: requested explicitly, or implied by a pooled policy
  // (equal division / DT are meaningless without one). Every switch port
  // joins, so the reverse (ACK) paths feel the same buffer pressure.
  pool_ports(all_ports(sw), cfg_);
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
  const std::size_t idx =
      add_dctcp_flow(spec.sender, cfg_.num_senders, spec.service, spec.bytes, tc, spec.start);
  (void)flow(idx);  // pinned: callers read the senders after the run
  queue_next_start();
  return idx;
}

std::vector<double> DumbbellScenario::queue_rates_gbps(sim::TimeNs from,
                                                      sim::TimeNs until) {
  const std::size_t queues = cfg_.scheduler.num_queues;
  run(from);
  std::vector<std::uint64_t> start(queues);
  for (std::size_t q = 0; q < queues; ++q) start[q] = served_bytes(q);
  run(until);
  std::vector<double> gbps(queues, 0.0);
  if (until <= from) return gbps;
  const auto window = static_cast<double>(until - from);
  for (std::size_t q = 0; q < queues; ++q) {
    gbps[q] = static_cast<double>(served_bytes(q) - start[q]) * 8.0 / window;
  }
  return gbps;
}

void DumbbellScenario::bind_metrics(telemetry::MetricsRegistry& registry) {
  bottleneck().bind_metrics(registry, registry.label_set({{"port", "bottleneck"}}));
  const telemetry::LabelSetId none = registry.label_set({});
  if (pool() != nullptr) pool()->bind_metrics(registry, none);
  for (std::size_t i = 0; i < num_flows(); ++i) {
    flow(i).sender().bind_metrics(registry,
                                  registry.label_set(none, "flow", std::to_string(i)));
  }
}

void DumbbellScenario::add_sampler_columns(telemetry::TimeSeriesSampler& sampler) {
  switchlib::Port& port = bottleneck();
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
  if (switchlib::BufferPool* pool_ptr = pool()) {
    sampler.add_probe("buffer.free_pool_bytes", [pool_ptr] {
      return static_cast<double>(pool_ptr->free_bytes());
    });
    sampler.add_probe("bottleneck.admit_threshold_bytes", [&port] {
      return static_cast<double>(port.admission_threshold_bytes());
    });
  }
}

void DumbbellScenario::install_span_tracer(trace::SpanTracer& spans) {
  const TracePort port = trace_port();
  port.port.add_observer(&spans, spans.intern_node(port.node));
  trace_flow_senders(spans);
  // The bottleneck link's deliveries yield kLinkTx and kRx.
  bottleneck().link()->add_observer(&spans, spans.intern_node("switch->receiver"));
}

}  // namespace pmsb::experiments
