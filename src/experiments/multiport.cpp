#include "experiments/multiport.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

MultiPortScenario::MultiPortScenario(const MultiPortConfig& config)
    : Fabric(config.queue), cfg_(config) {
  if (cfg_.num_senders == 0 || cfg_.num_receivers == 0) {
    throw std::invalid_argument("multiport: need senders and receivers");
  }
  // Host ids: senders 0..S-1, receivers S..S+R-1.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    add_host("sender" + std::to_string(i));
  }
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    add_host("receiver" + std::to_string(r));
  }
  switchlib::Switch& sw = add_switch("switch");

  switchlib::PortConfig plain;
  plain.scheduler.kind = sched::SchedulerKind::kFifo;
  plain.scheduler.num_queues = 1;
  plain.marking.kind = ecn::MarkingKind::kNone;
  plain.buffer_bytes = 4096ull * 1500ull;

  switchlib::PortConfig bottleneck;
  bottleneck.scheduler = cfg_.scheduler;
  bottleneck.marking = cfg_.marking;
  bottleneck.buffer_bytes = cfg_.buffer_bytes;
  bottleneck.buffer_policy = cfg_.buffer_policy;

  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    net::Host& sender = *hosts_[i];
    sender.attach_uplink(&add_link(sender, sw, cfg_.link_rate, cfg_.link_delay));
    const std::size_t port =
        sw.add_port(&add_link(sw, sender, cfg_.link_rate, cfg_.link_delay), plain);
    sw.routing().add_route(static_cast<net::HostId>(i), port);
  }
  std::vector<switchlib::Port*> receiver_ports;
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    net::Host& receiver = *hosts_[cfg_.num_senders + r];
    receiver.attach_uplink(&add_link(receiver, sw, cfg_.link_rate, cfg_.link_delay));
    const std::size_t port =
        sw.add_port(&add_link(sw, receiver, cfg_.link_rate, cfg_.link_delay), bottleneck);
    sw.routing().add_route(static_cast<net::HostId>(cfg_.num_senders + r), port);
    studied_.push_back({&sw.port(port), sw.name() + "/" + std::to_string(port)});
    receiver_ports.push_back(&sw.port(port));
  }
  pool_ports(receiver_ports, cfg_);
}

MultiPortScenario::~MultiPortScenario() = default;

std::size_t MultiPortScenario::add_flow(const MultiPortFlowSpec& spec) {
  if (spec.sender >= cfg_.num_senders) throw std::out_of_range("multiport: bad sender");
  if (spec.receiver >= cfg_.num_receivers) {
    throw std::out_of_range("multiport: bad receiver");
  }
  const std::size_t idx = add_dctcp_flow(spec.sender, cfg_.num_senders + spec.receiver,
                                         spec.service, spec.bytes, cfg_.transport,
                                         spec.start);
  (void)flow(idx);  // pinned: callers read the senders after the run
  queue_next_start();
  return idx;
}

}  // namespace pmsb::experiments
