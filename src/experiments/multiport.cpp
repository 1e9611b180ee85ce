#include "experiments/multiport.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

MultiPortScenario::MultiPortScenario(const MultiPortConfig& config)
    : cfg_(config), sim_(cfg_.queue) {
  if (cfg_.num_senders == 0 || cfg_.num_receivers == 0) {
    throw std::invalid_argument("multiport: need senders and receivers");
  }
  // Host ids: senders 0..S-1, receivers S..S+R-1.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    senders_.push_back(std::make_unique<net::Host>(
        sim_, static_cast<net::HostId>(i), "sender" + std::to_string(i)));
  }
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    receivers_.push_back(std::make_unique<net::Host>(
        sim_, static_cast<net::HostId>(cfg_.num_senders + r),
        "receiver" + std::to_string(r)));
  }
  switch_ = std::make_unique<switchlib::Switch>(sim_, "switch");
  const bool pooled_policy =
      cfg_.buffer_policy.kind != switchlib::BufferPolicyKind::kStaticPerPort;
  if (cfg_.shared_pool_bytes > 0 || pooled_policy) {
    const std::uint64_t pool_bytes =
        cfg_.shared_pool_bytes > 0
            ? cfg_.shared_pool_bytes
            : cfg_.buffer_bytes * static_cast<std::uint64_t>(cfg_.num_receivers);
    pool_ = std::make_unique<switchlib::BufferPool>(pool_bytes);
  }

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

  auto name_link = [this](const std::string& src, const std::string& dst) {
    link_refs_.push_back({src, dst, links_.back().get()});
  };

  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 switch_.get()));
    senders_[i]->attach_uplink(links_.back().get());
    name_link(senders_[i]->name(), switch_->name());
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 senders_[i].get()));
    name_link(switch_->name(), senders_[i]->name());
    const std::size_t port = switch_->add_port(links_.back().get(), plain);
    switch_->routing().add_route(static_cast<net::HostId>(i), port);
  }
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 switch_.get()));
    receivers_[r]->attach_uplink(links_.back().get());
    name_link(receivers_[r]->name(), switch_->name());
    links_.push_back(std::make_unique<net::Link>(sim_, cfg_.link_rate, cfg_.link_delay,
                                                 receivers_[r].get()));
    name_link(switch_->name(), receivers_[r]->name());
    const std::size_t port = switch_->add_port(links_.back().get(), bottleneck);
    if (pool_) switch_->port(port).attach_pool(pool_.get());
    receiver_ports_.push_back(port);
    switch_->routing().add_route(static_cast<net::HostId>(cfg_.num_senders + r), port);
  }
}

MultiPortScenario::~MultiPortScenario() = default;

void MultiPortScenario::install_faults(faults::FaultPlan& plan, std::uint64_t seed) {
  plan.install(sim_, link_refs_, seed);
  plan_ = &plan;
}

void MultiPortScenario::install_invariants(faults::InvariantChecker& checker) {
  faults::add_switch_checks(checker, *switch_);
  for (const auto& s : senders_) ledger_.add_host(s.get());
  for (const auto& r : receivers_) ledger_.add_host(r.get());
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

std::uint64_t MultiPortScenario::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->sender().bytes_acked();
  return total;
}

std::size_t MultiPortScenario::add_flow(const MultiPortFlowSpec& spec) {
  if (spec.sender >= cfg_.num_senders) throw std::out_of_range("multiport: bad sender");
  if (spec.receiver >= cfg_.num_receivers) {
    throw std::out_of_range("multiport: bad receiver");
  }
  transport::DctcpConfig tc = cfg_.transport;
  tc.max_rate = spec.max_rate;
  if (spec.pmsbe) {
    tc.pmsbe_enabled = true;
    tc.pmsbe_rtt_threshold = spec.pmsbe_rtt_threshold;
  }
  auto flow = std::make_unique<transport::Flow>(sim_, *senders_[spec.sender],
                                                *receivers_[spec.receiver],
                                                next_flow_id_++, spec.service,
                                                spec.bytes, tc);
  flow->start(spec.start);
  flows_.push_back(std::move(flow));
  return flows_.size() - 1;
}

}  // namespace pmsb::experiments
