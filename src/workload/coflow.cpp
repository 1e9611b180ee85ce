#include "workload/coflow.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace pmsb::workload {

namespace {

/// Draws `count` distinct hosts, none of which appear in `exclude`.
std::vector<net::HostId> sample_distinct(std::size_t num_hosts, std::size_t count,
                                         const std::vector<net::HostId>& exclude,
                                         sim::Rng& rng) {
  std::vector<net::HostId> picked;
  picked.reserve(count);
  while (picked.size() < count) {
    const auto h = static_cast<net::HostId>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_hosts) - 1));
    if (std::find(picked.begin(), picked.end(), h) != picked.end()) continue;
    if (std::find(exclude.begin(), exclude.end(), h) != exclude.end()) continue;
    picked.push_back(h);
  }
  return picked;
}

}  // namespace

Workload generate_coflows(const CoflowConfig& cfg, const FlowSizeDistribution& dist,
                          sim::Rng& rng) {
  if (cfg.num_mappers == 0 || cfg.num_reducers == 0) {
    throw std::invalid_argument("coflow: need >= 1 mapper and reducer");
  }
  if (cfg.num_stages == 0) throw std::invalid_argument("coflow: need >= 1 stage");
  // Consecutive stages need disjoint mapper/reducer sets (src != dst).
  if (cfg.num_mappers + cfg.num_reducers > cfg.num_hosts) {
    throw std::invalid_argument("coflow: mappers + reducers exceed host count");
  }

  sim::Rng arrival = rng.fork("coflow.arrival");
  sim::Rng size = rng.fork("coflow.size");
  sim::Rng endpoints = rng.fork("coflow.endpoints");

  Workload wl;
  wl.flows.reserve(cfg.num_coflows * cfg.num_stages * cfg.num_mappers *
                   cfg.num_reducers);
  double t = 0.0;
  std::size_t flow_counter = 0;
  for (std::size_t c = 0; c < cfg.num_coflows; ++c) {
    t += arrival.exponential(cfg.mean_interarrival_us * 1000.0);
    GroupInfo group;
    group.id = static_cast<std::uint32_t>(c);
    group.pattern = stats::PatternTag::kCoflow;
    group.start = static_cast<sim::TimeNs>(t);
    group.num_stages = cfg.num_stages;
    wl.groups.push_back(group);

    // Stage 0 mappers; each subsequent stage's mappers are the previous
    // stage's reducers — the shuffle output feeds the next round.
    std::vector<net::HostId> mappers =
        sample_distinct(cfg.num_hosts, cfg.num_mappers, {}, endpoints);
    for (std::uint16_t s = 0; s < cfg.num_stages; ++s) {
      const std::vector<net::HostId> reducers =
          sample_distinct(cfg.num_hosts, cfg.num_reducers, mappers, endpoints);
      for (const net::HostId m : mappers) {
        for (const net::HostId r : reducers) {
          FlowSpec spec;
          spec.src = m;
          spec.dst = r;
          spec.service =
              static_cast<net::ServiceId>(flow_counter++ % cfg.num_services);
          spec.bytes = dist.sample(size);
          spec.start = group.start;  // stage > 0 realizes at the barrier
          spec.pattern = stats::PatternTag::kCoflow;
          spec.group = group.id;
          spec.stage = s;
          wl.flows.push_back(spec);
        }
      }
      mappers = reducers;
    }
  }
  return wl;
}

Workload generate_rpc_fanout(const RpcConfig& cfg, sim::Rng& rng) {
  if (cfg.fanout == 0) throw std::invalid_argument("rpc: need fanout >= 1");
  if (cfg.fanout + 1 > cfg.num_hosts) {
    throw std::invalid_argument("rpc: fanout + initiator exceed host count");
  }

  sim::Rng arrival = rng.fork("rpc.arrival");
  sim::Rng endpoints = rng.fork("rpc.endpoints");

  Workload wl;
  wl.flows.reserve(cfg.num_rpcs * cfg.fanout);
  double t = 0.0;
  std::size_t flow_counter = 0;
  for (std::size_t i = 0; i < cfg.num_rpcs; ++i) {
    t += arrival.exponential(cfg.mean_interarrival_us * 1000.0);
    const auto start = static_cast<sim::TimeNs>(t);
    const auto initiator = static_cast<net::HostId>(
        endpoints.uniform_int(0, static_cast<std::int64_t>(cfg.num_hosts) - 1));
    GroupInfo group;
    group.id = static_cast<std::uint32_t>(i);
    group.pattern = stats::PatternTag::kRpc;
    group.start = start;
    group.deadline = cfg.deadline > 0 ? start + cfg.deadline : 0;
    group.num_stages = 1;
    wl.groups.push_back(group);

    const std::vector<net::HostId> responders =
        sample_distinct(cfg.num_hosts, cfg.fanout, {initiator}, endpoints);
    for (const net::HostId r : responders) {
      FlowSpec spec;
      spec.src = r;
      spec.dst = initiator;
      spec.service = static_cast<net::ServiceId>(flow_counter++ % cfg.num_services);
      spec.bytes = cfg.response_bytes;
      spec.start = start;
      spec.deadline = group.deadline;
      spec.pattern = stats::PatternTag::kRpc;
      spec.group = group.id;
      spec.stage = 0;
      wl.flows.push_back(spec);
    }
  }
  return wl;
}

GroupTracker::GroupTracker(const Workload& workload) {
  std::map<std::uint32_t, std::uint32_t> slot_of;  // group id -> groups_ index
  for (const GroupInfo& info : workload.groups) {
    if (slot_of.count(info.id) > 0) {
      throw std::invalid_argument("GroupTracker: duplicate group id " +
                                  std::to_string(info.id));
    }
    slot_of[info.id] = static_cast<std::uint32_t>(groups_.size());
    Group g;
    g.stages.resize(std::max<std::uint16_t>(info.num_stages, 1));
    groups_.push_back(std::move(g));
    GroupResult result;
    result.id = info.id;
    result.pattern = info.pattern;
    result.start = info.start;
    result.deadline = info.deadline;
    results_.push_back(result);
  }

  flow_pos_.resize(workload.flows.size());
  for (std::size_t i = 0; i < workload.flows.size(); ++i) {
    const FlowSpec& spec = workload.flows[i];
    if (spec.group == stats::kNoGroupId) continue;
    const auto it = slot_of.find(spec.group);
    if (it == slot_of.end()) {
      throw std::invalid_argument("GroupTracker: flow references unknown group " +
                                  std::to_string(spec.group));
    }
    Group& g = groups_[it->second];
    if (spec.stage >= g.stages.size()) {
      throw std::invalid_argument("GroupTracker: flow stage out of range");
    }
    g.stages[spec.stage].flows.push_back(i);
    ++g.stages[spec.stage].pending;
    ++g.pending_total;
    flow_pos_[i] = {it->second, spec.stage};
  }
}

bool GroupTracker::deferred(std::size_t flow_index) const {
  const FlowPos& pos = flow_pos_.at(flow_index);
  return pos.group_slot != stats::kNoGroupId && pos.stage > 0;
}

std::vector<std::size_t> GroupTracker::on_flow_complete(std::size_t flow_index,
                                                        sim::TimeNs now) {
  const FlowPos& pos = flow_pos_.at(flow_index);
  if (pos.group_slot == stats::kNoGroupId) return {};
  Group& g = groups_[pos.group_slot];
  Stage& stage = g.stages[pos.stage];
  if (stage.pending == 0) {
    throw std::logic_error("GroupTracker: completion after stage already drained");
  }
  --stage.pending;
  --g.pending_total;
  if (g.pending_total == 0) {
    GroupResult& result = results_[pos.group_slot];
    result.complete = true;
    result.completion = now;
  }
  if (stage.pending == 0 && pos.stage + 1u < g.stages.size()) {
    return g.stages[pos.stage + 1].flows;
  }
  return {};
}

std::size_t GroupTracker::groups_completed() const {
  std::size_t n = 0;
  for (const GroupResult& r : results_) n += r.complete ? 1 : 0;
  return n;
}

}  // namespace pmsb::workload
