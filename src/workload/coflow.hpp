// Grouped workloads: coflow/shuffle stages with barrier semantics and RPC
// fan-out with deadlines.
//
// A coflow is the Varys/Orchestra abstraction: a set of flows that share a
// semantic barrier — the job advances only when the whole set finishes, so
// the metric that matters is the coflow completion time (CCT), not any
// individual FCT. The generator here builds M mappers × R reducers shuffle
// stages; stage s+1's mappers are stage s's reducers and its flows start
// only once every stage-s flow of the group completes (GroupTracker owns
// that bookkeeping, the scenario wires it to completion callbacks).
//
// The RPC pattern is partition-aggregate with a deadline: `fanout` servers
// send their response shard to the initiator at RPC start, and every shard
// carries an absolute deadline so the D2TCP path (cfg.d2tcp_enabled) has
// real deadline pressure to react to. The headline result is the
// deadline-miss fraction.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::workload {

struct GroupInfo {
  std::uint32_t id = 0;
  stats::PatternTag pattern = stats::PatternTag::kCoflow;
  sim::TimeNs start = 0;     ///< group arrival; stage-0 flows start here
  sim::TimeNs deadline = 0;  ///< absolute; 0 = none
  std::uint16_t num_stages = 1;
};

/// A flow list plus optional group structure. Plain generators fill `flows`
/// only; group-aware generators also fill `groups`, and every flow of a
/// group carries (group, stage) in its spec.
struct Workload {
  std::vector<FlowSpec> flows;
  std::vector<GroupInfo> groups;
};

struct CoflowConfig {
  std::size_t num_hosts = 48;
  std::size_t num_coflows = 20;
  std::size_t num_mappers = 4;
  std::size_t num_reducers = 4;
  std::uint16_t num_stages = 1;
  /// Coflow arrivals are Poisson with this mean gap, from time 0.
  double mean_interarrival_us = 1000.0;
  std::uint8_t num_services = 8;
};

/// Generates `cfg.num_coflows` shuffle coflows; each stage is a full M×R
/// bipartite transfer with per-flow sizes from `dist`. Draws from named
/// sub-streams of `rng` ("coflow.arrival" / "coflow.size" /
/// "coflow.endpoints") without advancing it.
Workload generate_coflows(const CoflowConfig& cfg, const FlowSizeDistribution& dist,
                          sim::Rng& rng);

struct RpcConfig {
  std::size_t num_hosts = 48;
  std::size_t num_rpcs = 100;
  std::size_t fanout = 8;
  std::uint64_t response_bytes = 20'000;  ///< per responder shard
  /// Completion deadline relative to RPC start; 0 disables deadlines.
  sim::TimeNs deadline = sim::microseconds(2000);
  /// RPC arrivals are Poisson with this mean gap, from time 0.
  double mean_interarrival_us = 500.0;
  std::uint8_t num_services = 8;
};

/// Generates `cfg.num_rpcs` fan-out RPCs: a uniformly chosen initiator and
/// `fanout` distinct responders, each sending `response_bytes` back to the
/// initiator at RPC start (incast shape). Draws from named sub-streams of
/// `rng` ("rpc.arrival" / "rpc.endpoints") without advancing it.
Workload generate_rpc_fanout(const RpcConfig& cfg, sim::Rng& rng);

/// Barrier bookkeeping for grouped workloads. Pure accounting over flow
/// indices — no simulator dependency — so it is unit-testable and the
/// scenario just feeds it completion events and starts whatever it releases.
class GroupTracker {
 public:
  explicit GroupTracker(const Workload& workload);

  /// True when flow `i` must not start at its spec time: it sits behind a
  /// stage barrier (stage > 0) and is released by on_flow_complete().
  [[nodiscard]] bool deferred(std::size_t flow_index) const;

  /// Records flow `flow_index` finishing at `now`. Returns the indices of
  /// flows released by a stage barrier crossing (possibly none). When the
  /// flow's group fully completes, its completion time is recorded.
  std::vector<std::size_t> on_flow_complete(std::size_t flow_index, sim::TimeNs now);

  struct GroupResult {
    std::uint32_t id = 0;
    stats::PatternTag pattern = stats::PatternTag::kCoflow;
    sim::TimeNs start = 0;
    sim::TimeNs deadline = 0;   ///< absolute; 0 = none
    sim::TimeNs completion = 0; ///< absolute finish of the last flow
    bool complete = false;
    [[nodiscard]] sim::TimeNs ct() const { return completion - start; }
    [[nodiscard]] bool deadline_met() const {
      return deadline == 0 || (complete && completion <= deadline);
    }
  };
  [[nodiscard]] const std::vector<GroupResult>& groups() const { return results_; }
  [[nodiscard]] std::size_t groups_completed() const;

 private:
  struct Stage {
    std::vector<std::size_t> flows;
    std::size_t pending = 0;
  };
  struct Group {
    std::vector<Stage> stages;
    std::size_t pending_total = 0;
  };
  struct FlowPos {
    std::uint32_t group_slot = stats::kNoGroupId;  ///< index into groups_
    std::uint16_t stage = 0;
  };

  std::vector<Group> groups_;
  std::vector<GroupResult> results_;
  std::vector<FlowPos> flow_pos_;
};

}  // namespace pmsb::workload
