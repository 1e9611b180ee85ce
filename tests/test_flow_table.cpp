// Tests for the fabric's flow table: starts kept as a (time, seq) list with
// only its head queued, endpoints built at start and freed at completion,
// and freed flows answering late packets as their endpoints would have.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/watchdog.hpp"
#include "net/packet_observer.hpp"
#include "net/packet_store.hpp"
#include "regress/digest.hpp"
#include "sim/rng.hpp"
#include "sweep/scenario_run.hpp"
#include "workload/coflow.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

/// Two leaves, two spines, four hosts per leaf (h0-h3 under leaf0).
LeafSpineConfig small_fabric() {
  LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 4;
  cfg.scheduler.weights.assign(4, 1.0);
  SchemeParams params;
  params.rtt = LeafSpineScenario::base_rtt_interrack(cfg);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(Scheme::kPmsb, params);
  return cfg;
}

/// The paper's 4x4 fabric, 48 hosts, eight queues.
LeafSpineConfig paper_fabric() {
  LeafSpineConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  SchemeParams params;
  params.rtt = LeafSpineScenario::base_rtt_interrack(cfg);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(Scheme::kPmsb, params);
  return cfg;
}

/// Flows whose endpoints exist now, pinned ones included.
std::size_t endpoints_built(const Fabric& fab) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < fab.num_flows(); ++i) n += fab.slot(i).endpoints != nullptr;
  return n;
}

workload::FlowSpec spec(net::HostId src, net::HostId dst, std::uint64_t bytes,
                        sim::TimeNs start) {
  return {.src = src, .dst = dst, .service = 0, .bytes = bytes, .start = start};
}

/// The id of each flow's first packet onto the wire. A start sends its
/// first window at once, so these ascend in start order.
struct FirstPacket final : net::PacketObserver {
  std::map<net::FlowId, std::uint64_t> first_id;
  void on_link_tx(net::SiteId, sim::TimeNs, const net::Packet& pkt, sim::TimeNs) override {
    first_id.try_emplace(pkt.flow_id, pkt.id);
  }
};

/// Every field a receiver's ACK carries, as it leaves the host.
struct AckRecord {
  std::uint64_t id, ack;
  sim::TimeNs echo_time, sent_time;
  net::HostId src, dst;
  net::ServiceId service;
  std::uint32_t size;
  bool ece, ect;
  bool operator==(const AckRecord&) const = default;
};

/// Counts data segments delivered to a host after the fabric freed their
/// flow's endpoints.
struct LateData final : net::PacketObserver {
  const Fabric* fab = nullptr;
  std::uint64_t count = 0;
  void on_link_rx(net::SiteId, sim::TimeNs, const net::Packet& pkt, sim::TimeNs) override {
    const FlowSlot& slot = fab->slot(pkt.flow_id - 1);
    if (pkt.is_data() && slot.endpoints == nullptr && slot.state == FlowSlot::State::kDone) {
      ++count;
    }
  }
};

/// The ACKs leaving a host, in order, with every field they carry.
struct AckLog final : net::PacketObserver {
  std::vector<AckRecord> acks;
  void on_link_tx(net::SiteId, sim::TimeNs, const net::Packet& pkt, sim::TimeNs) override {
    if (!pkt.is_ack()) return;
    acks.push_back({pkt.id, pkt.ack, pkt.echo_time, pkt.sent_time, pkt.src, pkt.dst,
                    pkt.service, pkt.size_bytes, pkt.ece, pkt.ect});
  }
};

const faults::LinkRef& link_between(const Fabric& fab, const std::string& src,
                                    const std::string& dst) {
  for (const faults::LinkRef& ref : fab.link_refs()) {
    if (ref.src == src && ref.dst == dst) return ref;
  }
  throw std::invalid_argument("no link " + src + "->" + dst);
}

}  // namespace

// ---------------------------------------------------------------------------
// The start list

TEST(FlowTable, AddWorkloadQueuesOneStart) {
  LeafSpineScenario sc(small_fabric());
  std::vector<workload::FlowSpec> specs;
  for (net::HostId i = 0; i < 6; ++i) {
    specs.push_back(spec(i, static_cast<net::HostId>(7 - i), 20'000,
                         sim::microseconds(100 * (6 - i))));
  }
  sc.add_workload(specs);
  EXPECT_EQ(sc.num_flows(), 6u);
  EXPECT_EQ(sc.simulator().pending_events(), 1u);
  EXPECT_EQ(sc.simulator().queue_depth(), 1u);
  EXPECT_EQ(endpoints_built(sc), 0u);
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  EXPECT_EQ(sc.fct().count(), 6u);
}

TEST(FlowTable, EventAtAStartTimeRunsAfterThatStart) {
  LeafSpineScenario sc(small_fabric());
  std::vector<workload::FlowSpec> specs;
  for (net::HostId i = 0; i < 4; ++i) {
    specs.push_back(spec(i, static_cast<net::HostId>(4 + i), 30'000,
                         sim::microseconds(50 * i)));
  }
  sc.add_workload(specs);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sc.simulator().schedule_at(specs[i].start, [&sc, &checked, i] {
      EXPECT_NE(sc.slot(i).state, FlowSlot::State::kPending) << "flow " << i;
      ASSERT_NE(sc.slot(i).endpoints, nullptr);
      EXPECT_TRUE(sc.slot(i).endpoints->sender().started());
      ++checked;
    });
  }
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  EXPECT_EQ(checked, specs.size());
}

TEST(FlowTable, SameTimeStartsRunInIndexOrder) {
  LeafSpineScenario sc(small_fabric());
  std::vector<workload::FlowSpec> specs;
  // Every source host differs, so each first packet leaves at its start.
  for (net::HostId i = 0; i < 6; ++i) {
    specs.push_back(spec(i, static_cast<net::HostId>((i + 3) % 8), 10'000,
                         sim::microseconds(100)));
  }
  sc.add_workload(specs);
  FirstPacket first;
  for (const faults::LinkRef& ref : sc.link_refs()) {
    if (ref.src.starts_with("h")) ref.link->add_observer(&first);
  }
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  ASSERT_EQ(first.first_id.size(), specs.size());
  for (net::FlowId f = 2; f <= specs.size(); ++f) {
    EXPECT_LT(first.first_id.at(f - 1), first.first_id.at(f)) << "flow id " << f;
  }
}

TEST(FlowTable, UnorderedStartsStartAtTheirSpecTimes) {
  LeafSpineScenario sc(small_fabric());
  const std::vector<sim::TimeNs> starts = {
      sim::microseconds(500), sim::microseconds(100), sim::microseconds(300),
      sim::microseconds(100), 0, sim::microseconds(200)};
  std::vector<workload::FlowSpec> specs;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto src = static_cast<net::HostId>(i);
    specs.push_back(spec(src, static_cast<net::HostId>((i + 4) % 8), 15'000, starts[i]));
  }
  sc.add_workload(specs);
  FirstPacket first;
  for (const faults::LinkRef& ref : sc.link_refs()) {
    if (ref.src.starts_with("h")) ref.link->add_observer(&first);
  }
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  ASSERT_EQ(sc.fct().count(), starts.size());
  for (const stats::FctRecord& rec : sc.fct().records()) {
    EXPECT_EQ(rec.start, starts.at(rec.flow - 1)) << "flow id " << rec.flow;
  }
  // Flow ids 2 and 4 share 100 us: index order.
  EXPECT_LT(first.first_id.at(2), first.first_id.at(4));
}

TEST(FlowTable, HeapAndCalendarGiveTheSameRpcDigest) {
  sweep::SweepPoint point;
  point.opts.set("topology", "leafspine");
  point.opts.set("pattern", "rpc");
  point.opts.set("rpcs", "60");
  point.opts.set("seed", "5");
  point.opts.set("digest", "1");
  sweep::SweepPoint heap = point;
  heap.opts.set("sched_queue", "heap");
  const sweep::RunRecord a = sweep::run_scenario(point, /*quiet=*/true);
  const sweep::RunRecord b = sweep::run_scenario(heap, /*quiet=*/true);
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  EXPECT_EQ(a.info.at("digest"), b.info.at("digest"));
  EXPECT_EQ(a.results, b.results);
}

// ---------------------------------------------------------------------------
// Endpoint lifetime

TEST(FlowTable, LiveEndpointsStayBounded) {
  const std::size_t store_before = net::PacketStore::local().live();
  {
    LeafSpineScenario sc(paper_fabric());
    workload::RpcConfig rc;
    rc.num_rpcs = 130;  // 1,040 short flows over about 65 ms
    sim::Rng rng(11);
    workload::Workload wl = workload::generate_rpc_fanout(rc, rng);
    std::set<sim::TimeNs> start_times;
    for (const workload::FlowSpec& f : wl.flows) start_times.insert(f.start);
    sc.add_workload(std::move(wl));
    ASSERT_GE(sc.num_flows(), 1000u);

    // Each check runs right after the starts at its instant. A flow's
    // endpoints are freed at its completion, so what is left is in flight.
    std::size_t checks = 0;
    std::size_t peak = 0;
    for (const sim::TimeNs t : start_times) {
      sc.simulator().schedule_at(t, [&sc, &checks, &peak] {
        std::size_t in_flight = 0;
        for (std::size_t i = 0; i < sc.num_flows(); ++i) {
          in_flight += sc.slot(i).state == FlowSlot::State::kRunning;
        }
        EXPECT_EQ(endpoints_built(sc), in_flight) << "t=" << sc.simulator().now();
        EXPECT_EQ(sc.live_flows().size(), in_flight);
        peak = std::max(peak, endpoints_built(sc));
        ++checks;
      });
    }
    ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
    EXPECT_EQ(checks, start_times.size());
    EXPECT_GT(peak, 0u);
    EXPECT_LT(peak, sc.num_flows() / 4);
    EXPECT_EQ(endpoints_built(sc), 0u);
    EXPECT_EQ(sc.flows_done(), sc.num_flows());
  }
  EXPECT_EQ(net::PacketStore::local().live(), store_before);
}

TEST(FlowTable, PinnedEndpointsOutliveTheRun) {
  LeafSpineScenario sc(small_fabric());
  sc.add_workload({spec(0, 5, 40'000, 0), spec(1, 6, 40'000, sim::microseconds(10)),
                   spec(2, 7, 40'000, sim::milliseconds(20))});
  transport::FlowEndpoints& pinned = sc.flow(1);  // before its start
  EXPECT_EQ(endpoints_built(sc), 1u);
  EXPECT_FALSE(pinned.sender().started());
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  EXPECT_TRUE(pinned.sender().complete());
  EXPECT_EQ(pinned.sender().bytes_acked(), 40'000u);
  EXPECT_EQ(pinned.receiver().rcv_nxt(), 40'000u);
  EXPECT_EQ(&sc.flow(1), &pinned);
  // Flow 0's completion freed it.
  EXPECT_EQ(sc.slot(0).endpoints, nullptr);
  EXPECT_THROW((void)sc.flow(0), std::logic_error);
  EXPECT_EQ(sc.slot(0).acked(), 40'000u);
  EXPECT_GT(sc.slot(0).stats.segments_sent, 0u);
}

namespace {

struct LateRun {
  std::vector<AckRecord> acks;  ///< every ACK leaving leaf1's hosts
  std::uint64_t late_data = 0;  ///< segments that reached a freed flow
  std::string digest;
  std::vector<transport::SenderStats> stats;  ///< the crossing flows'
  std::vector<sim::TimeNs> completions;
  std::uint64_t bytes_acked = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
};

constexpr std::size_t kCrossing = 20;  ///< one-segment flows leaf0 -> leaf1

/// Flows 0..kCrossing-1 send one segment each from leaf0's hosts to leaf1's
/// across leaf0's uplinks, which delay every packet by up to 60 ms. A
/// segment still out at the initial 10 ms timeout is sent again, and the
/// flow completes on whichever copy lands first, which frees its endpoints;
/// the other copy lands later. Short flows inside leaf0 start every 100 us
/// alongside. With `pin`, the crossing flows keep their endpoints, so live
/// receivers answer the late copies instead, and each one's armed
/// retransmission timer later runs as a no-op rather than being called off.
LateRun run_late_duplicates(bool pin) {
  LeafSpineScenario sc(small_fabric());
  std::vector<workload::FlowSpec> specs;
  for (std::size_t i = 0; i < kCrossing; ++i) {
    specs.push_back(spec(static_cast<net::HostId>(i % 4), static_cast<net::HostId>(4 + i % 4),
                         1'000, sim::microseconds(50 * i)));
  }
  for (int i = 0; i < 1000; ++i) specs.push_back(spec(1, 2, 1'000, sim::microseconds(100 * i)));
  sc.add_workload(specs);
  regress::RunDigest digest;
  sc.install_digest(digest);
  faults::FaultPlan plan;
  plan.add_spec_string("delay:leaf0->spine0:0+60ms;delay:leaf0->spine1:0+60ms");
  sc.install_faults(plan, 7);
  faults::InvariantChecker checker(sc.simulator());
  sc.install_invariants(checker);
  faults::Watchdog guard(sc.simulator(), &checker);
  if (pin) {
    for (std::size_t i = 0; i < kCrossing; ++i) (void)sc.flow(i);
  }
  AckLog log;
  LateData late;
  late.fab = &sc;
  for (int h = 4; h < 8; ++h) {
    const std::string host = "h" + std::to_string(h);
    link_between(sc, host, "leaf1").link->add_observer(&log);
    link_between(sc, "leaf1", host).link->add_observer(&late);
  }

  EXPECT_TRUE(sc.run_until_complete(sim::seconds(1)));
  sc.simulator().run();  // let every delayed copy land
  checker.check_now();
  EXPECT_TRUE(checker.clean()) << checker.summary();
  sc.finalize_digest();

  LateRun out;
  out.acks = log.acks;
  out.late_data = late.count;
  out.digest = digest.total().hex();
  for (std::size_t i = 0; i < kCrossing; ++i) {
    out.stats.push_back(sc.slot(i).sender_stats());
    out.completions.push_back(sc.slot(i).completion);
    out.bytes_acked += sc.slot(i).acked();
  }
  out.events = sc.simulator().executed_events();
  out.cancelled = sc.simulator().cancelled_events();
  return out;
}

}  // namespace

TEST(FlowTable, FreedFlowAnswersLateSegmentsAsItsReceiverWould) {
  const LateRun live = run_late_duplicates(/*pin=*/true);
  const LateRun freed = run_late_duplicates(/*pin=*/false);
  std::uint64_t retransmits = 0;
  for (const transport::SenderStats& st : live.stats) retransmits += st.retransmits;
  EXPECT_GT(retransmits, 0u);
  EXPECT_EQ(live.late_data, 0u);
  EXPECT_GT(freed.late_data, 0u) << "no segment reached a freed flow";
  // Every ACK, the late ones included, is the one a live receiver sent.
  ASSERT_EQ(freed.acks.size(), live.acks.size());
  for (std::size_t i = 0; i < live.acks.size(); ++i) {
    EXPECT_EQ(freed.acks[i], live.acks[i]) << "ack " << i;
  }
  // The ACKs that come back change nothing at the freed senders. Each
  // crossing flow's retransmission timer, armed at completion, runs as a
  // no-op when pinned and is a tombstone when freed.
  EXPECT_EQ(freed.digest, live.digest);
  EXPECT_EQ(freed.events + kCrossing, live.events);
  EXPECT_EQ(freed.cancelled - live.cancelled, kCrossing);
  EXPECT_EQ(live.bytes_acked, kCrossing * 1'000u);
  EXPECT_EQ(freed.bytes_acked, live.bytes_acked);
  EXPECT_EQ(freed.completions, live.completions);
  for (std::size_t i = 0; i < kCrossing; ++i) {
    EXPECT_EQ(freed.stats[i].segments_sent, live.stats[i].segments_sent) << "flow " << i;
    EXPECT_EQ(freed.stats[i].acks_received, live.stats[i].acks_received) << "flow " << i;
    EXPECT_EQ(freed.stats[i].retransmits, live.stats[i].retransmits) << "flow " << i;
    EXPECT_EQ(freed.stats[i].timeouts, live.stats[i].timeouts) << "flow " << i;
  }
}
