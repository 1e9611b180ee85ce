// Integration tests on the 48-host leaf-spine fabric: connectivity, ECMP
// utilisation, FCT collection, a small scheme sanity comparison, and packet
// storage released by a fabric destroyed mid-run.
#include <gtest/gtest.h>

#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "net/packet_store.hpp"
#include "sim/rng.hpp"
#include "workload/size_dist.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

LeafSpineConfig small_fabric(Scheme scheme) {
  LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.link_delay = sim::microseconds(2);
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 4;
  cfg.scheduler.weights.assign(4, 1.0);
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds(30);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(scheme, params);
  cfg.transport.init_cwnd_segments = 16;
  apply_scheme_transport(scheme, params, sim::microseconds(25), cfg.transport);
  return cfg;
}

}  // namespace

TEST(LeafSpine, PaperTopologyShape) {
  LeafSpineConfig cfg;  // defaults = paper: 4x4, 12 hosts/leaf
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.marking.kind = ecn::MarkingKind::kNone;
  LeafSpineScenario sc(cfg);
  EXPECT_EQ(sc.num_hosts(), 48u);
  // Each leaf: 12 host ports + 4 uplinks; each spine: 4 downlinks.
  EXPECT_EQ(sc.leaf(0).num_ports(), 16u);
  EXPECT_EQ(sc.spine(0).num_ports(), 4u);
}

TEST(LeafSpine, IntraRackFlowCompletes) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  sc.add_workload({{.src = 0, .dst = 1, .service = 0, .bytes = 100'000, .start = 0}});
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(1)));
  EXPECT_EQ(sc.fct().count(), 1u);
}

TEST(LeafSpine, InterRackFlowCrossesSpine) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  sc.add_workload({{.src = 0, .dst = 5, .service = 0, .bytes = 100'000, .start = 0}});
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(1)));
  // Some spine port must have carried traffic.
  std::uint64_t spine_pkts = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t p = 0; p < sc.spine(s).num_ports(); ++p) {
      spine_pkts += sc.spine(s).port(p).stats().dequeued_packets;
    }
  }
  EXPECT_GT(spine_pkts, 50u);
}

TEST(LeafSpine, EcmpUsesMultipleSpines) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  std::vector<workload::FlowSpec> specs;
  for (int i = 0; i < 24; ++i) {
    specs.push_back({.src = static_cast<net::HostId>(i % 4),
                     .dst = static_cast<net::HostId>(4 + i % 4),
                     .service = static_cast<net::ServiceId>(i % 4),
                     .bytes = 50'000,
                     .start = sim::microseconds(i * 10)});
  }
  sc.add_workload(specs);
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(1)));
  int spines_used = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    std::uint64_t pkts = 0;
    for (std::size_t p = 0; p < sc.spine(s).num_ports(); ++p) {
      pkts += sc.spine(s).port(p).stats().dequeued_packets;
    }
    if (pkts > 0) ++spines_used;
  }
  EXPECT_EQ(spines_used, 2);
}

TEST(LeafSpine, PoissonWorkloadAllFlowsComplete) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = sc.num_hosts();
  tc.load = 0.4;
  tc.num_flows = 60;
  tc.num_services = 4;
  auto dist = workload::FlowSizeDistribution::web_search();
  sim::Rng rng(123);
  sc.add_workload(workload::generate_poisson_traffic(tc, dist, rng));
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(10)));
  EXPECT_EQ(sc.fct().count(), 60u);
  EXPECT_EQ(sc.completed_flows(), 60u);
  // Small flows finish much faster than large ones on average.
  const auto small = sc.fct().fct_us(stats::SizeBin::kSmall);
  const auto large = sc.fct().fct_us(stats::SizeBin::kLarge);
  if (!small.empty() && !large.empty()) {
    EXPECT_LT(small.mean(), large.mean());
  }
}

TEST(LeafSpine, MarksHappenUnderLoad) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  // Incast: 6 senders to one receiver, long enough to congest.
  std::vector<workload::FlowSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back({.src = static_cast<net::HostId>(i + 1),
                     .dst = 0,
                     .service = static_cast<net::ServiceId>(i % 4),
                     .bytes = 2'000'000,
                     .start = 0});
  }
  sc.add_workload(specs);
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(5)));
  EXPECT_GT(sc.total_marks(), 100u);
}

TEST(LeafSpine, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto cfg = small_fabric(Scheme::kPmsb);
    LeafSpineScenario sc(cfg);
    workload::TrafficConfig tc;
    tc.num_hosts = 8;
    tc.load = 0.5;
    tc.num_flows = 30;
    tc.num_services = 4;
    auto dist = workload::FlowSizeDistribution::web_search();
    sim::Rng rng(7);
    sc.add_workload(workload::generate_poisson_traffic(tc, dist, rng));
    sc.run_until_complete(sim::seconds(5));
    return sc.fct().overall_fct_us().mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(LeafSpine, SlowdownMetricSensible) {
  auto cfg = small_fabric(Scheme::kPmsb);
  LeafSpineScenario sc(cfg);
  sc.add_workload({{.src = 0, .dst = 5, .service = 0, .bytes = 500'000, .start = 0}});
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(5)));
  const auto s = sc.fct().slowdown(stats::SizeBin::kMedium, sim::gbps(10),
                                   sc.base_rtt_interrack());
  ASSERT_EQ(s.count(), 1u);
  // Alone on the fabric: near-ideal, and never below 1.
  EXPECT_GE(s.mean(), 1.0);
  EXPECT_LT(s.mean(), 1.6);
}

TEST(LeafSpine, BaseRttFormulaSane) {
  auto cfg = small_fabric(Scheme::kNone);
  LeafSpineScenario sc(cfg);
  // 8 propagation legs of 2 us + 4 data serialisations of 1.2 us + ACKs.
  EXPECT_GT(sc.base_rtt_interrack(), sim::microseconds(20));
  EXPECT_LT(sc.base_rtt_interrack(), sim::microseconds(25));
}

// A run stopped by its horizon leaves packets in switch queues, NIC queues
// and on the wire; destroying the fabric hands every one of their nodes back
// to the thread's PacketStore.
TEST(LeafSpine, FabricDestroyedMidRunReturnsEveryStoredPacket) {
  net::PacketStore& store = net::PacketStore::local();
  const std::size_t before = store.live();
  {
    auto cfg = small_fabric(Scheme::kPmsb);
    LeafSpineScenario sc(cfg);
    std::vector<workload::FlowSpec> specs;
    for (int i = 0; i < 6; ++i) {  // incast onto host 0, half across the spines
      specs.push_back({.src = static_cast<net::HostId>(i + 1),
                       .dst = 0,
                       .service = static_cast<net::ServiceId>(i % 4),
                       .bytes = 2'000'000,
                       .start = 0});
    }
    sc.add_workload(specs);
    EXPECT_FALSE(sc.run_until_complete(sim::microseconds(300)));
    std::size_t queued = 0;
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t p = 0; p < sc.leaf(l).num_ports(); ++p) {
        queued += sc.leaf(l).port(p).buffered_packets();
      }
    }
    EXPECT_GT(queued, 0u);
    // The rest of the stored packets are on the wire or in NIC queues.
    EXPECT_GT(store.live(), before + queued);
  }
  EXPECT_EQ(store.live(), before);
}
