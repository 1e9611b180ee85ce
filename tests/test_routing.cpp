// Tests for RoutingTable and ECMP flow hashing.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/routing.hpp"

using namespace pmsb::net;

namespace {
Packet packet_for(HostId src, HostId dst, FlowId flow) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.flow_id = flow;
  return p;
}
}  // namespace

TEST(Routing, SingleRouteAlwaysSelected) {
  RoutingTable rt;
  rt.add_route(3, 7);
  EXPECT_EQ(rt.select_port(packet_for(0, 3, 1), 0), 7u);
  EXPECT_EQ(rt.select_port(packet_for(5, 3, 99), 123), 7u);
}

TEST(Routing, MissingRouteThrows) {
  RoutingTable rt;
  rt.add_route(3, 7);
  EXPECT_THROW((void)rt.select_port(packet_for(0, 4, 1), 0), std::out_of_range);
  EXPECT_FALSE(rt.has_route(4));
  EXPECT_TRUE(rt.has_route(3));
}

TEST(Routing, EcmpIsPerFlowStable) {
  RoutingTable rt;
  for (std::size_t p = 0; p < 4; ++p) rt.add_route(9, p);
  // Every packet of the same flow takes the same path.
  const std::size_t first = rt.select_port(packet_for(1, 9, 42), 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rt.select_port(packet_for(1, 9, 42), 5), first);
  }
}

TEST(Routing, EcmpSpreadsFlows) {
  RoutingTable rt;
  for (std::size_t p = 0; p < 4; ++p) rt.add_route(9, p);
  std::vector<int> counts(4, 0);
  for (FlowId f = 0; f < 4000; ++f) {
    ++counts[rt.select_port(packet_for(1, 9, f), 5)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Routing, SaltDecorrelatesSwitches) {
  RoutingTable rt;
  for (std::size_t p = 0; p < 4; ++p) rt.add_route(9, p);
  int differing = 0;
  for (FlowId f = 0; f < 1000; ++f) {
    if (rt.select_port(packet_for(1, 9, f), 111) !=
        rt.select_port(packet_for(1, 9, f), 222)) {
      ++differing;
    }
  }
  // With 4 candidates ~75% should differ between salts.
  EXPECT_GT(differing, 600);
}

TEST(Routing, HashAvalanche) {
  // Neighbouring flow ids should not map to neighbouring hash values.
  std::set<std::uint64_t> buckets;
  for (FlowId f = 0; f < 64; ++f) buckets.insert(flow_hash(1, 2, f, 0) % 4);
  EXPECT_EQ(buckets.size(), 4u);
}

TEST(Routing, CandidatesAccessor) {
  RoutingTable rt;
  rt.add_route(2, 0);
  rt.add_route(2, 1);
  EXPECT_EQ(rt.candidates(2).size(), 2u);
}

// The port choice is exactly candidates[flow_hash(src, dst, flow, salt) % n]
// for every flow, whether or not n is a power of two; the spread tests above
// would pass for any balanced choice.
TEST(Routing, EcmpPicksTheHashModuloTheCandidateCount) {
  for (const std::size_t n : {2u, 3u, 4u, 5u, 8u}) {
    RoutingTable rt;
    // Ports numbered apart from their position, so an index slip shows.
    for (std::size_t i = 0; i < n; ++i) rt.add_route(6, 100 + 7 * i);
    const std::vector<std::size_t>& candidates = rt.candidates(6);
    for (const std::uint64_t salt : {0ull, 0x5eedull, ~0ull}) {
      for (FlowId flow = 1; flow <= 2000; ++flow) {
        const HostId src = static_cast<HostId>(flow % 37);
        const std::size_t want = candidates[flow_hash(src, 6, flow, salt) % n];
        ASSERT_EQ(rt.select_port(packet_for(src, 6, flow), salt), want)
            << "n=" << n << " salt=" << salt << " flow=" << flow;
      }
    }
  }
}
