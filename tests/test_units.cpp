// Tests for time and bandwidth unit helpers.
#include <gtest/gtest.h>

#include "sim/time.hpp"
#include "sim/units.hpp"

using namespace pmsb::sim;

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(microseconds_f(1.5), 1500);
  EXPECT_EQ(seconds_f(0.25), 250'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
}

TEST(Units, RateFactories) {
  EXPECT_EQ(kbps(1), 1'000u);
  EXPECT_EQ(mbps(1), 1'000'000u);
  EXPECT_EQ(gbps(10), 10'000'000'000u);
}

TEST(Units, SerializationDelayMtuAt10G) {
  // 1500 B at 10 Gbps = 1.2 us.
  EXPECT_EQ(serialization_delay(1500, gbps(10)), 1200);
}

TEST(Units, SerializationDelayMtuAt1G) {
  EXPECT_EQ(serialization_delay(1500, gbps(1)), 12000);
}

TEST(Units, SerializationDelayRoundsUp) {
  // 1 byte at 10 Gbps = 0.8 ns -> rounds to 1 ns.
  EXPECT_EQ(serialization_delay(1, gbps(10)), 1);
}

TEST(Units, PaperDrainExample) {
  // Paper §II.C: draining 16 packets of ~1500 B at 10 Gbps is ~19.2 us.
  EXPECT_NEAR(static_cast<double>(serialization_delay(16 * 1500, gbps(10))),
              microseconds_f(19.2), 1.0);
}

TEST(Units, BdpBytes) {
  // 10 Gbps * 80 us = 100 kB.
  EXPECT_EQ(bdp_bytes(gbps(10), microseconds(80)), 100'000u);
}

TEST(Units, PacketsToBytes) {
  EXPECT_EQ(packets_to_bytes(16), 24000u);
  EXPECT_EQ(packets_to_bytes(1.5), 2250u);
}

TEST(Units, MssMatchesMtuMinusHeaders) {
  EXPECT_EQ(kDefaultMssBytes, kDefaultMtuBytes - kHeaderBytes);
}
