// Tests for the analysis metrics: Jain fairness, convergence time and link
// utilization.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "sim/units.hpp"

using namespace pmsb;
using namespace pmsb::analysis;

TEST(JainIndex, PerfectlyFairIsOne) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({2.5}), 1.0);
}

TEST(JainIndex, StarvationApproachesOneOverN) {
  const double j = jain_index({10.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(j, 0.25, 1e-9);
}

TEST(JainIndex, KnownIntermediateValue) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, EmptyThrows) {
  EXPECT_THROW(jain_index({}), std::invalid_argument);
}

TEST(WeightedJain, WeightedFairShareScoresOne) {
  // Allocations proportional to 1:2:3 weights.
  EXPECT_NEAR(weighted_jain_index({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(WeightedJain, UnweightedViolationScoresBelowOne) {
  EXPECT_LT(weighted_jain_index({3.0, 3.0}, {1.0, 2.0}), 1.0);
  EXPECT_THROW(weighted_jain_index({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(weighted_jain_index({1.0}, {0.0}), std::invalid_argument);
}

TEST(Convergence, FindsSettlingPoint) {
  std::vector<TimePoint> series = {{0, 0.1}, {10, 0.3}, {20, 0.48}, {30, 0.52},
                                   {40, 0.49}, {50, 0.51}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), 20);
}

TEST(Convergence, LateExcursionResets) {
  std::vector<TimePoint> series = {{0, 0.5}, {10, 0.5}, {20, 0.9}, {30, 0.5}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), 30);
}

TEST(Convergence, NeverSettles) {
  std::vector<TimePoint> series = {{0, 0.1}, {10, 0.9}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), sim::kTimeNever);
}

TEST(Utilization, FullLinkIsOne) {
  // 10G for 1 ms = 1.25 MB.
  EXPECT_NEAR(utilization(1'250'000, 0, sim::milliseconds(1), sim::gbps(10)), 1.0,
              1e-9);
  EXPECT_THROW(utilization(1, 10, 10, sim::gbps(10)), std::invalid_argument);
}
