// Tests for Eq. 2's fractional split and the steady-state analysis of
// §IV.D (Eq. 7-12, Theorem IV.1).
#include <gtest/gtest.h>

#include <numeric>

#include "core/thresholds.hpp"
#include "ecn/per_queue.hpp"
#include "experiments/presets.hpp"

using namespace pmsb;
using namespace pmsb::core;

TEST(Thresholds, FractionalEq2SumsToStandard) {
  // Eq. 2 splits the standard K (Eq. 1, C * RTT) by weight; the queues'
  // thresholds sum back to K within rounding.
  experiments::SchemeParams p;
  p.capacity = sim::gbps(10);
  p.rtt = sim::microseconds(80);
  const std::uint64_t k = experiments::standard_k_bytes(p);
  const auto thresholds = ecn::PerQueueMarking::fractional_thresholds({1.0, 2.0, 5.0}, k);
  const std::uint64_t sum =
      std::accumulate(thresholds.begin(), thresholds.end(), std::uint64_t{0});
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(k), 2.0);
}

TEST(Thresholds, BandwidthShare) {
  EXPECT_DOUBLE_EQ(bandwidth_share(1.0, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(bandwidth_share(3.0, 3.0), 1.0);
}

TEST(Theorem41, BoundScalesWithWeightShare) {
  const sim::RateBps c = sim::gbps(10);
  const sim::TimeNs rtt = sim::microseconds(70);
  const double full = theorem41_min_queue_threshold_bytes(c, rtt, 1.0, 1.0);
  const double half = theorem41_min_queue_threshold_bytes(c, rtt, 1.0, 2.0);
  EXPECT_NEAR(half * 2.0, full, 1e-6);
  EXPECT_NEAR(full, static_cast<double>(sim::bdp_bytes(c, rtt)) / 7.0, 1e-6);
}

TEST(Theorem41, QueueBoundsSumToPortBound) {
  const sim::RateBps c = sim::gbps(10);
  const sim::TimeNs rtt = sim::microseconds(70);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  double sum = 0;
  for (double wi : w) sum += theorem41_min_queue_threshold_bytes(c, rtt, wi, 10.0);
  EXPECT_NEAR(sum, static_cast<double>(sim::bdp_bytes(c, rtt)) / 7.0, 1e-6);
}

TEST(SteadyState, QMaxEq8) {
  // Q_max = k + n segments.
  EXPECT_DOUBLE_EQ(q_max_bytes(15000.0, 10.0, 1500.0), 30000.0);
}

TEST(SteadyState, AmplitudeEq9) {
  // In segments: A = 0.5 * sqrt(2 * n * (gamma*CxRTT + k)).
  const double mss = 1500.0;
  const double amp = oscillation_amplitude_bytes(/*n=*/8, /*gamma=*/0.5,
                                                 /*cxrtt=*/60000.0, /*k=*/15000.0, mss);
  const double expected_seg = 0.5 * std::sqrt(2.0 * 8.0 * (0.5 * 40.0 + 10.0));
  EXPECT_NEAR(amp / mss, expected_seg, 1e-9);
}

TEST(SteadyState, QMinLowerBoundEq10AtWorstCaseN) {
  // At n_i from Eq. 11, Q_min equals the Eq. 10 closed form.
  const double mss = 1500.0;
  const double gamma = 0.5;
  const double cxrtt = 90000.0;
  const double k = 30000.0;
  const double n_star = worst_case_flow_count(gamma, cxrtt, k, mss);
  const double qmin = q_min_bytes(k, n_star, gamma, cxrtt, mss);
  const double bound = q_min_lower_bound_bytes(k, gamma, cxrtt);
  EXPECT_NEAR(qmin, bound, 1.0);
}

TEST(SteadyState, QMinIsMinimisedAtWorstCaseN) {
  const double mss = 1500.0;
  const double gamma = 1.0;
  const double cxrtt = 120000.0;
  const double k = 40000.0;
  const double n_star = worst_case_flow_count(gamma, cxrtt, k, mss);
  const double at_star = q_min_bytes(k, n_star, gamma, cxrtt, mss);
  for (double n : {n_star * 0.5, n_star * 0.8, n_star * 1.25, n_star * 2.0}) {
    EXPECT_GE(q_min_bytes(k, n, gamma, cxrtt, mss), at_star - 1.0) << "n=" << n;
  }
}

TEST(SteadyState, TheoremGuaranteesPositiveQMin) {
  // For k above the Theorem IV.1 bound, the worst-case Q_min must be > 0;
  // below the bound it must dip negative (underflow -> throughput loss).
  const double mss = 1500.0;
  const double gamma = 0.5;
  const sim::RateBps c = sim::gbps(10);
  const sim::TimeNs rtt = sim::microseconds(80);
  const double cxrtt = static_cast<double>(sim::bdp_bytes(c, rtt));
  const double bound = theorem41_min_queue_threshold_bytes(c, rtt, 1.0, 2.0);
  {
    const double k = bound * 1.15;
    const double n = worst_case_flow_count(gamma, cxrtt, k, mss);
    EXPECT_GT(q_min_bytes(k, n, gamma, cxrtt, mss), 0.0);
  }
  {
    const double k = bound * 0.80;
    const double n = worst_case_flow_count(gamma, cxrtt, k, mss);
    EXPECT_LT(q_min_bytes(k, n, gamma, cxrtt, mss), 0.0);
  }
}
