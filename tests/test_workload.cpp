// Tests for flow-size distributions and the Poisson traffic generator.
#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "stats/fct.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace pmsb;
using namespace pmsb::workload;

TEST(SizeDist, RejectsBadCdfs) {
  using P = FlowSizeDistribution::CdfPoint;
  EXPECT_THROW(FlowSizeDistribution("x", {P{100, 1.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {P{100, 0.5}, P{50, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {P{100, 0.5}, P{200, 0.4}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("x", {P{100, 0.0}, P{200, 0.9}}),
               std::invalid_argument);
}

TEST(SizeDist, SamplesWithinSupport) {
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto s = d.sample(rng);
    EXPECT_GE(s, d.points().front().bytes);
    EXPECT_LE(s, d.points().back().bytes);
  }
}

TEST(SizeDist, PaperMixProportions) {
  // 60% small (<100 kB), 10% large (>10 MB) — §VI.B.
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(2);
  int small = 0, large = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto s = d.sample(rng);
    if (stats::size_bin(s) == stats::SizeBin::kSmall) ++small;
    if (stats::size_bin(s) == stats::SizeBin::kLarge) ++large;
  }
  EXPECT_NEAR(static_cast<double>(small) / n, 0.60, 0.02);
  EXPECT_NEAR(static_cast<double>(large) / n, 0.10, 0.01);
}

TEST(SizeDist, EmpiricalMeanMatchesAnalyticMean) {
  for (const auto* name : {"paper-mix", "web-search", "data-mining"}) {
    auto d = FlowSizeDistribution::by_name(name);
    sim::Rng rng(3);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
    EXPECT_NEAR(sum / n / d.mean_bytes(), 1.0, 0.03) << name;
  }
}

TEST(SizeDist, CdfRoundTrip) {
  auto d = FlowSizeDistribution::web_search();
  EXPECT_DOUBLE_EQ(d.cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(40'000'000), 1.0);
  EXPECT_NEAR(d.cdf(2'000'000), 0.80, 1e-9);
  EXPECT_GT(d.cdf(1'000'000), d.cdf(100'000));
}

TEST(SizeDist, FixedIsDeterministic) {
  auto d = FlowSizeDistribution::fixed(12345);
  sim::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto s = d.sample(rng);
    EXPECT_GE(s, 12345u);
    EXPECT_LE(s, 12346u);
  }
}

TEST(SizeDist, ByNameThrowsOnUnknown) {
  EXPECT_THROW(FlowSizeDistribution::by_name("nope"), std::invalid_argument);
}

// --- boundary behavior at the CDF knots --------------------------------

TEST(SizeDist, QuantileHitsEveryKnotExactly) {
  for (const auto* name : {"paper-mix", "web-search", "data-mining"}) {
    auto d = FlowSizeDistribution::by_name(name);
    for (const auto& p : d.points()) {
      EXPECT_EQ(d.quantile(p.prob), p.bytes) << name << " knot p=" << p.prob;
    }
  }
}

TEST(SizeDist, QuantileBelowFirstKnotClampsToMinSize) {
  auto d = FlowSizeDistribution::paper_mix();
  const auto min_bytes = d.points().front().bytes;
  EXPECT_EQ(d.quantile(0.0), min_bytes);
  // paper_mix's first knot carries zero mass, so any u at or below it (and
  // the open interval down to 0) maps to the minimum flow size.
  EXPECT_EQ(d.quantile(1e-12), min_bytes);
  EXPECT_EQ(d.quantile(1.0), d.points().back().bytes);
}

TEST(SizeDist, QuantileInterpolatesLinearlyBetweenKnots) {
  // paper_mix segment [0.60, 0.78] spans [100 kB, 1 MB]; the midpoint of
  // the probability span maps to the midpoint of the byte span (within one
  // byte of truncation).
  auto d = FlowSizeDistribution::paper_mix();
  EXPECT_NEAR(static_cast<double>(d.quantile(0.69)), 550'000.0, 1.0);
}

TEST(SizeDist, CdfAtAndBelowFirstPoint) {
  using P = FlowSizeDistribution::CdfPoint;
  // First knot with non-zero mass: an atom at the minimum size.
  FlowSizeDistribution d("atom", {P{1'000, 0.25}, P{2'000, 1.0}});
  EXPECT_DOUBLE_EQ(d.cdf(999), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1'000), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2'000), 1.0);
  EXPECT_EQ(d.quantile(0.25), 1'000u);
  EXPECT_EQ(d.quantile(0.10), 1'000u);  // inside the atom's mass
}

TEST(SizeDist, QuantileCdfRoundTripAtKnots) {
  auto d = FlowSizeDistribution::web_search();
  for (const auto& p : d.points()) {
    EXPECT_NEAR(d.cdf(d.quantile(p.prob)), p.prob, 1e-9);
  }
}

TEST(SizeDist, FixedRoundTripAndMean) {
  auto d = FlowSizeDistribution::fixed(12345);
  // fixed(b) is the two-point CDF {(b,0),(b+1,1)}: every u < 1 truncates to
  // b, u == 1 lands on b+1, and the analytic mean is the segment midpoint.
  EXPECT_EQ(d.quantile(0.0), 12345u);
  EXPECT_EQ(d.quantile(0.5), 12345u);
  EXPECT_EQ(d.quantile(0.999999), 12345u);
  EXPECT_EQ(d.quantile(1.0), 12346u);
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 12345.5);
}

TEST(SizeDist, MeanBytesMatchesClosedForm) {
  using P = FlowSizeDistribution::CdfPoint;
  // Uniform on [100, 200]: mean 150.
  FlowSizeDistribution u("uniform", {P{100, 0.0}, P{200, 1.0}});
  EXPECT_DOUBLE_EQ(u.mean_bytes(), 150.0);
  // Piecewise: 0.5 * mid(100,200) + 0.5 * mid(200,1000) = 75 + 300.
  FlowSizeDistribution p("pw", {P{100, 0.0}, P{200, 0.5}, P{1'000, 1.0}});
  EXPECT_DOUBLE_EQ(p.mean_bytes(), 375.0);
  // paper_mix by hand from its knot table (segment masses at double
  // precision, midpoint rule per segment).
  auto d = FlowSizeDistribution::paper_mix();
  const double expect = (0.35 - 0.0) * 0.5 * (2'000.0 + 30'000.0) +
                        (0.60 - 0.35) * 0.5 * (30'000.0 + 100'000.0) +
                        (0.78 - 0.60) * 0.5 * (100'000.0 + 1'000'000.0) +
                        (0.90 - 0.78) * 0.5 * (1'000'000.0 + 10'000'000.0) +
                        (1.0 - 0.90) * 0.5 * (10'000'000.0 + 30'000'000.0);
  EXPECT_NEAR(d.mean_bytes(), expect, 1e-6);
}

TEST(TrafficGen, GeneratesRequestedCount) {
  TrafficConfig cfg;
  cfg.num_flows = 500;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(5);
  const auto flows = generate_poisson_traffic(cfg, d, rng);
  EXPECT_EQ(flows.size(), 500u);
}

TEST(TrafficGen, ArrivalsAreMonotoneAndAfterStart) {
  TrafficConfig cfg;
  cfg.num_flows = 300;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(6);
  const auto flows = generate_poisson_traffic(cfg, d, rng);
  sim::TimeNs prev = 0;  // arrivals start at time 0
  for (const auto& f : flows) {
    EXPECT_GE(f.start, prev);
    prev = f.start;
  }
}

TEST(TrafficGen, SrcNeverEqualsDst) {
  TrafficConfig cfg;
  cfg.num_flows = 1000;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(7);
  for (const auto& f : generate_poisson_traffic(cfg, d, rng)) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.src, cfg.num_hosts);
    EXPECT_LT(f.dst, cfg.num_hosts);
  }
}

TEST(TrafficGen, ServicesAssignedEvenly) {
  TrafficConfig cfg;
  cfg.num_flows = 800;
  cfg.num_services = 8;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(8);
  std::vector<int> counts(8, 0);
  for (const auto& f : generate_poisson_traffic(cfg, d, rng)) ++counts[f.service];
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(TrafficGen, MeanArrivalRateMatchesLoad) {
  TrafficConfig cfg;
  cfg.num_hosts = 48;
  cfg.load = 0.5;
  cfg.num_flows = 20000;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(9);
  const auto flows = generate_poisson_traffic(cfg, d, rng);
  const double duration_s = sim::to_seconds(flows.back().start);
  const double measured_rate = static_cast<double>(flows.size()) / duration_s;
  EXPECT_NEAR(measured_rate / poisson_arrival_rate(cfg, d), 1.0, 0.05);
}

TEST(TrafficGen, InterRackOnlyRespectsRacks) {
  TrafficConfig cfg;
  cfg.num_flows = 500;
  cfg.rack_local_allowed = false;
  cfg.hosts_per_rack = 12;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(10);
  for (const auto& f : generate_poisson_traffic(cfg, d, rng)) {
    EXPECT_NE(f.src / 12, f.dst / 12);
  }
}

TEST(TrafficGen, HigherLoadPacksArrivalsTighter) {
  auto d = FlowSizeDistribution::paper_mix();
  TrafficConfig lo;
  lo.load = 0.2;
  lo.num_flows = 2000;
  TrafficConfig hi = lo;
  hi.load = 0.8;
  sim::Rng r1(11), r2(11);
  const auto flows_lo = generate_poisson_traffic(lo, d, r1);
  const auto flows_hi = generate_poisson_traffic(hi, d, r2);
  EXPECT_GT(flows_lo.back().start, flows_hi.back().start * 3);
}

// --- named RNG sub-streams (workload plane v2) --------------------------

namespace {

/// Order-sensitive FNV-1a over every generated field: any change to any
/// sub-stream's sequence shows up here.
std::uint64_t spec_stream_hash(const std::vector<FlowSpec>& flows) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const auto& f : flows) {
    mix(f.src);
    mix(f.dst);
    mix(f.service);
    mix(f.bytes);
    mix(static_cast<std::uint64_t>(f.start));
  }
  return h;
}

}  // namespace

TEST(TrafficGenStreams, DigestIdentityPin) {
  // Golden pin for the "poisson.arrival" / "poisson.size" /
  // "poisson.endpoints" sub-stream split in traffic_gen.cpp: renaming or
  // reordering the forks changes every regression baseline, so it must
  // never happen silently. If this fails on purpose, refresh the pinned
  // value AND the recorded digest baselines together.
  TrafficConfig cfg;
  cfg.num_flows = 200;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(42);
  const auto flows = generate_poisson_traffic(cfg, d, rng);
  EXPECT_EQ(spec_stream_hash(flows), 0x87400cc022424fe3ull);
}

TEST(TrafficGenStreams, CallerRngIsNotAdvanced) {
  TrafficConfig cfg;
  cfg.num_flows = 100;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng rng(21);
  (void)generate_poisson_traffic(cfg, d, rng);
  // fork() derives from the seed without drawing, so the caller's stream
  // is untouched — a second workload family can share the same Rng.
  EXPECT_DOUBLE_EQ(rng.uniform(), sim::Rng(21).uniform());
}

TEST(TrafficGenStreams, EndpointDrawsDoNotPerturbArrivalsOrSizes) {
  // rack_local_allowed=false makes the endpoint rejection loop draw MORE
  // values; with a shared stream that used to shift every later size and
  // arrival. With named sub-streams only (src, dst) may change.
  TrafficConfig any;
  any.num_flows = 400;
  TrafficConfig inter_rack = any;
  inter_rack.rack_local_allowed = false;
  auto d = FlowSizeDistribution::paper_mix();
  sim::Rng r1(17), r2(17);
  const auto a = generate_poisson_traffic(any, d, r1);
  const auto b = generate_poisson_traffic(inter_rack, d, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
  }
}

TEST(TrafficGenStreams, SizeDistributionDoesNotPerturbEndpoints) {
  // Swapping the size distribution changes sizes (and the arrival rate's
  // scale) but must leave the endpoint sequence alone.
  TrafficConfig cfg;
  cfg.num_flows = 400;
  sim::Rng r1(23), r2(23);
  const auto a = generate_poisson_traffic(cfg, FlowSizeDistribution::paper_mix(), r1);
  const auto b = generate_poisson_traffic(cfg, FlowSizeDistribution::web_search(), r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src) << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << i;
  }
}

TEST(TrafficGen, DeterministicGivenSeed) {
  auto d = FlowSizeDistribution::paper_mix();
  TrafficConfig cfg;
  cfg.num_flows = 100;
  sim::Rng r1(42), r2(42);
  const auto a = generate_poisson_traffic(cfg, d, r1);
  const auto b = generate_poisson_traffic(cfg, d, r2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
}
