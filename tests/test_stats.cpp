// Tests for the statistics utilities: Summary (against a plain sorted
// vector, and through a dumbbell run), FctCollector, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sim/rng.hpp"
#include "sim/units.hpp"
#include "stats/fct.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"

using namespace pmsb;
using namespace pmsb::stats;

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
}

TEST(Summary, MeanAndExtremes) {
  Summary s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Summary, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
}

TEST(Summary, SingleSampleAllPercentiles) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(Summary, AddAfterPercentileResorts) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

namespace {

/// The plain-vector Summary of old: every sample kept, the mean summed in
/// insertion order, order statistics from a sorted copy.
class ReferenceSummary {
 public:
  void add(double v) { samples_.push_back(v); }
  [[nodiscard]] double mean() const {
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
  }
  [[nodiscard]] double percentile(double p) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted[0];
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

 private:
  std::vector<double> samples_;
};

/// Every statistic of `s` equals the reference's, bit for bit.
void expect_matches(const Summary& s, const ReferenceSummary& ref, std::size_t n) {
  ASSERT_EQ(s.count(), n);
  EXPECT_EQ(s.mean(), ref.mean());
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(s.percentile(p), ref.percentile(p)) << "p" << p << " after " << n;
  }
  EXPECT_EQ(s.min(), ref.percentile(0));
  EXPECT_EQ(s.max(), ref.percentile(100));
}

/// Feeds `n` draws of `draw` to a Summary and the reference, checking every
/// statistic every `query_every` adds (0: only at the end).
template <class Draw>
void check_stream(std::size_t n, std::size_t query_every, Draw draw) {
  Summary s;
  ReferenceSummary ref;
  for (std::size_t i = 1; i <= n; ++i) {
    const double v = draw();
    s.add(v);
    ref.add(v);
    if (query_every != 0 && i % query_every == 0) expect_matches(s, ref, i);
  }
  expect_matches(s, ref, n);
}

}  // namespace

TEST(Summary, FewDistinctValuesMatchTheSortedVector) {
  // An RTT-like stream: a handful of serialization-quantized values.
  sim::Rng rng(11);
  const double values[] = {14.4, 15.6, 16.8, 18.0, 19.2, 20.4, 21.6, 22.8, 24.0};
  check_stream(50'000, 0, [&] { return values[rng.uniform_int(0, 8)]; });
}

TEST(Summary, AllDistinctValuesMatchTheSortedVector) {
  sim::Rng rng(12);
  check_stream(20'000, 5'000, [&] { return rng.exponential(100.0); });
}

TEST(Summary, InterleavedQueriesMatchTheSortedVector) {
  // Starts with few distinct values, then drifts through a pool a third the
  // size of the stream, with every statistic read along the way.
  sim::Rng rng(13);
  std::size_t i = 0;
  check_stream(9'000, 700, [&] {
    ++i;
    if (i < 3'000) return 1.0 + static_cast<double>(rng.uniform_int(0, 30));
    return static_cast<double>(rng.uniform_int(0, 3'000)) * 0.25;
  });
}

TEST(Summary, MeanDoesNotDependOnQueries) {
  // Magnitudes far apart, so the sum depends on the order of its terms.
  sim::Rng rng(14);
  Summary s;
  for (int i = 0; i < 5'000; ++i) {
    s.add(rng.uniform(0.0, 1.0) * (i % 3 == 0 ? 1e12 : 1e-3));
  }
  const double before = s.mean();
  EXPECT_GT(s.percentile(99), 0.0);
  EXPECT_EQ(s.mean(), before);
  s.add(0.5);
  const double with_one_more = s.mean();
  EXPECT_GT(s.min(), -1.0);
  EXPECT_EQ(s.mean(), with_one_more);
}

TEST(Summary, DumbbellRttMeanIsTheSameQuietOrPrinted) {
  // A printed run reads the RTT p99 before the mean; a sweep cell reads
  // the mean first. Both must report the same mean.
  sweep::SweepPoint point;
  point.opts.set("topology", "dumbbell");
  point.opts.set("duration_ms", "20");
  const auto quiet = sweep::run_scenario(point, /*quiet=*/true);
  const auto printed = sweep::run_scenario(point, /*quiet=*/false);
  ASSERT_TRUE(quiet.ok);
  ASSERT_TRUE(printed.ok);
  EXPECT_GT(quiet.results.at("rtt_us.mean"), 0.0);
  EXPECT_EQ(printed.results.at("rtt_us.mean"), quiet.results.at("rtt_us.mean"));
  EXPECT_EQ(printed.results.at("rtt_us.p99"), quiet.results.at("rtt_us.p99"));
}

TEST(SizeBins, PaperBoundaries) {
  EXPECT_EQ(size_bin(0), SizeBin::kSmall);
  EXPECT_EQ(size_bin(99'999), SizeBin::kSmall);
  EXPECT_EQ(size_bin(100'000), SizeBin::kMedium);
  EXPECT_EQ(size_bin(10'000'000), SizeBin::kMedium);
  EXPECT_EQ(size_bin(10'000'001), SizeBin::kLarge);
  EXPECT_STREQ(size_bin_name(SizeBin::kSmall), "small");
}

TEST(FctCollector, BinsAndOverall) {
  FctCollector c;
  c.record({1, 50'000, 0, sim::microseconds(100), 0});    // small
  c.record({2, 60'000, 0, sim::microseconds(300), 0});    // small
  c.record({3, 20'000'000, 0, sim::milliseconds(20), 0}); // large
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.fct_us(SizeBin::kSmall).count(), 2u);
  EXPECT_EQ(c.fct_us(SizeBin::kLarge).count(), 1u);
  EXPECT_EQ(c.fct_us(SizeBin::kMedium).count(), 0u);
  EXPECT_DOUBLE_EQ(c.fct_us(SizeBin::kSmall).mean(), 200.0);
  EXPECT_EQ(c.overall_fct_us().count(), 3u);
}

TEST(FctCollector, IdealFctFormula) {
  // 1 MSS flow: one RTT plus one MTU serialization.
  const auto ideal =
      FctCollector::ideal_fct(1460, sim::gbps(10), sim::microseconds(20));
  EXPECT_EQ(ideal, sim::microseconds(20) + 1200);
  // 10 segments: headers inflate the wire bytes.
  const auto ten = FctCollector::ideal_fct(14'600, sim::gbps(10), 0);
  EXPECT_EQ(ten, sim::serialization_delay(14'600 + 10 * 40, sim::gbps(10)));
}

TEST(FctCollector, SlowdownNormalises) {
  FctCollector c;
  const sim::RateBps rate = sim::gbps(10);
  const sim::TimeNs rtt = sim::microseconds(20);
  const auto ideal = FctCollector::ideal_fct(50'000, rate, rtt);
  c.record({1, 50'000, 0, ideal, 0});          // ran at ideal speed
  c.record({2, 50'000, 0, 3 * ideal, 0});      // 3x slowdown
  const auto s = c.slowdown(SizeBin::kSmall, rate, rtt);
  ASSERT_EQ(s.count(), 2u);
  EXPECT_NEAR(s.min(), 1.0, 1e-9);
  EXPECT_NEAR(s.max(), 3.0, 1e-9);
  EXPECT_NEAR(s.mean(), 2.0, 1e-9);
}

TEST(Table, FormatsWithoutCrashing) {
  Table t({"a", "b"});
  t.add_row({"1", Table::num(3.14159, 3)});
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  // Print to /dev/null-ish: just ensure no crash.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::fclose(f);
}
