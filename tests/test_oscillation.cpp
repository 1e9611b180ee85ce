// Tests for the stability-analysis plane: the FFT-free oscillation detector
// over synthetic series, sampler integration, and the acceptance criterion
// that a steady dumbbell run reports zero oscillating ports.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/oscillation.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::analysis;

namespace {

/// n samples of a square wave alternating every period/2 samples.
std::vector<double> square_wave(std::size_t n, std::size_t period, double lo,
                                double hi) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i / (period / 2)) % 2 == 0 ? hi : lo;
  }
  return v;
}

}  // namespace

TEST(Oscillation, FlagsSquareWave) {
  const auto v = square_wave(256, 16, 0.0, 40'000.0);
  const SeriesVerdict verdict = analyze_series("sq", v, 100.0);
  EXPECT_TRUE(verdict.oscillating);
  EXPECT_DOUBLE_EQ(verdict.dominant_period_us, 1600.0);  // lag 16 x 100 us
  EXPECT_DOUBLE_EQ(verdict.amplitude, 40'000.0);
  EXPECT_GT(verdict.max_autocorr, 0.7);
  EXPECT_GE(verdict.oscillating_windows, 3u);
}

TEST(Oscillation, IgnoresFlatSeries) {
  const std::vector<double> flat(256, 30'000.0);
  const SeriesVerdict verdict = analyze_series("flat", flat, 100.0);
  EXPECT_FALSE(verdict.oscillating);
  EXPECT_EQ(verdict.dominant_period_us, 0.0);
  EXPECT_EQ(verdict.amplitude, 0.0);
}

TEST(Oscillation, IgnoresMonotoneRamp) {
  // Huge amplitude but no cycle: the anti-phase-dip requirement rejects it.
  std::vector<double> ramp(256);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<double>(i) * 1000.0;
  }
  EXPECT_FALSE(analyze_series("ramp", ramp, 100.0).oscillating);
}

TEST(Oscillation, IgnoresOneOffBurst) {
  std::vector<double> burst(256, 0.0);
  for (std::size_t i = 100; i < 110; ++i) burst[i] = 50'000.0;
  EXPECT_FALSE(analyze_series("burst", burst, 100.0).oscillating);
}

TEST(Oscillation, SmallSawtoothDiesAtAmplitudeGate) {
  // The benign DCTCP sawtooth shape: strongly periodic but only a few
  // packets of swing. Must not be reported as a limit cycle.
  const auto v = square_wave(256, 16, 20'000.0, 27'000.0);
  const SeriesVerdict verdict = analyze_series("sawtooth", v, 100.0);
  EXPECT_GT(verdict.max_autocorr, 0.5);  // the periodicity IS there...
  EXPECT_FALSE(verdict.oscillating);     // ...but 7 kB swing is benign
}

TEST(Oscillation, ShortSeriesAnalyzesNoWindows) {
  const auto v = square_wave(30, 8, 0.0, 40'000.0);  // < one 64-sample window
  const SeriesVerdict verdict = analyze_series("short", v, 100.0);
  EXPECT_EQ(verdict.windows_analyzed, 0u);
  EXPECT_FALSE(verdict.oscillating);
}

TEST(Oscillation, MustPersistAcrossConsecutiveWindows) {
  // One oscillating stretch shorter than three hops: not sustained.
  // Two periods of swing (samples 128..160) touch only two 64-sample
  // windows, below the three-consecutive-window requirement.
  std::vector<double> v(512, 25'000.0);
  for (std::size_t i = 128; i < 160; ++i) {
    v[i] = (i / 8) % 2 == 0 ? 50'000.0 : 0.0;
  }
  EXPECT_FALSE(analyze_series("blip", v, 100.0).oscillating);
}

TEST(Oscillation, AnalyzesOnlyQueueColumnsOfSampler) {
  sim::Simulator sim;
  telemetry::TimeSeriesSampler sampler(sim, sim::microseconds(100));
  // One genuinely oscillating occupancy column (1.6 ms square wave)...
  sampler.add_probe("spine0/p0.occupancy_bytes", [&sim] {
    return (sim.now() / sim::microseconds(800)) % 2 == 0 ? 40'000.0 : 0.0;
  });
  // ...one steady backlog column, and one non-queue column to be skipped.
  sampler.add_probe("leaf0/p1.backlog_bytes", [] { return 12'000.0; });
  sampler.add_probe("flow/0.cwnd_bytes", [&sim] {
    return (sim.now() / sim::microseconds(800)) % 2 == 0 ? 90'000.0 : 0.0;
  });
  sampler.start();
  sim.run(sim::milliseconds(40));

  const StabilityReport report = analyze_sampler(sampler);
  EXPECT_EQ(report.ports_analyzed, 2u);
  ASSERT_EQ(report.series.size(), 2u);
  EXPECT_EQ(report.oscillating_ports, 1u);
  EXPECT_DOUBLE_EQ(report.dominant_period_us, 1600.0);
  EXPECT_DOUBLE_EQ(report.amplitude_bytes, 40'000.0);
  EXPECT_GT(report.max_autocorr, 0.7);
}

// Acceptance: the standard steady dumbbell run must report ZERO oscillating
// ports — the detector exists to catch pathologies, not DCTCP's sawtooth.
TEST(Oscillation, SteadyDumbbellReportsZeroOscillatingPorts) {
  sweep::SweepPoint pt;
  pt.opts.set("seed", "1");
  pt.opts.set("stability", "1");
  const auto rec = sweep::run_scenario(pt, /*quiet=*/true);
  ASSERT_TRUE(rec.ok) << rec.error;
  ASSERT_GT(rec.results.at("stability.ports_analyzed"), 0.0);
  EXPECT_EQ(rec.results.at("stability.oscillating_ports"), 0.0);
  EXPECT_EQ(rec.results.at("stability.dominant_period_us"), 0.0);
}

TEST(Oscillation, ThresholdKnobsFlowThroughOptions) {
  // A stability_window larger than the whole sampled series leaves no
  // windows to analyze, so max_autocorr collapses to 0 — proof the
  // stability_window key actually reaches the detector.
  sweep::SweepPoint base;
  base.opts.set("seed", "1");
  base.opts.set("stability", "1");
  const auto normal = sweep::run_scenario(base, /*quiet=*/true);
  ASSERT_TRUE(normal.ok) << normal.error;
  EXPECT_GT(normal.results.at("stability.max_autocorr"), 0.0);

  sweep::SweepPoint huge = base;
  huge.opts.set("stability_window", "1000000");
  const auto rec = sweep::run_scenario(huge, /*quiet=*/true);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.results.at("stability.max_autocorr"), 0.0);
  EXPECT_EQ(rec.results.at("stability.ports_analyzed"),
            normal.results.at("stability.ports_analyzed"));
}
