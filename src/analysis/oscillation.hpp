// Offline oscillation (limit-cycle) detection over sampled queue series.
//
// The D2TCP-II instability literature shows that marking schemes can settle
// into sustained queue-length limit cycles that averaged FCT numbers hide
// completely. This detector consumes the TimeSeriesSampler's occupancy /
// backlog columns after a run and hunts for exactly that shape: a dominant
// period with substantial peak-to-trough amplitude, sustained across
// consecutive analysis windows.
//
// Method (deliberately FFT-free): over windows that overlap by half, compute
// the mean-centered autocorrelation r(L) for lags from 4 samples to half a
// window and take the strongest peak as the dominant period. A genuine
// cycle of period P also shows the anti-phase dip r(P/2) < 0; a monotone
// ramp or a one-off burst does not, which is what rejects transients and
// trends. A window counts as oscillating only when the peak reaches 0.5, the
// dip is present, and the peak-to-trough amplitude clears both 18,000 bytes
// (12 MTU) and the window mean; a series counts only when 3 consecutive
// windows agree — DCTCP's benign sawtooth, a few packets around a full
// threshold, dies at the amplitude gates; a limit cycle swings the queue
// through most of its operating point and does not.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/sampler.hpp"

namespace pmsb::analysis {

/// Verdict for one sampled series (one port column).
struct SeriesVerdict {
  std::string name;
  bool oscillating = false;
  double dominant_period_us = 0.0;  ///< of the strongest oscillating window
  double amplitude = 0.0;           ///< peak-to-trough, series units (bytes)
  double max_autocorr = 0.0;        ///< strongest ACF peak seen anywhere
  std::size_t windows_analyzed = 0;
  std::size_t oscillating_windows = 0;  ///< longest consecutive run
};

/// Analyzes one series sampled at `sample_period_us` per point, in windows
/// of `window` samples.
[[nodiscard]] SeriesVerdict analyze_series(const std::string& name,
                                           const std::vector<double>& values,
                                           double sample_period_us,
                                           std::size_t window = 64);

/// Aggregate view over every queue column of a run, as reported in
/// `stability.*` result columns.
struct StabilityReport {
  std::vector<SeriesVerdict> series;
  std::size_t ports_analyzed = 0;
  std::size_t oscillating_ports = 0;
  /// Of the oscillating port with the largest amplitude; 0 when none.
  double dominant_period_us = 0.0;
  double amplitude_bytes = 0.0;
  /// Strongest ACF peak across all ports, oscillating or not.
  double max_autocorr = 0.0;
};

/// Runs analyze_series() over every `*.occupancy_bytes` / `*.backlog_bytes`
/// column of a finished sampler.
[[nodiscard]] StabilityReport analyze_sampler(const telemetry::TimeSeriesSampler& sampler,
                                              std::size_t window = 64);

}  // namespace pmsb::analysis
