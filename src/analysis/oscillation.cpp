#include "analysis/oscillation.hpp"

#include <algorithm>
#include <cmath>

namespace pmsb::analysis {

namespace {

constexpr std::size_t kMinPeriodSamples = 4;  ///< shortest lag considered
constexpr double kMinAutocorr = 0.5;          ///< required ACF peak strength
/// Peak-to-trough must reach this multiple of the window mean.
constexpr double kMinRelativeAmplitude = 1.0;
constexpr double kMinAmplitude = 18000.0;  ///< absolute floor (12 MTU in bytes)
constexpr std::size_t kMinWindows = 3;     ///< consecutive oscillating windows

/// One window's worth of evidence.
struct WindowVerdict {
  bool oscillating = false;
  std::size_t period_samples = 0;
  double amplitude = 0.0;
  double peak_autocorr = 0.0;
};

WindowVerdict analyze_window(const double* w, std::size_t n) {
  WindowVerdict verdict;
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += w[i];
  mean /= static_cast<double>(n);

  double denom = 0.0;
  double lo = w[0];
  double hi = w[0];
  for (std::size_t i = 0; i < n; ++i) {
    const double x = w[i] - mean;
    denom += x * x;
    lo = std::min(lo, w[i]);
    hi = std::max(hi, w[i]);
  }
  verdict.amplitude = hi - lo;
  if (denom <= 0.0) return verdict;  // flat window

  const std::size_t max_lag = n / 2;
  if (kMinPeriodSamples > max_lag) return verdict;

  double best_r = 0.0;
  std::size_t best_lag = 0;
  double min_r = 1.0;  // over lags up to the best peak's lag
  double min_r_at_best = 1.0;
  for (std::size_t lag = kMinPeriodSamples; lag <= max_lag; ++lag) {
    double num = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      num += (w[i] - mean) * (w[i + lag] - mean);
    }
    const double r = num / denom;
    min_r = std::min(min_r, r);
    if (r > best_r) {
      best_r = r;
      best_lag = lag;
      min_r_at_best = min_r;
    }
  }
  verdict.peak_autocorr = best_r;
  if (best_lag == 0) return verdict;

  // A real cycle of period P dips anti-phase (r < 0) somewhere before its
  // peak at P; trends and one-off bursts decay without ever going negative.
  const bool has_dip = min_r_at_best < 0.0;
  const bool strong = best_r >= kMinAutocorr;
  const bool big_abs = verdict.amplitude >= kMinAmplitude;
  const bool big_rel = mean <= 0.0 || verdict.amplitude >= kMinRelativeAmplitude * mean;
  verdict.oscillating = strong && has_dip && big_abs && big_rel;
  verdict.period_samples = best_lag;
  return verdict;
}

}  // namespace

SeriesVerdict analyze_series(const std::string& name, const std::vector<double>& values,
                             double sample_period_us, std::size_t window) {
  SeriesVerdict out;
  out.name = name;
  if (window == 0 || values.size() < window) return out;
  const std::size_t hop = std::max<std::size_t>(window / 2, 1);

  std::size_t run = 0;          // current consecutive oscillating streak
  std::size_t best_run = 0;
  double best_amplitude = -1.0;  // over oscillating windows
  for (std::size_t start = 0; start + window <= values.size(); start += hop) {
    const WindowVerdict w = analyze_window(values.data() + start, window);
    ++out.windows_analyzed;
    out.max_autocorr = std::max(out.max_autocorr, w.peak_autocorr);
    if (w.oscillating) {
      ++run;
      best_run = std::max(best_run, run);
      if (w.amplitude > best_amplitude) {
        best_amplitude = w.amplitude;
        out.dominant_period_us =
            static_cast<double>(w.period_samples) * sample_period_us;
        out.amplitude = w.amplitude;
      }
    } else {
      run = 0;
    }
  }
  out.oscillating_windows = best_run;
  out.oscillating = best_run >= kMinWindows;
  if (!out.oscillating) {
    // Only sustained cycles report a period/amplitude; keep transients out
    // of the headline columns.
    out.dominant_period_us = 0.0;
    out.amplitude = 0.0;
  }
  return out;
}

StabilityReport analyze_sampler(const telemetry::TimeSeriesSampler& sampler,
                                std::size_t window) {
  StabilityReport report;
  const double period_us = static_cast<double>(sampler.period()) / 1e3;
  for (std::size_t c = 0; c < sampler.num_columns(); ++c) {
    const std::string& name = sampler.column_name(c);
    const bool queue_column =
        name.size() >= 16 &&
        (name.rfind(".occupancy_bytes") == name.size() - 16 ||
         (name.size() >= 14 && name.rfind(".backlog_bytes") == name.size() - 14));
    if (!queue_column) continue;
    SeriesVerdict verdict = analyze_series(name, sampler.column(c), period_us, window);
    ++report.ports_analyzed;
    report.max_autocorr = std::max(report.max_autocorr, verdict.max_autocorr);
    if (verdict.oscillating) {
      ++report.oscillating_ports;
      if (verdict.amplitude > report.amplitude_bytes) {
        report.amplitude_bytes = verdict.amplitude;
        report.dominant_period_us = verdict.dominant_period_us;
      }
    }
    report.series.push_back(std::move(verdict));
  }
  return report;
}

}  // namespace pmsb::analysis
