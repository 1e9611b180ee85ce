// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints a header naming the paper figure it regenerates,
// the paper's qualitative expectation, and then the measured rows. Set
// PMSB_BENCH_SCALE=full for paper-scale runs (default "quick" keeps each
// binary in the seconds-to-a-minute range).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/presets.hpp"
#include "sim/units.hpp"
#include "stats/table.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"

namespace pmsb::bench {

inline bool full_scale() {
  const char* v = std::getenv("PMSB_BENCH_SCALE");
  return v != nullptr && std::strcmp(v, "full") == 0;
}

/// Picks a size parameter by scale mode.
inline std::size_t scaled(std::size_t quick, std::size_t full) {
  return full_scale() ? full : quick;
}

inline std::vector<double> default_loads() {
  return full_scale() ? std::vector<double>{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
                      : std::vector<double>{0.3, 0.5, 0.7, 0.9};
}

inline std::vector<std::uint64_t> default_seeds() {
  return full_scale() ? std::vector<std::uint64_t>{42, 43, 44, 45, 46}
                      : std::vector<std::uint64_t>{42, 43, 44};
}

/// Worker threads for the grid benches: PMSB_BENCH_JOBS overrides, default
/// is the hardware concurrency (at least 1).
inline std::size_t bench_jobs() {
  if (const char* v = std::getenv("PMSB_BENCH_JOBS")) {
    const long n = std::atol(v);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

inline void print_header(const char* figure, const char* setup,
                         const char* expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("  setup:  %s\n", setup);
  std::printf("  paper:  %s\n", expectation);
  std::printf("  scale:  %s\n", full_scale() ? "full" : "quick");
  std::printf("==============================================================\n");
}

/// Optional machine-readable bench output: when PMSB_BENCH_MANIFEST_DIR is
/// set, write() drops a pmsb.run_manifest/1 JSON at <dir>/<name>.json with
/// whatever scalar results the bench recorded; otherwise everything is a
/// no-op and the bench stays print-only.
class BenchManifest {
 public:
  explicit BenchManifest(std::string name) : name_(std::move(name)), manifest_(name_) {
    const char* dir = std::getenv("PMSB_BENCH_MANIFEST_DIR");
    if (dir != nullptr) dir_ = dir;
    manifest_.set_info("scale", full_scale() ? "full" : "quick");
  }

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  void set_result(const std::string& key, double value) {
    manifest_.set_result(key, value);
  }
  void set_info(const std::string& key, const std::string& value) {
    manifest_.set_info(key, value);
  }

  /// Writes <dir>/<name>.json (optionally with a metrics section).
  void write(const telemetry::MetricsRegistry* registry = nullptr) {
    if (dir_.empty()) return;
    const std::string path = dir_ + "/" + name_ + ".json";
    manifest_.write(path, registry);
    std::printf("manifest: %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::string dir_;
  telemetry::RunManifest manifest_;
};

/// A one-column sampler of the bottleneck port's occupancy in bytes: its
/// first row is taken now, then one every `period` (Figs. 4, 5, 11, 12).
inline std::unique_ptr<telemetry::TimeSeriesSampler> sample_bottleneck(
    experiments::DumbbellScenario& sc, sim::TimeNs period) {
  auto sampler = std::make_unique<telemetry::TimeSeriesSampler>(sc.simulator(), period);
  sampler->add_probe("bottleneck_bytes", [&sc] {
    return static_cast<double>(sc.bottleneck().buffered_bytes());
  });
  sampler->start();
  return sampler;
}

/// Measures per-queue service rates over [warmup, end] on a dumbbell.
struct QueueRates {
  std::vector<double> gbps;
  double total = 0.0;
};

inline QueueRates measure_queue_rates(experiments::DumbbellScenario& sc,
                                      std::size_t num_queues, sim::TimeNs warmup,
                                      sim::TimeNs end) {
  sc.run(warmup);
  std::vector<std::uint64_t> start(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) start[q] = sc.served_bytes(q);
  sc.run(end);
  QueueRates out;
  const double dt = static_cast<double>(end - warmup);
  for (std::size_t q = 0; q < num_queues; ++q) {
    const double gbps = static_cast<double>(sc.served_bytes(q) - start[q]) * 8.0 / dt;
    out.gbps.push_back(gbps);
    out.total += gbps;
  }
  return out;
}

}  // namespace pmsb::bench
