// Periodic time-series snapshots of live simulation state.
//
// A TimeSeriesSampler owns a self-re-arming sim::Timer and, at every
// period, evaluates its probe columns into columnar storage. This is
// what reproduces the paper's occupancy/marking-over-time figures (Figs.
// 4-12) natively: attach a probe per port occupancy and a rate column per
// mark counter, run, then read the columns or the streamed CSV.
//
// Column kinds:
//  - probe:   any `double()` callback, sampled verbatim (gauges);
//  - rate:    a monotone `uint64()` callback, exported as the per-second
//             rate over the elapsed sampling interval (counters), computed
//             as delta * 1e9 / period_ns so a whole rate stays whole.
//
// Sampling happens inside simulator events, so rows align exactly with
// t_start + k * period and cost nothing between ticks. The sampler keeps
// re-arming its tick for as long as it lives; a scenario that ends via
// Simulator::stop() or a run(until) cap simply leaves the next tick unfired,
// and destroying the sampler turns that tick into a tombstone. The
// Simulator must outlive the sampler.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace pmsb::telemetry {

class TimeSeriesSampler {
 public:
  TimeSeriesSampler(sim::Simulator& simulator, sim::TimeNs period);
  ~TimeSeriesSampler();  // out-of-line: stream_ needs the full ofstream type
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Adds a gauge-style column sampled as fn() each period.
  void add_probe(std::string name, std::function<double()> fn);
  /// Adds a counter-style column exported as events/second since the
  /// previous sample (first row reports the rate since start()).
  void add_rate(std::string name, std::function<std::uint64_t()> fn);

  /// Takes the first sample at the current simulation time, then one every
  /// period while the sampler lives. Columns must all be added before
  /// start().
  void start();

  [[nodiscard]] sim::TimeNs period() const { return period_; }
  /// Rows sampled so far, kept in memory or not.
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return cols_.size(); }
  /// The rows kept in memory: all of them, unless the sampler streams
  /// without keep_rows(), in which case these stay empty.
  [[nodiscard]] const std::vector<double>& times_us() const { return times_us_; }
  [[nodiscard]] const std::string& column_name(std::size_t i) const {
    return cols_.at(i).name;
  }
  [[nodiscard]] const std::vector<double>& column(std::size_t i) const {
    return cols_.at(i).data;
  }

  /// Streams rows to `path` as they are sampled, as a columnar CSV
  /// (`time_us,<col0>,<col1>,...`, every value written with format_double so
  /// it round-trips: the time to the nanosecond, a byte count or a rate to
  /// its last digit): the header goes out with the first
  /// row and every row is flushed immediately, so the CSV holds all
  /// completed samples even when the run is killed mid-flight by a
  /// watchdog trip. Call before start(). From then on the rows go to the
  /// file only, so a long series costs no memory, unless keep_rows() asks
  /// for them in memory too.
  void stream_to(const std::string& path);
  [[nodiscard]] bool streaming() const { return stream_ != nullptr; }
  /// Keeps a streaming sampler's rows in memory as well, for a reader of
  /// times_us() and column(). Call before the first row is sampled.
  void keep_rows();

 private:
  struct Column {
    std::string name;
    std::function<double()> probe;              // gauge columns
    std::function<std::uint64_t()> rate_source;  // counter/rate columns
    std::uint64_t prev = 0;
    std::vector<double> data;
  };

  void sample();
  void write_header(std::ostream& out) const;

  sim::Simulator& sim_;
  sim::TimeNs period_;
  sim::Timer tick_;  ///< runs sample()
  bool started_ = false;
  std::size_t rows_ = 0;
  bool keep_rows_ = true;  // false once streaming, until keep_rows()
  std::vector<double> times_us_;
  std::vector<Column> cols_;
  std::vector<double> row_;  // the row being sampled
  std::unique_ptr<std::ofstream> stream_;  // non-null once stream_to() is set
};

}  // namespace pmsb::telemetry
