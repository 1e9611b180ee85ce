// Unified metrics layer for dcnsim: named counter / gauge / histogram
// instruments with labels, collected by a MetricsRegistry.
//
// Design rules:
//  - components keep their own cheap counters (PortStats, SenderStats) and
//    expose them through *bound* instruments: the registry reads the
//    existing cell at collection time, so the hot path pays nothing at all
//    and the exported value can never drift from the component's struct;
//  - values that are a pure function of live state (queue backlog, cwnd,
//    heap depth) are *probe* instruments: a callback evaluated only when a
//    sampler or manifest writer collects;
//  - distributions (the TCN / CoDel sojourn times) are histograms the
//    registry owns; the holder observes through a stable reference;
//  - all naming/label work happens once at registration time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pmsb::sim {
class Simulator;
}

namespace pmsb::telemetry {

/// Label set attached to an instrument, e.g. {{"switch","leaf0"},{"port","2"}}.
/// Stored sorted by key; (name, labels) identifies an instrument uniquely.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical identity string: `name{k1=v1,k2=v2}` with keys sorted.
[[nodiscard]] std::string instrument_key(const std::string& name, const Labels& labels);

/// Fixed-bucket histogram. `upper_bounds` must be strictly increasing; an
/// implicit +inf bucket is appended. A value lands in the FIRST bucket whose
/// upper bound is >= the value (inclusive upper edges), so observe(bound)
/// counts in that bound's own bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) {
    ++count_;
    sum_ += v;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++buckets_[i];
  }

  /// Number of buckets including the +inf overflow bucket.
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  /// Upper bound of bucket `i`; the last bucket reports +inf.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return buckets_.at(i); }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* instrument_kind_name(InstrumentKind kind);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Owned histogram (registry holds the cell) ---
  /// Registers (or looks up) a histogram. Re-registering the same
  /// (name, labels) returns the SAME histogram; a kind clash throws.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const Labels& labels = {}, const std::string& unit = "");

  // --- Bound / probe instruments (value read at collection time) ---
  /// Exposes an externally owned cell as a counter (e.g. a PortStats field).
  /// The cell must outlive the registry. Duplicate registration throws: two
  /// sources for one instrument would be a bug.
  void bind_counter(const std::string& name, const Labels& labels,
                    const std::uint64_t* cell, const std::string& unit = "");
  /// Counter whose value is computed on demand (e.g. a sum over flows).
  void counter_fn(const std::string& name, const Labels& labels,
                  std::function<std::uint64_t()> fn, const std::string& unit = "");
  /// Gauge whose value is computed on demand (e.g. live queue backlog).
  void gauge_fn(const std::string& name, const Labels& labels,
                std::function<double()> fn, const std::string& unit = "");

  // --- Collection ---
  struct Snapshot {
    std::string name;
    Labels labels;
    std::string unit;
    InstrumentKind kind = InstrumentKind::kCounter;
    double value = 0.0;                  ///< counter/gauge value
    const Histogram* histogram = nullptr;  ///< non-null for histograms
  };

  /// Evaluates every instrument (including probes) in registration order.
  [[nodiscard]] std::vector<Snapshot> collect() const;

  /// collect(), sorted by canonical instrument key. Exports (manifest JSON,
  /// CSV) use this so two runs that register instruments in a different
  /// order still serialize identically — a requirement for the regression
  /// plane's byte-stable artifacts.
  [[nodiscard]] std::vector<Snapshot> collect_sorted() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool has(const std::string& name, const Labels& labels = {}) const;
  /// Current value of a counter/gauge instrument; throws if absent or a
  /// histogram. Intended for tests and report glue, not hot paths.
  [[nodiscard]] double value(const std::string& name, const Labels& labels = {}) const;
  /// Histogram lookup; throws if absent or not a histogram.
  [[nodiscard]] const Histogram& histogram_at(const std::string& name,
                                              const Labels& labels = {}) const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::string unit;
    InstrumentKind kind = InstrumentKind::kCounter;
    // Exactly one of the following value sources is active.
    std::unique_ptr<Histogram> hist;
    const std::uint64_t* bound_u64 = nullptr;
    std::function<std::uint64_t()> fn_u64;
    std::function<double()> fn_f64;

    [[nodiscard]] double current_value() const;
    [[nodiscard]] Snapshot snapshot() const;
  };

  Entry& emplace(const std::string& name, const Labels& labels,
                 const std::string& unit, InstrumentKind kind);
  [[nodiscard]] const Entry* find(const std::string& name, const Labels& labels) const;

  std::deque<Entry> entries_;  // deque: stable addresses for returned handles
  std::unordered_map<std::string, std::size_t> index_;
};

/// Publishes the simulation kernel's own counters (events executed /
/// cancelled, max heap depth, pending events) as probe instruments. The
/// simulator must outlive the registry.
void bind_simulator_metrics(MetricsRegistry& registry, const sim::Simulator& simulator);

}  // namespace pmsb::telemetry
