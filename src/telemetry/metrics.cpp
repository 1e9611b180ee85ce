#include "telemetry/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace pmsb::telemetry {

std::string instrument_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i != 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

const char* instrument_kind_name(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must be strictly increasing");
    }
  }
}

double Histogram::upper_bound(std::size_t i) const {
  if (i >= buckets_.size()) throw std::out_of_range("Histogram::upper_bound");
  if (i == bounds_.size()) return std::numeric_limits<double>::infinity();
  return bounds_[i];
}

double MetricsRegistry::Entry::current_value() const {
  if (bound_u64 != nullptr) return static_cast<double>(*bound_u64);
  if (fn_u64) return static_cast<double>(fn_u64());
  if (fn_f64) return fn_f64();
  return 0.0;  // histogram entries carry no scalar value
}

MetricsRegistry::Entry& MetricsRegistry::emplace(const std::string& name,
                                                 const Labels& labels,
                                                 const std::string& unit,
                                                 InstrumentKind kind) {
  const std::string key = instrument_key(name, labels);
  if (index_.count(key) != 0) {
    throw std::invalid_argument("MetricsRegistry: duplicate instrument " + key);
  }
  entries_.push_back({});
  Entry& e = entries_.back();
  e.name = name;
  e.labels = labels;
  std::sort(e.labels.begin(), e.labels.end());
  e.unit = unit;
  e.kind = kind;
  index_[key] = entries_.size() - 1;
  return e;
}

const MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                                    const Labels& labels) const {
  const auto it = index_.find(instrument_key(name, labels));
  if (it == index_.end()) return nullptr;
  return &entries_[it->second];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels, const std::string& unit) {
  if (const Entry* e = find(name, labels)) {
    if (e->kind != InstrumentKind::kHistogram) {
      throw std::invalid_argument("MetricsRegistry: " + instrument_key(name, labels) +
                                  " exists with a different kind");
    }
    return *e->hist;
  }
  Entry& e = emplace(name, labels, unit, InstrumentKind::kHistogram);
  e.hist = std::make_unique<Histogram>(std::move(upper_bounds));
  return *e.hist;
}

void MetricsRegistry::bind_counter(const std::string& name, const Labels& labels,
                                   const std::uint64_t* cell, const std::string& unit) {
  if (cell == nullptr) {
    throw std::invalid_argument("MetricsRegistry::bind_counter: null cell");
  }
  Entry& e = emplace(name, labels, unit, InstrumentKind::kCounter);
  e.bound_u64 = cell;
}

void MetricsRegistry::counter_fn(const std::string& name, const Labels& labels,
                                 std::function<std::uint64_t()> fn,
                                 const std::string& unit) {
  Entry& e = emplace(name, labels, unit, InstrumentKind::kCounter);
  e.fn_u64 = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name, const Labels& labels,
                               std::function<double()> fn, const std::string& unit) {
  Entry& e = emplace(name, labels, unit, InstrumentKind::kGauge);
  e.fn_f64 = std::move(fn);
}

MetricsRegistry::Snapshot MetricsRegistry::Entry::snapshot() const {
  Snapshot s;
  s.name = name;
  s.labels = labels;
  s.unit = unit;
  s.kind = kind;
  s.value = current_value();
  s.histogram = hist.get();
  return s;
}

std::vector<MetricsRegistry::Snapshot> MetricsRegistry::collect() const {
  std::vector<Snapshot> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.snapshot());
  return out;
}

std::vector<MetricsRegistry::Snapshot> MetricsRegistry::collect_sorted() const {
  // Sort the keys index_ built once at registration. Keys are unique, so the
  // order is total.
  using IndexItem = std::pair<const std::string, std::size_t>;
  std::vector<const IndexItem*> order;
  order.reserve(index_.size());
  for (const IndexItem& item : index_) order.push_back(&item);
  std::sort(order.begin(), order.end(),
            [](const IndexItem* a, const IndexItem* b) { return a->first < b->first; });
  std::vector<Snapshot> out;
  out.reserve(order.size());
  for (const IndexItem* item : order) out.push_back(entries_[item->second].snapshot());
  return out;
}

bool MetricsRegistry::has(const std::string& name, const Labels& labels) const {
  return find(name, labels) != nullptr;
}

double MetricsRegistry::value(const std::string& name, const Labels& labels) const {
  const Entry* e = find(name, labels);
  if (e == nullptr) {
    throw std::out_of_range("MetricsRegistry: no instrument " +
                            instrument_key(name, labels));
  }
  if (e->kind == InstrumentKind::kHistogram) {
    throw std::invalid_argument("MetricsRegistry::value: " +
                                instrument_key(name, labels) + " is a histogram");
  }
  return e->current_value();
}

const Histogram& MetricsRegistry::histogram_at(const std::string& name,
                                               const Labels& labels) const {
  const Entry* e = find(name, labels);
  if (e == nullptr || e->kind != InstrumentKind::kHistogram) {
    throw std::out_of_range("MetricsRegistry: no histogram " +
                            instrument_key(name, labels));
  }
  return *e->hist;
}

void bind_simulator_metrics(MetricsRegistry& registry, const sim::Simulator& simulator) {
  const sim::Simulator* s = &simulator;
  registry.counter_fn("sim.events_executed", {}, [s] { return s->executed_events(); },
                      "events");
  registry.counter_fn("sim.events_cancelled", {}, [s] { return s->cancelled_events(); },
                      "events");
  registry.gauge_fn("sim.pending_events", {},
                    [s] { return static_cast<double>(s->pending_events()); }, "events");
  registry.gauge_fn("sim.max_heap_depth", {},
                    [s] { return static_cast<double>(s->max_heap_depth()); }, "events");
}

}  // namespace pmsb::telemetry
