#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace pmsb::telemetry {

namespace {

using LabelPair = Labels::value_type;

/// The pairs of `labels` in (key, value) order.
std::vector<const LabelPair*> sorted_labels(const Labels& labels) {
  std::vector<const LabelPair*> sorted;
  sorted.reserve(labels.size());
  for (const LabelPair& l : labels) sorted.push_back(&l);
  std::sort(sorted.begin(), sorted.end(),
            [](const LabelPair* a, const LabelPair* b) { return *a < *b; });
  return sorted;
}

/// The label part of a canonical key: `{k1=v1,k2=v2}`, or "" without labels.
std::string label_text(const std::vector<const LabelPair*>& sorted) {
  if (sorted.empty()) return {};
  std::string text = "{";
  for (const LabelPair* l : sorted) {
    if (text.size() > 1) text += ',';
    text += l->first;
    text += '=';
    text += l->second;
  }
  text += '}';
  return text;
}

/// Byte order of a1+a2 against b1+b2 (as std::string's operator< would
/// order the joined strings), without joining them.
int compare_joined(std::string_view a1, std::string_view a2, std::string_view b1,
                   std::string_view b2) {
  while (true) {
    if (a1.empty()) {
      if (a2.empty()) return b1.empty() && b2.empty() ? 0 : -1;
      a1 = std::exchange(a2, {});
      continue;
    }
    if (b1.empty()) {
      if (b2.empty()) return 1;
      b1 = std::exchange(b2, {});
      continue;
    }
    const std::size_t n = std::min(a1.size(), b1.size());
    if (const int c = a1.substr(0, n).compare(b1.substr(0, n)); c != 0) return c;
    a1.remove_prefix(n);
    b1.remove_prefix(n);
  }
}

}  // namespace

std::string instrument_key(const std::string& name, const Labels& labels) {
  return name + label_text(sorted_labels(labels));
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

// --- Interner ---------------------------------------------------------------

std::uint32_t MetricsRegistry::Interner::intern(std::string_view s) {
  const std::size_t hash = std::hash<std::string_view>{}(s);
  const auto holds = [&](std::uint32_t id) { return views_[id] == s; };
  if (const std::uint32_t id = ids_.find(hash, holds); id != kAbsent) return id;
  if (s.size() > free_) {
    free_ = std::max(kChunkBytes, s.size());
    chunks_.push_back(std::make_unique<char[]>(free_));
    next_ = chunks_.back().get();
  }
  const auto id = static_cast<std::uint32_t>(views_.size());
  views_.emplace_back(next_, s.size());
  if (!s.empty()) std::memcpy(next_, s.data(), s.size());
  next_ += s.size();
  free_ -= s.size();
  ids_.insert(hash, id, [this](std::uint32_t o) {
    return std::hash<std::string_view>{}(views_[o]);
  });
  return id;
}

std::uint32_t MetricsRegistry::Interner::find(std::string_view s) const {
  return ids_.find(std::hash<std::string_view>{}(s),
                   [&](std::uint32_t id) { return views_[id] == s; });
}

// --- Instrument view ----------------------------------------------------------

std::string_view MetricsRegistry::Instrument::name() const {
  return registry_->names_[registry_->entries_[entry_].name];
}

std::string_view MetricsRegistry::Instrument::unit() const {
  return registry_->names_[registry_->entries_[entry_].unit];
}

InstrumentKind MetricsRegistry::Instrument::kind() const {
  return kind_of(registry_->entries_[entry_]);
}

void MetricsRegistry::Instrument::for_each_label(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  const std::uint32_t id = registry_->entries_[entry_].labels;
  const std::string_view text = registry_->label_texts_[id];
  const LabelSet set = registry_->label_sets_[id];
  std::size_t pos = 1;  // past '{'
  for (std::uint32_t i = set.first; i < set.first + set.count; ++i) {
    const auto [key_size, value_size] = registry_->label_sizes_[i];
    fn(text.substr(pos, key_size), text.substr(pos + key_size + 1, value_size));
    pos += key_size + value_size + 2;  // past '=' and ',' (or '}')
  }
}

double MetricsRegistry::Instrument::value() const {
  return registry_->value_of(registry_->entries_[entry_]);
}

const Histogram* MetricsRegistry::Instrument::histogram() const {
  const Entry& e = registry_->entries_[entry_];
  return e.source == Source::kHistogram ? &registry_->histograms_[e.slot] : nullptr;
}

std::string MetricsRegistry::Instrument::key() const {
  return std::string(name()).append(
      registry_->label_texts_[registry_->entries_[entry_].labels]);
}

// --- Registry -------------------------------------------------------------------

std::size_t MetricsRegistry::entry_hash(std::uint32_t name, std::uint32_t labels) {
  const std::uint64_t h = ((std::uint64_t{name} << 32) | labels) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

InstrumentKind MetricsRegistry::kind_of(const Entry& e) {
  switch (e.source) {
    case Source::kCell:
    case Source::kCounterFn: return InstrumentKind::kCounter;
    case Source::kGaugeFn: return InstrumentKind::kGauge;
    case Source::kHistogram: return InstrumentKind::kHistogram;
  }
  return InstrumentKind::kCounter;
}

double MetricsRegistry::value_of(const Entry& e) const {
  switch (e.source) {
    case Source::kCell: return static_cast<double>(*cells_[e.slot]);
    case Source::kCounterFn: return static_cast<double>(counter_fns_[e.slot]());
    case Source::kGaugeFn: return gauge_fns_[e.slot]();
    case Source::kHistogram: return 0.0;  // histograms carry no scalar value
  }
  return 0.0;
}

std::uint32_t MetricsRegistry::intern_labels(const Labels& labels) {
  const std::vector<const LabelPair*> sorted = sorted_labels(labels);
  const std::uint32_t id = label_texts_.intern(label_text(sorted));
  if (id < label_sets_.size()) {
    // Equal texts hold equal labels unless a key or value holds '=' or ','
    // and the sizes split the text differently: then two label sets would
    // share one canonical key.
    const LabelSet set = label_sets_[id];
    bool same = set.count == sorted.size();
    for (std::size_t i = 0; same && i < set.count; ++i) {
      same = label_sizes_[set.first + i] ==
             std::pair<std::uint32_t, std::uint32_t>(sorted[i]->first.size(),
                                                     sorted[i]->second.size());
    }
    if (!same) {
      throw std::invalid_argument("MetricsRegistry: label sets collide on " +
                                  std::string(label_texts_[id]));
    }
    return id;
  }
  label_sets_.push_back({static_cast<std::uint32_t>(label_sizes_.size()),
                         static_cast<std::uint32_t>(sorted.size())});
  for (const LabelPair* l : sorted) {
    label_sizes_.emplace_back(l->first.size(), l->second.size());
  }
  return id;
}

std::uint32_t MetricsRegistry::entry_index(std::uint32_t name, std::uint32_t labels) const {
  return index_.find(entry_hash(name, labels), [&](std::uint32_t i) {
    return entries_[i].name == name && entries_[i].labels == labels;
  });
}

void MetricsRegistry::emplace(const std::string& name, const Labels& labels,
                              const std::string& unit, Source source, std::size_t slot) {
  const std::uint32_t name_id = names_.intern(name);
  const std::uint32_t labels_id = intern_labels(labels);
  if (entry_index(name_id, labels_id) != kAbsent) {
    throw std::invalid_argument("MetricsRegistry: duplicate instrument " +
                                instrument_key(name, labels));
  }
  entries_.push_back(
      {name_id, labels_id, names_.intern(unit), source, static_cast<std::uint32_t>(slot)});
  index_.insert(entry_hash(name_id, labels_id),
                static_cast<std::uint32_t>(entries_.size() - 1), [this](std::uint32_t i) {
                  return entry_hash(entries_[i].name, entries_[i].labels);
                });
}

const MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                                    const Labels& labels) const {
  const std::uint32_t name_id = names_.find(name);
  if (name_id == kAbsent) return nullptr;
  const std::uint32_t labels_id = label_texts_.find(label_text(sorted_labels(labels)));
  if (labels_id == kAbsent) return nullptr;
  const std::uint32_t i = entry_index(name_id, labels_id);
  return i == kAbsent ? nullptr : &entries_[i];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels, const std::string& unit) {
  if (const Entry* e = find(name, labels)) {
    if (e->source != Source::kHistogram) {
      throw std::invalid_argument("MetricsRegistry: " + instrument_key(name, labels) +
                                  " exists with a different kind");
    }
    return histograms_[e->slot];
  }
  Histogram hist(std::move(upper_bounds));  // validates before registering
  emplace(name, labels, unit, Source::kHistogram, histograms_.size());
  return histograms_.emplace_back(std::move(hist));
}

void MetricsRegistry::bind_counter(const std::string& name, const Labels& labels,
                                   const std::uint64_t* cell, const std::string& unit) {
  if (cell == nullptr) {
    throw std::invalid_argument("MetricsRegistry::bind_counter: null cell");
  }
  emplace(name, labels, unit, Source::kCell, cells_.size());
  cells_.push_back(cell);
}

void MetricsRegistry::counter_fn(const std::string& name, const Labels& labels,
                                 std::function<std::uint64_t()> fn,
                                 const std::string& unit) {
  emplace(name, labels, unit, Source::kCounterFn, counter_fns_.size());
  counter_fns_.push_back(std::move(fn));
}

void MetricsRegistry::gauge_fn(const std::string& name, const Labels& labels,
                               std::function<double()> fn, const std::string& unit) {
  emplace(name, labels, unit, Source::kGaugeFn, gauge_fns_.size());
  gauge_fns_.push_back(std::move(fn));
}

std::vector<std::uint32_t> MetricsRegistry::export_order() const {
  std::vector<std::uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Entry& x = entries_[a];
    const Entry& y = entries_[b];
    if (x.name == y.name) return label_texts_[x.labels] < label_texts_[y.labels];
    return compare_joined(names_[x.name], label_texts_[x.labels], names_[y.name],
                          label_texts_[y.labels]) < 0;
  });
  return order;
}

void MetricsRegistry::visit(const std::function<void(const Instrument&)>& fn) const {
  for (const std::uint32_t i : export_order()) fn(Instrument(*this, i));
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
  if (e->source == Source::kHistogram) {
    throw std::invalid_argument("MetricsRegistry::value: " +
                                instrument_key(name, labels) + " is a histogram");
  }
  return value_of(*e);
}

const Histogram& MetricsRegistry::histogram_at(const std::string& name,
                                               const Labels& labels) const {
  const Entry* e = find(name, labels);
  if (e == nullptr || e->source != Source::kHistogram) {
    throw std::out_of_range("MetricsRegistry: no histogram " +
                            instrument_key(name, labels));
  }
  return histograms_[e->slot];
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
