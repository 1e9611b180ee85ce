#include "telemetry/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace pmsb::telemetry {

namespace {

using LabelView = std::pair<std::string_view, std::string_view>;

/// Serial numbers for MetricsRegistry instances; sweep cells make theirs on
/// several threads.
std::atomic<std::uint32_t> registries_made{0};

/// The pairs of `labels` in (key, value) order.
std::vector<LabelView> sorted_labels(const Labels& labels) {
  std::vector<LabelView> sorted(labels.begin(), labels.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Sets `text` to the label part of a canonical key: `{k1=v1,k2=v2}`, or ""
/// without labels.
void label_text(const std::vector<LabelView>& sorted, std::string& text) {
  text.clear();
  if (sorted.empty()) return;
  text += '{';
  for (const auto& [key, value] : sorted) {
    if (text.size() > 1) text += ',';
    text += key;
    text += '=';
    text += value;
  }
  text += '}';
}

std::string label_text(const Labels& labels) {
  std::string text;
  label_text(sorted_labels(labels), text);
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

std::string instrument_key(std::string_view name, const Labels& labels) {
  return std::string(name) + label_text(labels);
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
  const auto next = static_cast<std::uint32_t>(views_.size());
  const std::uint32_t id = ids_.find_or_insert(
      std::hash<std::string_view>{}(s), next,
      [&](std::uint32_t o) { return views_[o] == s; },
      [this](std::uint32_t o) { return std::hash<std::string_view>{}(views_[o]); });
  if (id != next) return id;
  if (s.size() > free_) {
    free_ = std::max(kChunkBytes, s.size());
    chunks_.push_back(std::make_unique<char[]>(free_));
    next_ = chunks_.back().get();
  }
  views_.emplace_back(next_, s.size());
  if (!s.empty()) std::memcpy(next_, s.data(), s.size());
  next_ += s.size();
  free_ -= s.size();
  return id;
}

std::uint32_t MetricsRegistry::Interner::find(std::string_view s) const {
  return ids_.find(std::hash<std::string_view>{}(s),
                   [&](std::uint32_t id) { return views_[id] == s; });
}

std::vector<std::uint32_t> MetricsRegistry::Interner::sorted_ids() const {
  std::vector<std::uint32_t> ids(views_.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::sort(ids.begin(), ids.end(),
            [this](std::uint32_t a, std::uint32_t b) { return views_[a] < views_[b]; });
  return ids;
}

// --- Instrument view ----------------------------------------------------------

std::string_view MetricsRegistry::Instrument::name() const {
  return registry_->names_[entry_->name];
}

std::string_view MetricsRegistry::Instrument::unit() const {
  return registry_->names_[entry_->unit];
}

std::string_view MetricsRegistry::Instrument::label_text() const {
  return registry_->label_texts_[entry_->labels];
}

InstrumentKind MetricsRegistry::Instrument::kind() const {
  return kind_of(*entry_);
}

double MetricsRegistry::Instrument::value() const {
  return registry_->value_of(*entry_);
}

const Histogram* MetricsRegistry::Instrument::histogram() const {
  return entry_->source == Source::kHistogram ? &registry_->histograms_[entry_->slot]
                                              : nullptr;
}

std::string MetricsRegistry::Instrument::key() const {
  return registry_->key_of(*entry_);
}

// --- Registry -------------------------------------------------------------------

MetricsRegistry::MetricsRegistry()
    : serial_(registries_made.fetch_add(1, std::memory_order_relaxed)) {}

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

std::uint32_t MetricsRegistry::intern_labels() {
  const LabelViews& sorted = scratch_labels_;
  label_text(sorted, scratch_text_);
  const std::uint32_t id = label_texts_.intern(scratch_text_);
  if (id < label_sets_.size()) {
    // Equal texts hold equal labels unless a key or value holds '=' or ','
    // and the sizes split the text differently: then two label sets would
    // share one canonical key.
    const LabelSet set = label_sets_[id];
    bool same = set.count == sorted.size();
    for (std::size_t i = 0; same && i < set.count; ++i) {
      same = label_sizes_[set.first + i] ==
             std::pair<std::uint32_t, std::uint32_t>(sorted[i].first.size(),
                                                     sorted[i].second.size());
    }
    if (!same) {
      throw std::invalid_argument("MetricsRegistry: label sets collide on " +
                                  std::string(label_texts_[id]));
    }
    return id;
  }
  label_sets_.push_back({static_cast<std::uint32_t>(label_sizes_.size()),
                         static_cast<std::uint32_t>(sorted.size())});
  for (const auto& [key, value] : sorted) {
    label_sizes_.emplace_back(key.size(), value.size());
  }
  return id;
}

std::uint32_t MetricsRegistry::checked(LabelSetId labels) const {
  if (labels.registry_ != serial_) {
    throw std::invalid_argument("MetricsRegistry: label set from another registry");
  }
  return labels.id_;
}

LabelSetId MetricsRegistry::label_set(const Labels& labels) {
  scratch_labels_.assign(labels.begin(), labels.end());
  std::sort(scratch_labels_.begin(), scratch_labels_.end());
  return label_set_id(intern_labels());
}

LabelSetId MetricsRegistry::label_set(LabelSetId base, std::string_view key,
                                      std::string_view value) {
  // The base's pairs view label_texts_, whose chunks never move.
  scratch_labels_.clear();
  for_each_label_in(checked(base), [this](std::string_view k, std::string_view v) {
    scratch_labels_.emplace_back(k, v);
  });
  const LabelView added(key, value);
  scratch_labels_.insert(
      std::upper_bound(scratch_labels_.begin(), scratch_labels_.end(), added), added);
  return label_set_id(intern_labels());
}

std::uint32_t MetricsRegistry::entry_index(std::uint32_t name, std::uint32_t labels) const {
  return index_.find(entry_hash(name, labels), [&](std::uint32_t i) {
    return entries_[i].name == name && entries_[i].labels == labels;
  });
}

void MetricsRegistry::emplace(std::string_view name, std::uint32_t labels,
                              std::string_view unit, Source source, std::size_t slot) {
  const std::uint32_t name_id = names_.intern(name);
  const std::uint32_t unit_id = names_.intern(unit);
  const auto next = static_cast<std::uint32_t>(entries_.size());
  const auto holds = [&](std::uint32_t o) {
    return entries_[o].name == name_id && entries_[o].labels == labels;
  };
  const auto hash_of = [this](std::uint32_t o) {
    return entry_hash(entries_[o].name, entries_[o].labels);
  };
  const std::uint32_t i =
      index_.find_or_insert(entry_hash(name_id, labels), next, holds, hash_of);
  if (i != next) {
    throw std::invalid_argument("MetricsRegistry: duplicate instrument " +
                                key_of(entries_[i]));
  }
  entries_.push_back({name_id, labels, unit_id, source, static_cast<std::uint32_t>(slot)});
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    const Labels& labels) const {
  const std::uint32_t name_id = names_.find(name);
  if (name_id == kAbsent) return nullptr;
  const std::uint32_t labels_id = label_texts_.find(label_text(labels));
  if (labels_id == kAbsent) return nullptr;
  const std::uint32_t i = entry_index(name_id, labels_id);
  return i == kAbsent ? nullptr : &entries_[i];
}

std::string MetricsRegistry::key_of(const Entry& e) const {
  return std::string(names_[e.name]).append(label_texts_[e.labels]);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels, std::string_view unit) {
  return histogram(name, std::move(upper_bounds), label_set(labels), unit);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds, LabelSetId labels,
                                      std::string_view unit) {
  const std::uint32_t labels_id = checked(labels);
  if (const std::uint32_t name_id = names_.find(name); name_id != kAbsent) {
    if (const std::uint32_t i = entry_index(name_id, labels_id); i != kAbsent) {
      const Entry& e = entries_[i];
      if (e.source != Source::kHistogram) {
        throw std::invalid_argument("MetricsRegistry: " + key_of(e) +
                                    " exists with a different kind");
      }
      return histograms_[e.slot];
    }
  }
  Histogram hist(std::move(upper_bounds));  // validates before registering
  emplace(name, labels_id, unit, Source::kHistogram, histograms_.size());
  return histograms_.emplace_back(std::move(hist));
}

void MetricsRegistry::bind_counter(std::string_view name, const Labels& labels,
                                   const std::uint64_t* cell, std::string_view unit) {
  bind_counter(name, label_set(labels), cell, unit);
}

void MetricsRegistry::bind_counter(std::string_view name, LabelSetId labels,
                                   const std::uint64_t* cell, std::string_view unit) {
  if (cell == nullptr) {
    throw std::invalid_argument("MetricsRegistry::bind_counter: null cell");
  }
  emplace(name, checked(labels), unit, Source::kCell, cells_.size());
  cells_.push_back(cell);
}

void MetricsRegistry::counter_fn(std::string_view name, const Labels& labels,
                                 std::function<std::uint64_t()> fn, std::string_view unit) {
  counter_fn(name, label_set(labels), std::move(fn), unit);
}

void MetricsRegistry::counter_fn(std::string_view name, LabelSetId labels,
                                 std::function<std::uint64_t()> fn, std::string_view unit) {
  emplace(name, checked(labels), unit, Source::kCounterFn, counter_fns_.size());
  counter_fns_.push_back(std::move(fn));
}

void MetricsRegistry::gauge_fn(std::string_view name, const Labels& labels,
                               std::function<double()> fn, std::string_view unit) {
  gauge_fn(name, label_set(labels), std::move(fn), unit);
}

void MetricsRegistry::gauge_fn(std::string_view name, LabelSetId labels,
                               std::function<double()> fn, std::string_view unit) {
  emplace(name, checked(labels), unit, Source::kGaugeFn, gauge_fns_.size());
  gauge_fns_.push_back(std::move(fn));
}

std::vector<std::uint32_t> MetricsRegistry::export_order() const {
  // Rank each distinct name and label text once. While no instrument name
  // is a proper prefix of another, two instruments order by (name rank,
  // label rank), the byte order of their joined keys. (A name that is a
  // prefix of others sorts right before them, so comparing each name with
  // the previous one finds it. Units share the name ids and are skipped.)
  std::vector<bool> is_name(names_.size(), false);
  for (const Entry& e : entries_) is_name[e.name] = true;
  const std::vector<std::uint32_t> by_name = names_.sorted_ids();
  std::vector<std::uint32_t> name_rank(by_name.size());
  bool prefix_free = true;
  std::uint32_t previous = kAbsent;  // the last instrument name
  for (std::uint32_t r = 0; r < by_name.size(); ++r) {
    const std::uint32_t id = by_name[r];
    name_rank[id] = r;
    if (!is_name[id]) continue;
    if (previous != kAbsent && names_[id].starts_with(names_[previous])) {
      prefix_free = false;
    }
    previous = id;
  }
  std::vector<std::uint32_t> label_rank(label_texts_.size());
  {
    const std::vector<std::uint32_t> by_labels = label_texts_.sorted_ids();
    for (std::uint32_t r = 0; r < by_labels.size(); ++r) label_rank[by_labels[r]] = r;
  }

  std::vector<std::uint32_t> order(entries_.size());
  if (!prefix_free) {
    // The byte after a prefix name meets the shorter key's '{': compare the
    // joined keys of instruments with different names.
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const Entry& x = entries_[a];
      const Entry& y = entries_[b];
      if (x.name == y.name) return label_rank[x.labels] < label_rank[y.labels];
      return compare_joined(names_[x.name], label_texts_[x.labels], names_[y.name],
                            label_texts_[y.labels]) < 0;
    });
    return order;
  }
  // Bucket the entries by name rank in one counting pass, then sort each
  // name's entries by label rank as packed keys. (On the leaf-spine's 3,855
  // instruments, ranking and ordering take 0.25 ms this way and 0.9 ms with
  // one std::sort of entry indices by (name rank, label rank).)
  std::vector<std::uint32_t> start(name_rank.size() + 1, 0);
  for (const Entry& e : entries_) ++start[name_rank[e.name] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  {
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    std::uint32_t i = 0;
    for (const Entry& e : entries_) order[next[name_rank[e.name]]++] = i++;
  }
  std::vector<std::uint64_t> keys;  // one name's (label rank, entry) pairs
  for (std::size_t r = 0; r + 1 < start.size(); ++r) {
    const auto first = order.begin() + start[r];
    const auto last = order.begin() + start[r + 1];
    keys.clear();
    for (auto it = first; it != last; ++it) {
      keys.push_back(std::uint64_t{label_rank[entries_[*it].labels]} << 32 | *it);
    }
    std::sort(keys.begin(), keys.end());
    std::transform(keys.begin(), keys.end(), first,
                   [](std::uint64_t key) { return static_cast<std::uint32_t>(key); });
  }
  return order;
}

void MetricsRegistry::visit(const std::function<void(const Instrument&)>& fn) const {
  for (const std::uint32_t i : export_order()) fn(Instrument(*this, entries_[i]));
}

bool MetricsRegistry::has(std::string_view name, const Labels& labels) const {
  return find(name, labels) != nullptr;
}

double MetricsRegistry::value(std::string_view name, const Labels& labels) const {
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

const Histogram& MetricsRegistry::histogram_at(std::string_view name,
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
