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
//  - all naming/label work happens once at registration time, and each
//    distinct name, unit and label set is stored once per registry: an
//    instrument is three ids plus the slot of its one value source. A
//    component interns its label set once (label_set()) and registers all
//    its instruments under the returned id;
//  - export visits the instruments in canonical-key order, sorted by the
//    integer ranks of their names and label sets, through views into that
//    storage; nothing is copied per instrument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pmsb::sim {
class Simulator;
}

namespace pmsb::telemetry {

/// Label set attached to an instrument, e.g. {{"switch","leaf0"},{"port","2"}}.
/// Order does not matter: (name, labels) identifies an instrument, and the
/// registry keeps the pairs sorted.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical identity string: `name{k1=v1,k2=v2}` with keys sorted, or just
/// `name` without labels. Exports are ordered by the bytes of this string.
[[nodiscard]] std::string instrument_key(std::string_view name, const Labels& labels);

/// A label set interned in a MetricsRegistry (MetricsRegistry::label_set).
/// Registering several instruments under one id sorts and joins their
/// labels once. Valid only in the registry that returned it, which it
/// names by that registry's serial number.
class LabelSetId {
 private:
  friend class MetricsRegistry;
  LabelSetId(std::uint32_t registry, std::uint32_t id) : registry_(registry), id_(id) {}
  std::uint32_t registry_;
  std::uint32_t id_;
};

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
  struct Entry;  // one registered instrument; defined below

 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Label sets ---
  /// Interns `labels` (in any order) for registering instruments under.
  LabelSetId label_set(const Labels& labels);
  /// The set `base` plus the label `key=value`.
  LabelSetId label_set(LabelSetId base, std::string_view key, std::string_view value);

  // Every registration below takes its labels as a Labels list or as an
  // interned LabelSetId; the two forms register the same instrument.

  // --- Owned histogram (registry holds the cell) ---
  /// Registers (or looks up) a histogram. Re-registering the same
  /// (name, labels) returns the SAME histogram; a kind clash throws.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       const Labels& labels = {}, std::string_view unit = "");
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       LabelSetId labels, std::string_view unit = "");

  // --- Bound / probe instruments (value read at collection time) ---
  /// Exposes an externally owned cell as a counter (e.g. a PortStats field).
  /// The cell must outlive the registry. Duplicate registration throws: two
  /// sources for one instrument would be a bug.
  void bind_counter(std::string_view name, const Labels& labels, const std::uint64_t* cell,
                    std::string_view unit = "");
  void bind_counter(std::string_view name, LabelSetId labels, const std::uint64_t* cell,
                    std::string_view unit = "");
  /// Counter whose value is computed on demand (e.g. a sum over flows).
  void counter_fn(std::string_view name, const Labels& labels,
                  std::function<std::uint64_t()> fn, std::string_view unit = "");
  void counter_fn(std::string_view name, LabelSetId labels,
                  std::function<std::uint64_t()> fn, std::string_view unit = "");
  /// Gauge whose value is computed on demand (e.g. live queue backlog).
  void gauge_fn(std::string_view name, const Labels& labels, std::function<double()> fn,
                std::string_view unit = "");
  void gauge_fn(std::string_view name, LabelSetId labels, std::function<double()> fn,
                std::string_view unit = "");

  // --- Export ---
  /// What export sees of one instrument: views into the registry, valid
  /// while the registry lives and registers nothing new.
  class Instrument {
   public:
    [[nodiscard]] std::string_view name() const;
    /// Empty when the instrument was registered without a unit.
    [[nodiscard]] std::string_view unit() const;
    [[nodiscard]] InstrumentKind kind() const;
    /// The label part of its canonical key, `{k1=v1,k2=v2}`; empty without
    /// labels.
    [[nodiscard]] std::string_view label_text() const;
    /// Calls fn(key, value) for each label, in (key, value) order.
    template <class Fn>
    void for_each_label(Fn&& fn) const {
      registry_->for_each_label_in(entry_->labels, fn);
    }
    /// Counter or gauge value, read now; 0 for a histogram.
    [[nodiscard]] double value() const;
    /// The histogram; null unless kind() is kHistogram.
    [[nodiscard]] const Histogram* histogram() const;
    /// The canonical key, `name{k=v,...}` (builds a string).
    [[nodiscard]] std::string key() const;

   private:
    friend class MetricsRegistry;
    Instrument(const MetricsRegistry& registry, const Entry& entry)
        : registry_(&registry), entry_(&entry) {}
    const MetricsRegistry* registry_;
    const Entry* entry_;
  };

  /// Calls `fn` on every instrument in canonical-key byte order, evaluating
  /// probes as it goes. Exports (manifest JSON) use this so two runs that
  /// register instruments in a different order still serialize identically
  /// — a requirement for the regression plane's byte-stable artifacts.
  void visit(const std::function<void(const Instrument&)>& fn) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool has(std::string_view name, const Labels& labels = {}) const;
  /// Current value of a counter/gauge instrument; throws if absent or a
  /// histogram. Intended for tests and report glue, not hot paths.
  [[nodiscard]] double value(std::string_view name, const Labels& labels = {}) const;
  /// Histogram lookup; throws if absent or not a histogram.
  [[nodiscard]] const Histogram& histogram_at(std::string_view name,
                                              const Labels& labels = {}) const;

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Open-addressing table of dense ids: linear probing over a power-of-two
  /// array kept at most half full. The caller hashes keys and says whether
  /// an id holds a key; growth re-hashes every id through `hash_of`.
  class IdTable {
   public:
    template <class Holds>
    [[nodiscard]] std::uint32_t find(std::size_t hash, Holds&& holds) const {
      if (slots_.empty()) return kAbsent;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        if (slots_[i] == kAbsent || holds(slots_[i])) return slots_[i];
      }
    }
    /// The id find() would return if it holds one; otherwise adds `id`
    /// (which `hash_of` need not know yet) and returns it.
    template <class Holds, class HashOf>
    std::uint32_t find_or_insert(std::size_t hash, std::uint32_t id, Holds&& holds,
                                 HashOf&& hash_of) {
      if (2 * (count_ + 1) > slots_.size()) {
        std::vector<std::uint32_t> old(std::max<std::size_t>(16, 2 * slots_.size()),
                                       kAbsent);
        old.swap(slots_);
        for (const std::uint32_t o : old) {
          if (o != kAbsent) slots_[free_slot(hash_of(o))] = o;
        }
      }
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash & mask;
      for (; slots_[i] != kAbsent; i = (i + 1) & mask) {
        if (holds(slots_[i])) return slots_[i];
      }
      slots_[i] = id;
      ++count_;
      return id;
    }

   private:
    [[nodiscard]] std::size_t free_slot(std::size_t hash) const {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash & mask;
      while (slots_[i] != kAbsent) i = (i + 1) & mask;
      return i;
    }
    std::vector<std::uint32_t> slots_;
    std::size_t count_ = 0;
  };

  /// One stored copy of each distinct string, packed into fixed chunks so
  /// the views handed out stay valid; ids are dense from 0. (A deque of
  /// std::string, one allocation per string, peaked 0.16 MB higher on the
  /// leaf-spine.)
  class Interner {
   public:
    std::uint32_t intern(std::string_view s);
    /// The id of `s`, or kAbsent.
    [[nodiscard]] std::uint32_t find(std::string_view s) const;
    [[nodiscard]] std::string_view operator[](std::uint32_t id) const {
      return views_[id];
    }
    [[nodiscard]] std::size_t size() const { return views_.size(); }
    /// Every id, in the byte order of its string.
    [[nodiscard]] std::vector<std::uint32_t> sorted_ids() const;

   private:
    static constexpr std::size_t kChunkBytes = 4096;
    std::vector<std::unique_ptr<char[]>> chunks_;
    char* next_ = nullptr;  // free space in the last chunk
    std::size_t free_ = 0;
    std::vector<std::string_view> views_;  // by id, into chunks_
    IdTable ids_;
  };

  /// A label set's labels: the (key size, value size) of each label, in
  /// order, at label_sizes_[first, first + count); the text holds the bytes.
  struct LabelSet {
    std::uint32_t first;
    std::uint32_t count;
  };

  /// Where an instrument's value comes from; `slot` indexes that store.
  enum class Source : std::uint8_t { kCell, kCounterFn, kGaugeFn, kHistogram };
  struct Entry {
    std::uint32_t name;
    std::uint32_t labels;  // label-set id
    std::uint32_t unit;    // id in names_
    Source source;
    std::uint32_t slot;
  };

  /// A label set's (key, value) pairs, sorted.
  using LabelViews = std::vector<std::pair<std::string_view, std::string_view>>;

  /// Calls fn(key, value) for each label of label set `id`, in order.
  template <class Fn>
  void for_each_label_in(std::uint32_t id, Fn&& fn) const {
    const std::string_view text = label_texts_[id];
    const LabelSet set = label_sets_[id];
    std::size_t pos = 1;  // past '{'
    for (std::uint32_t i = set.first; i < set.first + set.count; ++i) {
      const auto [key_size, value_size] = label_sizes_[i];
      fn(text.substr(pos, key_size), text.substr(pos + key_size + 1, value_size));
      pos += key_size + value_size + 2;  // past '=' and ',' (or '}')
    }
  }

  [[nodiscard]] static std::size_t entry_hash(std::uint32_t name, std::uint32_t labels);
  [[nodiscard]] static InstrumentKind kind_of(const Entry& e);
  [[nodiscard]] double value_of(const Entry& e) const;
  /// Interns the set of scratch_labels_'s pairs, sorted; throws if its text
  /// collides with a different set's.
  std::uint32_t intern_labels();
  /// The label-set id `labels` holds; throws unless this registry made it.
  [[nodiscard]] std::uint32_t checked(LabelSetId labels) const;
  /// The LabelSetId of label set `id` of this registry.
  [[nodiscard]] LabelSetId label_set_id(std::uint32_t id) const { return {serial_, id}; }
  /// Adds the entry, whose value source the caller then appends to its store
  /// at index `slot`; throws on a duplicate.
  void emplace(std::string_view name, std::uint32_t labels, std::string_view unit,
               Source source, std::size_t slot);
  /// The index in entries_ of (name id, label-set id), or kAbsent.
  [[nodiscard]] std::uint32_t entry_index(std::uint32_t name, std::uint32_t labels) const;
  /// The entry registered as (name, labels), or null.
  [[nodiscard]] const Entry* find(std::string_view name, const Labels& labels) const;
  /// The canonical key of an entry (builds a string).
  [[nodiscard]] std::string key_of(const Entry& e) const;
  /// Entry indices sorted by canonical key.
  [[nodiscard]] std::vector<std::uint32_t> export_order() const;

  const std::uint32_t serial_;  // names this registry in its LabelSetIds
  Interner names_;              // instrument names and units
  Interner label_texts_;  // canonical `{k=v,...}` texts; id == label-set id
  LabelViews scratch_labels_;  // label_set()'s pairs, reused
  std::string scratch_text_;   // label_set()'s text, reused
  std::vector<LabelSet> label_sets_;  // by label-set id
  std::vector<std::pair<std::uint32_t, std::uint32_t>> label_sizes_;
  std::deque<Entry> entries_;  // deque: no copy of every entry on growth
  IdTable index_;              // entries_ by (name id, label-set id)
  // Value sources; deques keep each histogram's address stable.
  std::deque<const std::uint64_t*> cells_;
  std::deque<std::function<std::uint64_t()>> counter_fns_;
  std::deque<std::function<double()>> gauge_fns_;
  std::deque<Histogram> histograms_;
};

/// Publishes the simulation kernel's own counters (events executed /
/// cancelled, max heap depth, pending events) as probe instruments. The
/// simulator must outlive the registry.
void bind_simulator_metrics(MetricsRegistry& registry, const sim::Simulator& simulator);

}  // namespace pmsb::telemetry
