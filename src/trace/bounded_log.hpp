// Bounded record storage shared by the port Tracer and the SpanTracer.
//
// A forgotten tracer must not eat the heap, so capture is capped at
// `capacity` records. On overflow the log either drops new records
// (kDropNewest, the default) or overwrites the oldest (kRingBuffer —
// post-mortems want the tail, not the head). Either way `overflow()` counts
// what was lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmsb::trace {

/// What to do with a new record once `capacity` is reached.
enum class OverflowPolicy : std::uint8_t {
  kDropNewest,  ///< keep the first N records, count the rest as overflow
  kRingBuffer,  ///< keep the LAST N records, overwriting the oldest
};

template <typename Record>
class BoundedLog {
 public:
  explicit BoundedLog(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  void store(const Record& rec) {
    if (records_.size() < capacity_) {
      records_.push_back(rec);
      return;
    }
    ++overflow_;
    if (policy_ == OverflowPolicy::kDropNewest || capacity_ == 0) return;
    // Ring mode: evict the oldest record in place.
    records_[write_] = rec;
    write_ = (write_ + 1) % capacity_;
  }

  /// Raw storage. In ring mode after wrap-around this is NOT chronological;
  /// use for_each_chronological() for ordered access.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Records lost (kDropNewest) or evicted (kRingBuffer).
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Visits the retained records oldest-first.
  template <typename Fn>
  void for_each_chronological(Fn&& fn) const {
    for (std::size_t i = write_; i < records_.size(); ++i) fn(records_[i]);
    for (std::size_t i = 0; i < write_; ++i) fn(records_[i]);
  }

  void clear() {
    records_.clear();
    overflow_ = 0;
    write_ = 0;
  }

 private:
  std::size_t capacity_;
  OverflowPolicy policy_;
  std::vector<Record> records_;
  std::size_t write_ = 0;  ///< ring mode: index of the oldest record
  std::uint64_t overflow_ = 0;
};

}  // namespace pmsb::trace
