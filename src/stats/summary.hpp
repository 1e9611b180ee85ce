// Order statistics over a sample set: mean, percentiles, min/max.
//
// Exact, in memory proportional to the number of distinct values: samples
// are kept as sorted (value, count) runs. A value already in a run bumps its
// count; a new one waits in a bounded append buffer that is merged in when
// it fills or a query needs the order. A stream whose compaction leaves
// most samples distinct falls back to a plain sample vector, so no stream
// costs more than its samples do. The mean is a running sum in insertion
// order, so a query never changes it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmsb::stats {

class Summary {
 public:
  void add(double v) {
    sum_ += v;
    ++count_;
    sorted_ = false;
    if (!plain_) {
      const auto run = std::lower_bound(
          runs_.begin(), runs_.end(), v,
          [](const Run& r, double x) { return r.value < x; });
      if (run != runs_.end() && run->value == v) {
        ++run->count;
        return;
      }
    }
    buffer_.push_back(v);
    if (!plain_ && buffer_.size() >= std::max(kMinBuffer, runs_.size())) compact();
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] double mean() const {
    if (count_ == 0) return 0.0;
    return sum_ / static_cast<double>(count_);
  }

  /// p in [0, 100]; nearest-rank with linear interpolation.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    settle();
    if (count_ == 1) return at(0);
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  }

  [[nodiscard]] double min() const {
    if (count_ == 0) return 0.0;
    settle();
    return plain_ ? buffer_.front() : runs_.front().value;
  }

  [[nodiscard]] double max() const {
    if (count_ == 0) return 0.0;
    settle();
    return plain_ ? buffer_.back() : runs_.back().value;
  }

 private:
  struct Run {
    double value;
    std::uint64_t count;
  };
  static constexpr std::size_t kMinBuffer = 1024;

  /// Puts every sample in order: sorts the plain vector, or merges the
  /// buffer into the runs.
  void settle() const {
    if (!plain_) {
      compact();
    } else if (!sorted_) {
      std::sort(buffer_.begin(), buffer_.end());
      sorted_ = true;
    }
  }

  /// The sample of 0-based rank `i` once settled.
  [[nodiscard]] double at(std::size_t i) const {
    if (plain_) return buffer_[i];
    for (const Run& r : runs_) {
      if (i < r.count) return r.value;
      i -= r.count;
    }
    return runs_.back().value;
  }

  void compact() const {
    if (buffer_.empty()) return;
    std::sort(buffer_.begin(), buffer_.end());
    std::vector<Run> merged;
    merged.reserve(runs_.size() + buffer_.size());
    auto push = [&merged](double v, std::uint64_t n) {
      if (!merged.empty() && merged.back().value == v) {
        merged.back().count += n;
      } else {
        merged.push_back({v, n});
      }
    };
    auto run = runs_.begin();
    for (const double v : buffer_) {
      for (; run != runs_.end() && run->value < v; ++run) push(run->value, run->count);
      push(v, 1);
    }
    for (; run != runs_.end(); ++run) push(run->value, run->count);
    buffer_.clear();
    if (merged.size() * 2 > count_) {
      // Mostly distinct: a run costs twice a plain sample. Expand, in order.
      for (const Run& r : merged) buffer_.insert(buffer_.end(), r.count, r.value);
      buffer_.shrink_to_fit();
      runs_ = {};
      plain_ = true;
      sorted_ = true;
      return;
    }
    merged.shrink_to_fit();
    runs_ = std::move(merged);
  }

  double sum_ = 0.0;  // insertion order
  std::size_t count_ = 0;
  // Runs mode: sorted distinct values with counts, plus samples not merged
  // yet. Plain mode: every sample in buffer_, sorted when sorted_.
  mutable std::vector<Run> runs_;
  mutable std::vector<double> buffer_;
  mutable bool plain_ = false;
  mutable bool sorted_ = false;
};

}  // namespace pmsb::stats
