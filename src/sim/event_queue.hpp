// Queue-backend vocabulary for the event kernel: the entry type both
// backends order, the (time, insertion-sequence) order that defines the
// kernel's deterministic tie order, the 4-ary heap, and the runtime-selection
// enum (`sched_queue=heap|calendar`).
//
// A QueueEntry is 24 bytes — timestamp, insertion sequence, and the index of
// the event's pool slot — so heap sifts move three words instead of the old
// 48+-byte Event carrying a std::function. The callback itself never moves
// after scheduling; it lives in the slot until dispatch.
//
// Both backends order entries identically (strict total order on (time, seq))
// and both discard a cancelled entry at exactly the moment it would have
// been popped, so the dispatch sequence — and every digest derived from it —
// is bit-identical whichever backend runs a scenario.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace pmsb::sim {

/// Which priority-queue implementation orders the event kernel.
enum class QueueBackend {
  kHeap,      ///< 4-ary heap alone — O(log n); the conformance oracle
  kCalendar,  ///< near-future bucket ring in front of the heap (default;
              ///< calendar_queue.hpp)
};

inline QueueBackend parse_queue_backend(const std::string& name) {
  if (name == "heap") return QueueBackend::kHeap;
  if (name == "calendar") return QueueBackend::kCalendar;
  throw std::invalid_argument("unknown sched_queue '" + name +
                              "' (want heap | calendar)");
}

inline const char* queue_backend_name(QueueBackend backend) {
  return backend == QueueBackend::kHeap ? "heap" : "calendar";
}

/// One scheduled event as the queue sees it. The callback stays in the pool
/// slot; only this 24-byte record moves through the queue.
struct QueueEntry {
  TimeNs time = 0;
  std::uint64_t seq = 0;   ///< insertion sequence — the deterministic tie-break
  std::uint32_t slot = 0;  ///< pool slot holding the callback
};

/// The dispatch order on (time, seq): earliest first, FIFO among equal
/// timestamps.
inline bool earlier(const QueueEntry& a, const QueueEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// The heap backend, and the calendar's store for everything its ring does
/// not hold: a flat 4-ary min-heap. 4-ary over binary because sifts on a
/// deep queue are cache-miss bound: half the levels, and a node's four
/// children sit in ~one cache line (4 x 24 bytes), so a sift-down touches
/// roughly half the lines a binary heap does. Pop order is identical to any
/// correct priority queue — (time, seq) is a total order, so the structure
/// of the heap can't show through.
class HeapEventQueue {
 public:
  void push(const QueueEntry& e) {
    v_.push_back(e);
    sift_up(v_.size() - 1);
  }

  /// The next entry in (time, seq) order, or nullptr when empty. The pointer
  /// is invalidated by any push/pop/compact.
  [[nodiscard]] const QueueEntry* peek() const {
    return v_.empty() ? nullptr : v_.data();
  }

  QueueEntry pop() {
    const QueueEntry top = v_.front();
    const QueueEntry last = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      v_.front() = last;
      sift_down(0);
    }
    return top;
  }

  [[nodiscard]] std::size_t size() const { return v_.size(); }

  /// Drops every entry for which `keep` returns false and restores the heap
  /// invariant — the tombstone purge behind Simulator::maybe_compact.
  template <typename Keep>
  void compact(Keep keep) {
    v_.erase(std::remove_if(v_.begin(), v_.end(),
                            [&](const QueueEntry& e) { return !keep(e); }),
             v_.end());
    heapify();
  }

 private:
  void sift_up(std::size_t i) {
    const QueueEntry e = v_[i];
    while (i != 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  void sift_down(std::size_t i) {
    const QueueEntry e = v_[i];
    const std::size_t n = v_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t limit = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < limit; ++c) {
        if (earlier(v_[c], v_[best])) best = c;
      }
      if (!earlier(v_[best], e)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = e;
  }

  void heapify() {
    if (v_.size() < 2) return;
    for (std::size_t i = (v_.size() - 2) >> 2;; --i) {
      sift_down(i);
      if (i == 0) break;
    }
  }

  std::vector<QueueEntry> v_;
};

}  // namespace pmsb::sim
