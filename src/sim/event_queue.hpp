// Queue-backend vocabulary for the event kernel: the entry type both
// backends order, the (time, insertion-sequence) order that defines the
// kernel's deterministic tie order, the 4-ary heap, and the runtime-selection
// enum (`sched_queue=heap|calendar`).
//
// A QueueEntry is 16 bytes: the timestamp, and one key word packing the
// insertion sequence above a 24-bit handle (`seq << 24 | handle`). The
// handle names where the event's callback lives: a pool slot, or, with
// kTimerBit set, a kernel timer (simulator.hpp). Heap sifts and bucket
// inserts move two words, and a 4-ary heap node's four children are 64
// bytes, one cache line's worth. The callback itself never moves.
//
// Comparing (time, key) is comparing (time, seq): every seq is handed out
// once, so two entries never share one, and the handle bits below it never
// decide. pack_key() refuses a seq or handle that would not fit, in every
// build, so a run can never wrap into a misordered key.
//
// Both backends order entries identically (strict total order on (time, seq))
// and both discard a tombstone at exactly the moment it would have
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

/// Bits of a queue key below the insertion sequence.
inline constexpr int kHandleBits = 24;
/// Largest insertion sequence a key holds: 2^40 - 1.
inline constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kHandleBits)) - 1;
/// Largest handle a key holds: 2^24 - 1.
inline constexpr std::uint32_t kMaxHandle = (std::uint32_t{1} << kHandleBits) - 1;
/// The handle bit that marks a kernel timer; below it, the slot or timer
/// index, so each kind has 2^23 of them.
inline constexpr std::uint32_t kTimerBit = std::uint32_t{1} << (kHandleBits - 1);

/// Packs (seq, handle) into a queue key. Throws std::length_error, in every
/// build, when either is past what a key holds.
inline std::uint64_t pack_key(std::uint64_t seq, std::uint32_t handle) {
  if (seq > kMaxSeq) {
    throw std::length_error("sim::QueueEntry: insertion sequence past 2^40 - 1");
  }
  if (handle > kMaxHandle) {
    throw std::length_error("sim::QueueEntry: event handle past 2^24 - 1");
  }
  return seq << kHandleBits | handle;
}

/// One scheduled event as the queue sees it. The callback stays in its pool
/// slot or timer; only this 16-byte record moves through the queue.
struct QueueEntry {
  TimeNs time = 0;
  std::uint64_t key = 0;  ///< pack_key(seq, handle)

  /// Insertion sequence: the deterministic tie-break.
  [[nodiscard]] std::uint64_t seq() const { return key >> kHandleBits; }
  /// Pool slot index, or kTimerBit | timer index.
  [[nodiscard]] std::uint32_t handle() const {
    return static_cast<std::uint32_t>(key) & kMaxHandle;
  }
};
static_assert(sizeof(QueueEntry) == 16, "four heap children per cache line's worth");

/// The dispatch order on (time, seq): earliest first, FIFO among equal
/// timestamps.
inline bool earlier(const QueueEntry& a, const QueueEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.key < b.key;
}

/// The heap backend, and the calendar's store for everything its ring does
/// not hold: a flat 4-ary min-heap. 4-ary over binary because sifts on a
/// deep queue are cache-miss bound: half the levels, and a node's four
/// children are one cache line's worth (4 x 16 bytes), so a sift-down
/// touches roughly half the lines a binary heap does. Pop order is identical to any
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
