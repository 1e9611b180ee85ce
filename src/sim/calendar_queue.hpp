// Calendar backend for the event kernel: a fixed ring of near-future time
// buckets in front of the 4-ary HeapEventQueue.
//
// The ring is 64 buckets of 256 ns each, stored in one flat entry array
// (16 entries per bucket) with a one-word bitmap of occupied buckets. An
// entry's bucket number is `time >> kShift`; bucket number b lives at ring
// index b % 64. Each bucket holds a short run sorted by (time, seq). An
// entry goes to the heap instead when its bucket lies outside the ring's
// window or is full. The front of the queue is whichever comes first by
// (time, seq): the first entry of the first occupied bucket, or the heap's
// top.
//
// Why that front is the exact (time, seq) minimum. The window is the bucket
// numbers [start, start + 64), where `start` is the bucket of the latest
// popped entry. Peeking never moves it, and it never moves back: a pop from
// below it leaves it where it is.
//  - Every pushed time is >= the simulator's now(), and now() is >= the last
//    popped entry's time, so a pushed entry's bucket is >= start. (The one
//    exception: run(until) discards a cancelled entry past the horizon and
//    then settles now() at `until`. A later push below start fails the
//    window test and goes to the heap.)
//  - `start` only advances to the bucket of a popped entry, which was the
//    global minimum, so no ring entry is left below it; and start + 64 only
//    grows. So every ring entry's bucket lies in [start, start + 64).
//  - A circular bitmap scan from index start % 64 (a rotate and a count of
//    trailing zeros) therefore visits the ring's buckets in time order, and
//    inside a bucket the run is sorted, so the first entry found is the
//    ring's minimum. Comparing it with the heap's top gives the global
//    minimum.
// Dispatch order, tombstone discards, compaction points and size() are
// therefore exactly the heap backend's, and no digest can tell them apart.
//
// The geometry is fixed, sized from the packet path: a 40-byte ACK
// serializes in 32 ns at 10 Gb/s and a 1,500-byte frame in 1.2 us, so a
// hop's delivery or wake-up is at most ~3.2 us ahead on the dumbbell (2 us
// links) and ~10.2 us on the leaf-spine (9 us links). A 16.4 us window
// holds all of them; flow starts, retransmission timers (1 ms and up) and
// the 100 us invariant tick go to the heap. 16 entries per 256 ns bucket
// keep 85-99% of the benchmark workloads' pushes in the ring. In a denser
// or faster fabric buckets fill and entries fall to the heap: slower than
// the ring, never misordered.
//
// The entry array (24 KiB) is allocated on the first ring push, so a
// Simulator on the heap backend, which never pushes to the ring, allocates
// nothing here.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace pmsb::sim {

class CalendarQueue {
 public:
  /// With `ring` false every entry goes to the heap: the heap backend.
  explicit CalendarQueue(bool ring) : window_(ring ? kBuckets : 0) {}
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  void push(const QueueEntry& e) {
    const std::uint64_t bucket = bucket_of(e.time);
    const std::size_t b = bucket & kMask;
    if (bucket - start_ >= window_ || tail_[b] == kSlots) {
      heap_.push(e);
      return;
    }
    if (!ring_) ring_ = std::make_unique_for_overwrite<QueueEntry[]>(kBuckets * kSlots);
    // Insert from the back: almost always an append. A reserved seq queued
    // late lands ahead of same-time entries with larger seqs.
    QueueEntry* run = &ring_[b * kSlots];
    std::size_t i = tail_[b]++;
    for (; i > head_[b] && earlier(e, run[i - 1]); --i) run[i] = run[i - 1];
    run[i] = e;
    occupied_ |= std::uint64_t{1} << b;
    ++ring_size_;
  }

  /// The next entry in (time, seq) order, or nullptr when empty. Remembers
  /// where it found it for pop(); never moves the window. The pointer is
  /// invalidated by any push/pop/compact.
  [[nodiscard]] const QueueEntry* peek() {
    const QueueEntry* top = heap_.peek();
    front_ = kHeapFront;
    if (ring_size_ != 0) {
      const std::size_t b = first_occupied();
      const QueueEntry* r = &ring_[b * kSlots + head_[b]];
      if (top == nullptr || earlier(*r, *top)) {
        front_ = b;
        top = r;
      }
    }
    return top;
  }

  /// Removes and returns the entry the last peek() returned. peek() must
  /// have returned non-null, with no push, pop or compact since.
  QueueEntry pop() {
    if (front_ == kHeapFront) {
      const QueueEntry e = heap_.pop();
      start_ = std::max(start_, bucket_of(e.time));
      return e;
    }
    const std::size_t b = front_;
    const QueueEntry e = ring_[b * kSlots + head_[b]];
    if (++head_[b] == tail_[b]) {
      head_[b] = tail_[b] = 0;
      occupied_ &= ~(std::uint64_t{1} << b);
    }
    --ring_size_;
    start_ = bucket_of(e.time);
    return e;
  }

  /// Entries in the ring and the heap, tombstones included.
  [[nodiscard]] std::size_t size() const { return ring_size_ + heap_.size(); }

  /// Drops every entry for which `keep` returns false, from both parts. Each
  /// bucket's run stays sorted; the window does not move.
  template <typename Keep>
  void compact(Keep keep) {
    for (std::size_t b = 0; b < kBuckets && ring_size_ != 0; ++b) {
      if (tail_[b] == 0) continue;
      QueueEntry* run = &ring_[b * kSlots];
      std::uint8_t n = 0;
      for (std::size_t i = head_[b]; i < tail_[b]; ++i) {
        if (keep(run[i])) run[n++] = run[i];
      }
      ring_size_ -= tail_[b] - head_[b] - n;
      head_[b] = 0;
      tail_[b] = n;
      if (n == 0) occupied_ &= ~(std::uint64_t{1} << b);
    }
    heap_.compact(keep);
  }

 private:
  static constexpr int kShift = 8;             // 256 ns per bucket
  static constexpr std::size_t kBuckets = 64;  // one bitmap word; 16.4 us
  static constexpr std::size_t kSlots = 16;    // entries per bucket
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kHeapFront = kBuckets;

  static std::uint64_t bucket_of(TimeNs t) {
    return static_cast<std::uint64_t>(t) >> kShift;
  }

  /// The first occupied ring index at or after the window start, wrapping.
  /// Precondition: ring_size_ != 0.
  [[nodiscard]] std::size_t first_occupied() const {
    assert(occupied_ != 0);
    const int s = static_cast<int>(start_ & kMask);
    const int skip = std::countr_zero(std::rotr(occupied_, s));
    return static_cast<std::size_t>(s + skip) & kMask;
  }

  std::unique_ptr<QueueEntry[]> ring_;  ///< kBuckets x kSlots, on first ring push
  std::uint64_t occupied_ = 0;  ///< bit b: ring index b holds entries
  std::array<std::uint8_t, kBuckets> head_{};  ///< first live slot of each run
  std::array<std::uint8_t, kBuckets> tail_{};  ///< one past the last
  std::size_t ring_size_ = 0;
  std::uint64_t start_ = 0;  ///< bucket number of the window's first bucket
  const std::uint64_t window_;  ///< kBuckets, or 0 with the ring off
  std::size_t front_ = kHeapFront;  ///< where the last peek() found the front
  HeapEventQueue heap_;
};

}  // namespace pmsb::sim
