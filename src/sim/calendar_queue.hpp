// Calendar backend for the event kernel: a fixed ring of near-future time
// buckets in front of the 4-ary HeapEventQueue.
//
// The ring is 256 buckets of 64 ns each, stored in one flat entry array
// (12 entries per bucket) with a four-word bitmap of occupied buckets. An
// entry's bucket number is `time >> kShift`; bucket number b lives at ring
// index b % 256. An entry goes to the heap instead when its bucket lies
// outside the ring's window or is full. The front of the queue is whichever
// comes first by (time, seq): the first entry of the first occupied bucket,
// or the heap's top.
//
// Open and closed buckets. A bucket is closed until peek() first finds it
// in front, and a push into a closed bucket appends: it writes the entry
// after the run and reads none of it. (The bucket's line was last touched
// one ring revolution, 16.4 us of simulated time, earlier; a sorted insert
// would wait for it.) peek() insertion-sorts a closed bucket's run by
// (time, seq) when it finds it first, with the run just loaded, and marks
// it open. A push into an open bucket inserts from the back and keeps it
// sorted; a reserved seq queued late lands ahead of same-time entries with
// larger seqs. A bucket closes when it empties.
//
// Why that front is the exact (time, seq) minimum. The window is the bucket
// numbers [start, start + 256), where `start` is the bucket of the latest
// popped entry. Peeking never moves it, and it never moves back: a pop from
// below it leaves it where it is. Nothing below depends on the bucket count.
//  - Every pushed time is >= the simulator's now(), and now() is >= the last
//    popped entry's time, so a pushed entry's bucket is >= start. (The one
//    exception: run(until) discards a tombstone past the horizon and
//    then settles now() at `until`. A later push below start fails the
//    window test and goes to the heap.)
//  - `start` only advances to the bucket of a popped entry, which was the
//    global minimum, so no ring entry is left below it; and start + 256 only
//    grows. So every ring entry's bucket lies in [start, start + 256), and a
//    ring index holds one bucket number's entries at a time.
//  - A circular bitmap scan from index start % 256 (the start word masked
//    below the start, then the words in cyclic order, each with a count of
//    trailing zeros) therefore visits the ring's buckets in time order. The
//    first occupied bucket is sorted before its front is read: peek() opens
//    it if it is closed, pop() reads only the front that peek() found, and
//    an open bucket stays sorted through pushes and compaction. So the first
//    entry found is the ring's minimum. Comparing it with the heap's top
//    gives the global minimum.
// Dispatch order, tombstone discards, compaction points and size() are
// therefore exactly the heap backend's, and no digest can tell them apart.
//
// The geometry is fixed, sized from the packet path: a 40-byte ACK
// serializes in 32 ns at 10 Gb/s and a 1,500-byte frame in 1.2 us, so a
// hop's delivery or wake-up is at most ~3.2 us ahead on the dumbbell (2 us
// links) and ~10.2 us on the leaf-spine (9 us links). A 16.4 us window
// holds all of them; flow starts, retransmission timers (1 ms and up) and
// the 100 us guard tick go to the heap. With 12 entries per 64 ns
// bucket the heap takes 0.3% of fabric-poisson's pushes, 1.3% of a 400-flow
// load-0.6 leaf-spine run's and 11.6% of a 2,000-flow load-0.9 run's
// (128 buckets of 128 ns with 16 entries: 1.5%, 5.7% and 26.8%; with 24
// entries fewer overflowed, but a push then moved 1.46-2.75 entries against
// 0.74-1.25). In a denser or faster fabric buckets still fill and entries
// fall to the heap: slower than the ring, never misordered.
//
// The entry array (48 KiB) is allocated on the first ring push, so a
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
    QueueEntry* run = &ring_[b * kSlots];
    std::size_t i = tail_[b]++;
    if (test(open_, b)) {
      for (; i > head_[b] && earlier(e, run[i - 1]); --i) run[i] = run[i - 1];
    }
    run[i] = e;
    set(occupied_, b);
    ++ring_size_;
  }

  /// The next entry in (time, seq) order, or nullptr when empty. Remembers
  /// where it found it for pop(); never moves the window, and opens the
  /// first occupied bucket if it is closed. The pointer is invalidated by
  /// any push/pop/compact.
  [[nodiscard]] const QueueEntry* peek() {
    const QueueEntry* top = heap_.peek();
    front_ = kHeapFront;
    if (ring_size_ != 0) {
      const std::size_t b = first_occupied();
      if (!test(open_, b)) open(b);
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
      clear(occupied_, b);
      clear(open_, b);
    }
    --ring_size_;
    start_ = bucket_of(e.time);
    return e;
  }

  /// Entries in the ring and the heap, tombstones included.
  [[nodiscard]] std::size_t size() const { return ring_size_ + heap_.size(); }

  /// Drops every entry for which `keep` returns false, from both parts. Each
  /// bucket keeps its run's order, sorted or not, and stays open or closed
  /// unless it empties; the window does not move.
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
      if (n == 0) {
        clear(occupied_, b);
        clear(open_, b);
      }
    }
    heap_.compact(keep);
  }

 private:
  static constexpr int kShift = 6;              // 64 ns per bucket
  static constexpr std::size_t kBuckets = 256;  // four bitmap words; 16.4 us
  static constexpr std::size_t kSlots = 12;     // entries per bucket
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;
  static constexpr std::size_t kHeapFront = kBuckets;
  static_assert(kBuckets * kSlots * sizeof(QueueEntry) == 48 * 1024);

  using Bitmap = std::array<std::uint64_t, kWords>;

  static std::uint64_t bucket_of(TimeNs t) {
    return static_cast<std::uint64_t>(t) >> kShift;
  }
  static bool test(const Bitmap& m, std::size_t b) {
    return (m[b / 64] >> (b % 64) & 1) != 0;
  }
  static void set(Bitmap& m, std::size_t b) { m[b / 64] |= std::uint64_t{1} << (b % 64); }
  static void clear(Bitmap& m, std::size_t b) {
    m[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }

  /// Sorts closed bucket b's run by (time, seq) and marks it open.
  void open(std::size_t b) {
    QueueEntry* run = &ring_[b * kSlots];
    for (std::size_t i = head_[b] + 1; i < tail_[b]; ++i) {
      const QueueEntry e = run[i];
      std::size_t j = i;
      for (; j > head_[b] && earlier(e, run[j - 1]); --j) run[j] = run[j - 1];
      run[j] = e;
    }
    set(open_, b);
  }

  /// The first occupied ring index at or after the window start, wrapping.
  /// Precondition: ring_size_ != 0.
  [[nodiscard]] std::size_t first_occupied() const {
    assert(std::any_of(occupied_.begin(), occupied_.end(),
                       [](std::uint64_t word) { return word != 0; }));
    const std::size_t s = start_ & kMask;
    std::size_t w = s / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (s % 64));
    // Back at the start word, the bits below the start are the wrapped tail.
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  std::unique_ptr<QueueEntry[]> ring_;  ///< kBuckets x kSlots, on first ring push
  /// Bit b % 64 of word b / 64: ring index b holds entries.
  Bitmap occupied_{};
  /// Bit b % 64 of word b / 64: ring index b's run is sorted (see above).
  Bitmap open_{};
  std::array<std::uint8_t, kBuckets> head_{};  ///< first live slot of each run
  std::array<std::uint8_t, kBuckets> tail_{};  ///< one past the last
  std::size_t ring_size_ = 0;
  std::uint64_t start_ = 0;  ///< bucket number of the window's first bucket
  const std::uint64_t window_;  ///< kBuckets, or 0 with the ring off
  std::size_t front_ = kHeapFront;  ///< where the last peek() found the front
  HeapEventQueue heap_;
};

}  // namespace pmsb::sim
