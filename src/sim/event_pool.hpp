// Per-Simulator slab allocator for event slots.
//
// Every event scheduled with Simulator::schedule_at occupies one
// generation-tagged slot carved from chunked storage owned by its
// Simulator: no per-event malloc, stable addresses (chunks never move), and
// O(1) acquire/release through a LIFO free list. The pool holds the one-off
// closures: fault delays and plan toggles, DCQCN, the sampler, DCTCP's RTO
// and pacing, and the invariant and watchdog ticks. Events a component
// re-arms at reserved positions (link deliveries and wake-ups, flow starts)
// are sim::Timers and take no slot. The generation tag is what makes EventId
// handles safe without the hash sets the old kernel consulted on every
// operation:
//
//  - acquire() stamps the slot with the event's insertion sequence number
//    (`seq`, globally monotone, never 0 while live);
//  - release() destroys the callback, zeroes `seq`, and bumps `generation`
//    (retire() then recycle(), which the kernel splits around an in-place
//    dispatch).
//
// A handle packs (generation, slot); a queue entry packs (time, seq << 24 | slot).
// `cancel` validates its handle against the slot's current generation, and
// the scheduler validates a popped queue entry against the slot's current
// `seq` — both a single indexed load, no hashing, and both immune to slot
// reuse because neither a released nor a re-acquired slot can match.
//
// The free list is LIFO and the pool is single-threaded (one per Simulator),
// so slot assignment — and with it every EventId a run hands out — is fully
// deterministic. A queue entry holds a slot index below 2^23 (event_queue.hpp);
// acquire() refuses to carve slot 2^23 with std::length_error, in every
// build.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/event_queue.hpp"

namespace pmsb::sim {

struct EventSlot {
  std::uint64_t seq = 0;         ///< insertion sequence; 0 while the slot is free
  std::uint32_t generation = 0;  ///< bumped on every release
  EventCallback fn;
};

class EventPool {
 public:
  // 128 slots (10 KiB) per chunk: a small run's ~100 live events touch one
  // chunk, which leaves room in its peak RSS for the calendar's 48 KiB ring.
  static constexpr std::size_t kChunkShift = 7;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Takes a free slot (reusing the most recently released one first),
  /// stamps it with `seq`, and stores `fn` in place. Returns the slot index.
  template <typename F>
  std::uint32_t acquire(std::uint64_t seq, F&& fn) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (size_ == kTimerBit) {
        throw std::length_error("sim::EventPool: more than 2^23 events pending");
      }
      if ((size_ & (kChunkSlots - 1)) == 0) {
        chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSlots));
      }
      idx = static_cast<std::uint32_t>(size_++);
    }
    EventSlot& s = slot(idx);
    s.seq = seq;
    s.fn.emplace(std::forward<F>(fn));
    return idx;
  }

  /// Destroys the slot's callback (releasing its captures immediately),
  /// invalidates outstanding handles and queue entries for it, and returns
  /// it to the free list.
  void release(std::uint32_t idx) {
    retire(idx);
    recycle(idx);
  }

  /// First half of release(): invalidates outstanding handles and queue
  /// entries for the slot but keeps its callback and keeps it off the free
  /// list. The kernel retires a slot before invoking its callback in place.
  void retire(std::uint32_t idx) {
    EventSlot& s = slot(idx);
    s.seq = 0;
    ++s.generation;
  }

  /// Second half of release(): destroys a retired slot's callback and
  /// returns the slot to the free list.
  void recycle(std::uint32_t idx) {
    slot(idx).fn.reset();
    free_.push_back(idx);
  }

  [[nodiscard]] EventSlot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] const EventSlot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }

  [[nodiscard]] std::uint32_t generation(std::uint32_t idx) const {
    return slot(idx).generation;
  }

  /// Slots ever carved (the valid index range), not the live count.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
};

}  // namespace pmsb::sim
