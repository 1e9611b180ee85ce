// Per-Simulator slab allocator for event closures.
//
// Every event scheduled with Simulator::schedule_at occupies one slot carved
// from chunked storage owned by its Simulator: no per-event malloc, stable
// addresses (chunks never move), and O(1) acquire/recycle through a LIFO free
// list. A slot is just the event's 64-byte EventCallback. The pool holds the
// one-off closures that nothing calls off and whose owners outlive their
// dispatch: fault delays and plan toggles, and DCQCN's timers. An event that
// is called off, re-armed at a reserved position, or owned by something that
// can die while it is queued (link deliveries and wake-ups, flow starts,
// DCTCP's retransmission and pacing timers, the sampler's tick, the run
// guard's tick) is a sim::Timer and takes no slot.
//
// Since nothing cancels a closure, its queue entry stays live from push to
// pop and the slot needs no tag to validate it. The kernel runs the callback
// where it lies and recycle()s the slot after the call, even when the call
// throws, so a schedule from inside the callback is never handed the running
// slot.
//
// The free list is LIFO and the pool is single-threaded (one per Simulator),
// so slot assignment is fully deterministic. A queue entry holds a slot index
// below 2^23 (event_queue.hpp); acquire() refuses to carve slot 2^23 with
// std::length_error, in every build.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/event_queue.hpp"

namespace pmsb::sim {

class EventPool {
 public:
  // 128 slots (8 KiB) per chunk: a small run's ~100 live events touch one
  // chunk, which leaves room in its peak RSS for the calendar's 48 KiB ring.
  static constexpr std::size_t kChunkShift = 7;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Takes a free slot (reusing the most recently recycled one first) and
  /// stores `fn` in place. Returns the slot index.
  template <typename F>
  std::uint32_t acquire(F&& fn) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (size_ == kTimerBit) {
        throw std::length_error("sim::EventPool: more than 2^23 events pending");
      }
      if ((size_ & (kChunkSlots - 1)) == 0) {
        chunks_.push_back(std::make_unique<EventCallback[]>(kChunkSlots));
      }
      idx = static_cast<std::uint32_t>(size_++);
    }
    slot(idx).emplace(std::forward<F>(fn));
    return idx;
  }

  /// Destroys a dispatched slot's callback (releasing its captures) and
  /// returns the slot to the free list.
  void recycle(std::uint32_t idx) {
    slot(idx).reset();
    free_.push_back(idx);
  }

  [[nodiscard]] EventCallback& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }

 private:
  std::vector<std::unique_ptr<EventCallback[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;  ///< slots ever carved
};

}  // namespace pmsb::sim
