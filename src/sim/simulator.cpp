#include "sim/simulator.hpp"

#include <cassert>

namespace pmsb::sim {

namespace {

// Balances hook_->begin_dispatch() even when the event callback throws —
// every faults::Watchdog trip legitimately throws through dispatch, and an
// attached Profiler must not be left with an open scope.
class EndDispatchGuard {
 public:
  explicit EndDispatchGuard(DispatchHook* hook) : hook_(hook) {}
  EndDispatchGuard(const EndDispatchGuard&) = delete;
  EndDispatchGuard& operator=(const EndDispatchGuard&) = delete;
  ~EndDispatchGuard() { hook_->end_dispatch(); }

 private:
  DispatchHook* hook_;
};

// Destroys the dispatched callback and frees its slot once the callback
// returns or throws.
class RecycleGuard {
 public:
  RecycleGuard(EventPool& pool, std::uint32_t idx) : pool_(pool), idx_(idx) {}
  RecycleGuard(const RecycleGuard&) = delete;
  RecycleGuard& operator=(const RecycleGuard&) = delete;
  ~RecycleGuard() { pool_.recycle(idx_); }

 private:
  EventPool& pool_;
  std::uint32_t idx_;
};

}  // namespace

bool Simulator::step(TimeNs until) {
  for (;;) {
    const QueueEntry* top = queue_.peek();
    if (top == nullptr) {
      settle_at(now_);
      return false;
    }
    if (!is_live(*top)) {
      // Tombstone: its timer was destroyed while armed (and its table slot
      // perhaps taken by a new one since). Discard.
      queue_.pop();
      assert(stale_entries_ > 0);
      --stale_entries_;
      continue;
    }
    if (top->time > until) {
      if (until >= now_) settle_at(until);
      return false;
    }
    const QueueEntry e = queue_.pop();
    const std::uint32_t handle = e.handle();
    assert(live_events_ > 0);
    --live_events_;
    const TimeNs delta = e.time - now_;
    now_ = e.time;
    dispatch_seq_ = e.seq();
    ++executed_events_;
    if ((handle & kTimerBit) != 0) {
      // Idle before the call, so the callback may arm it again. Copied out:
      // the callback may add timers and move the table.
      TimerRecord& rec = timers_[handle & ~kTimerBit];
      rec.seq = 0;
      const auto fn = rec.fn;
      void* const ctx = rec.ctx;
      if (hook_ != nullptr) {
        hook_->begin_dispatch(now_, delta);
        EndDispatchGuard guard{hook_};
        fn(ctx);
        return true;
      }
      fn(ctx);
      return true;
    }
    // Run the callback where it lies. The slot stays off the free list until
    // the guard recycles it, so a re-entrant schedule can never be handed
    // it. Chunks never move, so `fn` stays valid while the callback
    // schedules.
    const RecycleGuard recycle{pool_, handle};
    EventCallback& fn = pool_.slot(handle);
    if (hook_ != nullptr) {
      hook_->begin_dispatch(now_, delta);
      EndDispatchGuard guard{hook_};
      fn();
      return true;
    }
    fn();
    return true;
  }
}

void Simulator::run(TimeNs until) {
  stop_requested_ = false;
  while (!stop_requested_ && step(until)) {
  }
  // Drain exit also lands on the horizon: whether the queue emptied before
  // `until` or events remain past it, back-to-back run(t1); run(t2) callers
  // observe now() == t1 in between. stop() exits don't clamp — time stays
  // at the event that requested the stop.
  if (!stop_requested_ && until != kTimeNever && live_events_ == 0 &&
      now_ < until) {
    settle_at(until);
  }
}

void Simulator::maybe_compact() {
  const std::size_t depth = queue_depth();
  if (depth < kCompactMinDepth || stale_entries_ * 2 <= depth) return;
  queue_.compact([this](const QueueEntry& e) { return is_live(e); });
  stale_entries_ = 0;
  ++queue_compactions_;
}

std::uint32_t Simulator::add_timer(void (*fn)(void*), void* ctx) {
  std::uint32_t index;
  if (!free_timers_.empty()) {
    index = free_timers_.back();
    free_timers_.pop_back();
  } else {
    if (timers_.size() == kTimerBit) {
      throw std::length_error("sim::Timer: more than 2^23 timers in one Simulator");
    }
    index = static_cast<std::uint32_t>(timers_.size());
    timers_.emplace_back();
    // Room for every slot on the free list, so drop_timer(), called from a
    // destructor, never allocates.
    free_timers_.reserve(timers_.capacity());
  }
  timers_[index] = TimerRecord{0, fn, ctx};
  return index;
}

void Simulator::drop_timer(std::uint32_t index) {
  TimerRecord& rec = timers_[index];
  const bool armed = rec.seq != 0;
  rec = TimerRecord{};
  free_timers_.push_back(index);
  if (armed) entry_cancelled();
}

}  // namespace pmsb::sim
