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

// Destroys the dispatched callback and frees its retired slot once the
// callback returns or throws.
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
    if (pool_.slot(top->slot).seq != top->seq) {
      // Tombstone: the event was cancelled (or its slot reused after a
      // purge race — impossible here, but the check subsumes it). Discard.
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
    // Run the callback where it lies. Retiring the slot first makes a cancel
    // of this event's own handle a no-op, and the slot stays off the free
    // list until the guard recycles it, so a re-entrant schedule can never
    // be handed it. Chunks never move, so `fn` stays valid while the
    // callback schedules.
    pool_.retire(e.slot);
    const RecycleGuard recycle{pool_, e.slot};
    EventCallback& fn = pool_.slot(e.slot).fn;
    assert(live_events_ > 0);
    --live_events_;
    const TimeNs delta = e.time - now_;
    now_ = e.time;
    dispatch_seq_ = e.seq;
    ++executed_events_;
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
  const auto keep = [this](const QueueEntry& e) {
    return pool_.slot(e.slot).seq == e.seq;
  };
  queue_.compact(keep);
  stale_entries_ = 0;
  ++queue_compactions_;
}

}  // namespace pmsb::sim
