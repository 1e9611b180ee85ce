// The dcnsim discrete-event simulation kernel.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule callbacks with `schedule_at(t, fn)`; `run()` pops events in
// (time, insertion-sequence) order until the queue drains or a stop
// condition fires. Ties at the same timestamp execute in the order they
// were scheduled, which makes runs bit-for-bit reproducible.
//
// Hot-path design:
//  - a scheduled callback lives in a slot of a per-Simulator EventPool (slab
//    chunks, LIFO free list, no per-event malloc); the callback type is a
//    48-byte small-buffer EventCallback, not std::function (see
//    event_callback.hpp);
//  - the queue orders 16-byte QueueEntry{time, seq << 24 | handle} records
//    (event_queue.hpp), so sifts and bucket inserts move two words and never
//    touch the closure; the handle is the pool slot or the timer;
//  - a closure is never called off: once scheduled it runs. Dispatch runs it
//    in its pool slot and recycles the slot after the call, even when the
//    callback throws;
//  - an event that may never be needed can take its place in the order
//    without being queued: `reserve_seq()` hands out the insertion sequence
//    now, and a sim::Timer armed later with `arm(t, seq)` runs exactly where
//    a `schedule_at` issued at reservation time would have run, while
//    `current_before(t, seq)` still holds (arm throws otherwise);
//  - a Timer is a kernel-owned event for a component that re-arms one thing
//    or may call it off: a record {seq, fn, ctx} in the Simulator's timer
//    table, armed by pushing an entry whose handle names it. Dispatch
//    compares the entry's seq with the record and calls fn(ctx): no pool
//    slot, no closure to build or destroy, no free list. Destroying an armed
//    Timer is the one way to call an event off: its entry stays queued as a
//    tombstone. net::Link's delivery and transmit wake-up, the fabric's flow
//    starts, DCTCP's retransmission and pacing timers, the sampler's tick
//    and the run guard's tick are timers; one-off closures that nothing
//    calls off (fault delays and flaps, DCQCN) stay on schedule_at;
//  - two queue backends are selectable at construction (`sched_queue=` at
//    the CLI): the default calendar, a ring of near-future time buckets in
//    front of a 4-ary heap (calendar_queue.hpp), and the heap alone, kept
//    as the oracle. Both order entries identically and discard a tombstone
//    exactly when it would have been popped, so runs are bit-identical
//    across backends (pmsbregress digests verify this).
//
// The kernel is deliberately single-threaded: datacenter-scale packet
// simulations are dominated by event dispatch, and determinism is worth
// more than parallelism for reproducing paper figures.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_callback.hpp"
#include "sim/event_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace pmsb::sim {

/// Kernel observation interface for profilers. The simulator calls
/// begin_dispatch()/end_dispatch() around every event callback, on_schedule()
/// per queued event and on_cancel() per tombstone (an armed Timer destroyed)
/// — but ONLY while a hook is attached, so the un-instrumented cost is one
/// null check per call site (as with the packet path's empty observer tap
/// lists). Declared here (not in telemetry/) so the kernel stays free of
/// upward dependencies; the concrete implementation lives in
/// telemetry::Profiler.
class DispatchHook {
 public:
  virtual ~DispatchHook() = default;
  /// About to run an event at simulation time `now`; `delta` is the
  /// sim-time advance since the previous event (0 for same-timestamp ties).
  virtual void begin_dispatch(TimeNs now, TimeNs delta) = 0;
  /// The event callback returned (called even if the callback threw, so
  /// begin/end stay balanced across exceptions).
  virtual void end_dispatch() = 0;
  virtual void on_schedule() = 0;
  virtual void on_cancel() = 0;
};

class Simulator {
 public:
  using Callback = EventCallback;

  explicit Simulator(QueueBackend backend = QueueBackend::kCalendar)
      : queue_(backend == QueueBackend::kCalendar), backend_(backend) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Valid inside and outside event callbacks.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()). It
  /// will run: an event that may be called off belongs on a Timer. Accepts
  /// any callable `void()`; captures up to EventCallback::kInlineBytes stay
  /// inline.
  template <typename F>
  void schedule_at(TimeNs t, F&& fn) {
    if (t < now_) {
      throw std::invalid_argument(
          "Simulator::schedule_at: time is in the past");
    }
    const std::uint64_t seq = next_seq_++;
    push_entry(t, seq, pool_.acquire(std::forward<F>(fn)));
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  void schedule_in(TimeNs delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Takes the next insertion sequence number and queues nothing. A Timer
  /// later armed with it runs where a schedule_at() issued now would have
  /// run among same-timestamp events.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// True while (t, seq) is still ahead of the dispatch position. Inside a
  /// callback the position is the running event's (time, seq). Outside a
  /// dispatch it is:
  ///  - (0, 0) at set-up;
  ///  - (now(), +inf) once run()/step() has moved now() to its horizon or
  ///    drained the queue, since everything up to that instant has run.
  ///    The +inf covers the numbers handed out so far: one reserved later is
  ///    still ahead, as a schedule_at(now()) issued then would be;
  ///  - the last dispatched event after a stop().
  [[nodiscard]] bool current_before(TimeNs t, std::uint64_t seq) const {
    return t > now_ || (t == now_ && seq > dispatch_seq_);
  }

  /// Runs until the event queue is empty or `until` is reached. Events with
  /// timestamp strictly greater than `until` are left unfired. On return,
  /// when `until` is finite, `now()` equals `until` whether the queue
  /// drained first or events remain past the horizon — back-to-back
  /// `run(t1); run(t2)` always observes `now() == t1` between the calls.
  /// (A `stop()` exit leaves `now()` at the last executed event.)
  void run(TimeNs until = kTimeNever);

  /// Executes at most one pending event. Returns false if none remain or
  /// the next event is past `until` (in which case time advances to `until`).
  bool step(TimeNs until = kTimeNever);

  /// Requests that `run()` return after the current event finishes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_events_; }
  /// Armed Timers destroyed before they ran: the tombstones ever made.
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_events_; }
  /// High-water mark of the event queue (including not-yet-purged
  /// tombstones) — the kernel's memory pressure signal.
  [[nodiscard]] std::size_t max_heap_depth() const { return max_heap_depth_; }
  /// Current queue depth, live events plus pending tombstones.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Which queue backend this simulator was constructed with.
  [[nodiscard]] QueueBackend queue_backend() const { return backend_; }
  /// Times the tombstone purge ran (tombstones exceeded half the queue).
  /// Identical across backends for the same schedule/arm/destroy trace.
  [[nodiscard]] std::uint64_t queue_compactions() const {
    return queue_compactions_;
  }

  /// Attaches a dispatch hook (nullptr to detach). The hook must outlive
  /// its attachment; telemetry::Profiler detaches itself on destruction.
  void set_dispatch_hook(DispatchHook* hook) { hook_ = hook; }
  [[nodiscard]] DispatchHook* dispatch_hook() const { return hook_; }

  /// Allocates the next packet id for this run. Packet ids are kernel state
  /// (not process-global) so that every run numbers its packets from 1
  /// regardless of what ran earlier in the process — a prerequisite for
  /// bit-identical repeat runs and for running simulators on multiple
  /// threads.
  [[nodiscard]] std::uint64_t allocate_packet_id() { return ++last_packet_id_; }
  /// Packet ids handed out so far (equals the id of the newest packet).
  [[nodiscard]] std::uint64_t packet_ids_allocated() const { return last_packet_id_; }

 private:
  friend class Timer;

  /// Don't bother purging tombstones out of a tiny queue.
  static constexpr std::size_t kCompactMinDepth = 64;

  /// One kernel timer: the seq of its queued entry (0 while idle, or while
  /// the table slot is free) and what dispatch calls.
  struct TimerRecord {
    std::uint64_t seq = 0;
    void (*fn)(void*) = nullptr;
    void* ctx = nullptr;
  };

  /// Queues a live entry for `handle` and does the bookkeeping every
  /// schedule shares.
  void push_entry(TimeNs t, std::uint64_t seq, std::uint32_t handle) {
    queue_.push(QueueEntry{t, pack_key(seq, handle)});
    ++live_events_;
    max_heap_depth_ = std::max(max_heap_depth_, queue_depth());
    if (hook_ != nullptr) hook_->on_schedule();
  }

  /// True for a closure's entry, which always runs, and for a timer's while
  /// the timer still holds its seq; false for a tombstone.
  [[nodiscard]] bool is_live(const QueueEntry& e) const {
    const std::uint32_t handle = e.handle();
    return (handle & kTimerBit) == 0 || timers_[handle & ~kTimerBit].seq == e.seq();
  }

  /// Accounts for a live entry turned into a tombstone: a Timer destroyed
  /// while armed.
  void entry_cancelled() {
    --live_events_;
    ++cancelled_events_;
    ++stale_entries_;
    if (hook_ != nullptr) hook_->on_cancel();
    maybe_compact();
  }

  /// Takes a timer table slot for (fn, ctx); Timer's constructor.
  std::uint32_t add_timer(void (*fn)(void*), void* ctx);
  /// Frees a timer table slot, turning its armed entry into a tombstone;
  /// Timer's destructor.
  void drop_timer(std::uint32_t index);

  /// Moves the dispatch position to (t, +inf): everything up to `t` has run.
  void settle_at(TimeNs t) {
    now_ = t;
    dispatch_seq_ = next_seq_ - 1;
  }

  /// Purges tombstones when they exceed half the queue. Cold path; the
  /// trigger depends only on the schedule/arm/destroy trace, so both backends
  /// compact at identical points and depth metrics stay comparable.
  void maybe_compact();

  EventPool pool_;
  std::vector<TimerRecord> timers_;  ///< indexed by timer; see Timer
  std::vector<std::uint32_t> free_timers_;  ///< free timers_ slots, LIFO
  CalendarQueue queue_;  ///< with its ring off on the heap backend
  const QueueBackend backend_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is the timers' "idle" sentinel
  /// Sequence half of the dispatch position (its time half is now_); see
  /// current_before().
  std::uint64_t dispatch_seq_ = 0;
  std::uint64_t last_packet_id_ = 0;
  std::size_t live_events_ = 0;
  std::size_t stale_entries_ = 0;  ///< tombstones still in the queue
  std::size_t max_heap_depth_ = 0;
  std::uint64_t executed_events_ = 0;
  std::uint64_t cancelled_events_ = 0;
  std::uint64_t queue_compactions_ = 0;
  DispatchHook* hook_ = nullptr;
  bool stop_requested_ = false;
};

/// A kernel-owned event that a component arms again and again, each time at
/// a position reserved with Simulator::reserve_seq(), or may call off. It
/// holds a slot in the Simulator's timer table for its lifetime; `fn(ctx)`
/// runs at each dispatch, with the timer already idle, so the callback may
/// arm it again. The Simulator must outlive it.
class Timer {
 public:
  Timer(Simulator& sim, void (*fn)(void*), void* ctx)
      : sim_(sim), index_(sim.add_timer(fn, ctx)) {}
  /// Calls the event off: an armed timer's entry becomes a tombstone, skipped
  /// when popped and counted in cancelled_events().
  ~Timer() { sim_.drop_timer(index_); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Queues the timer at (t, seq), seq from reserve_seq(), so it runs where
  /// a schedule_at(t) issued at reservation time would have. Throws
  /// std::logic_error if the timer is armed, or unless
  /// sim.current_before(t, seq): the position must not have been passed.
  void arm(TimeNs t, std::uint64_t seq) {
    if (armed()) throw std::logic_error("sim::Timer::arm: timer already armed");
    if (!sim_.current_before(t, seq)) {
      throw std::logic_error("sim::Timer::arm: reserved position already passed");
    }
    sim_.push_entry(t, seq, kTimerBit | index_);
    sim_.timers_[index_].seq = seq;
  }

  /// True from arm() until the timer's dispatch begins.
  [[nodiscard]] bool armed() const { return sim_.timers_[index_].seq != 0; }

 private:
  Simulator& sim_;
  std::uint32_t index_;
};

}  // namespace pmsb::sim
