// Unit tests for the discrete-event kernel: ordering, ties, cancellation,
// re-entrancy, run-until semantics, reserved sequence numbers, in-place
// dispatch, and the queue-backend conformance suite (heap and calendar must
// be observably indistinguishable).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

using namespace pmsb::sim;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesDuringCallback) {
  Simulator sim;
  TimeNs seen = -1;
  sim.schedule_at(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimeNs seen = -1;
  sim.schedule_at(10, [&] { sim.schedule_in(5, [&] { seen = sim.now(); }); });
  sim.run();
  EXPECT_EQ(seen, 15);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelInvalidIdIsNoop) {
  Simulator sim;
  sim.cancel(kInvalidEventId);
  sim.cancel(9999);
  bool fired = false;
  sim.schedule_at(1, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, DoubleCancelCountsOnce) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(100, [&] { ++count; });
  sim.run(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run(200);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilClampsTimeWhenQueueOutlivesDeadline) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run(40);
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, StopRequestHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(20, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ReentrantSchedulingFromCallback) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, ExecutedEventCounterTracksWork) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(2); });
  });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event was scheduled later, so it runs after the tie.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// Regression: cancelling an id that already fired used to decrement the live
// count (underflowing it against later events) and leak a tombstone in the
// cancelled set. It must be a true no-op.
TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_TRUE(sim.step());  // fires `id`
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  bool fired = false;
  sim.schedule_at(30, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, DoubleCancelLeavesCountersConsistent) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
}

// The retransmission-timer pattern: cancel a pending timer, schedule a new
// one, repeatedly. Counts must stay exact and only the last timer fires.
TEST(Simulator, CancelThenRescheduleKeepsCountsExact) {
  Simulator sim;
  int fired = 0;
  EventId timer = sim.schedule_at(100, [&] { ++fired; });
  for (int i = 1; i <= 50; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_at(100 + i, [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 50u);
  EXPECT_EQ(sim.now(), 150);
}

// Cancel from inside a callback at the same timestamp: the victim is still
// pending (tie-break says it runs later), so the cancel must take effect.
TEST(Simulator, CancelFromCallbackAtSameTime) {
  Simulator sim;
  bool victim_fired = false;
  EventId victim = kInvalidEventId;
  sim.schedule_at(10, [&] { sim.cancel(victim); });
  victim = sim.schedule_at(10, [&] { victim_fired = true; });
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
}

// Packet ids are allocated per-simulator, not process-globally: two fresh
// simulators hand out the same sequence, which is what makes back-to-back
// runs bit-identical.
TEST(Simulator, PacketIdAllocatorIsPerInstance) {
  Simulator a;
  Simulator b;
  EXPECT_EQ(a.allocate_packet_id(), 1u);
  EXPECT_EQ(a.allocate_packet_id(), 2u);
  EXPECT_EQ(a.allocate_packet_id(), 3u);
  EXPECT_EQ(b.allocate_packet_id(), 1u);
  EXPECT_EQ(a.packet_ids_allocated(), 3u);
  EXPECT_EQ(b.packet_ids_allocated(), 1u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  TimeNs last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at((i * 7919) % 1000, [&, t = (i * 7919) % 1000] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

// ===================== queue-backend conformance suite =====================
// Every observable kernel behavior must be identical whichever queue backend
// a Simulator was constructed with — that is what lets `sched_queue=` be a
// pure performance knob, verified at scale by the pmsbregress digests.

class BackendConformance : public ::testing::TestWithParam<QueueBackend> {
 protected:
  [[nodiscard]] Simulator make() const { return Simulator(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Values(QueueBackend::kHeap, QueueBackend::kCalendar),
    [](const ::testing::TestParamInfo<QueueBackend>& info) {
      return std::string(queue_backend_name(info.param));
    });

TEST_P(BackendConformance, OrderAndTieBreakMatchScheduleOrder) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(30); });
  sim.schedule_at(10, [&] { order.push_back(10); });
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(20, [&order, i] { order.push_back(200 + i); });
  }
  sim.schedule_at(20, [&] { order.push_back(205); });
  sim.run();
  EXPECT_EQ(order,
            (std::vector<int>{10, 200, 201, 202, 203, 204, 205, 30}));
  EXPECT_EQ(sim.now(), 30);
}

// Satellite regression: cancelled entries used to sit in the queue for the
// run's lifetime, inflating max_heap_depth() (the documented memory-pressure
// signal) and pinning their captured closures. The retransmission pattern —
// cancel, reschedule, thousands of times with one live timer — must now keep
// the queue depth bounded by the tombstone compactor.
TEST_P(BackendConformance, CancelChurnKeepsQueueDepthBounded) {
  Simulator sim(GetParam());
  int fired = 0;
  EventId timer = sim.schedule_at(1'000'000, [&] { ++fired; });
  for (int i = 1; i <= 5000; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_at(1'000'000 + i, [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_LT(sim.max_heap_depth(), 256u)
      << "tombstones must be compacted away, not retained for the run";
  EXPECT_GT(sim.queue_compactions(), 10u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_events(), 5000u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

// A handle must stay dead across slot reuse: cancelling an already-cancelled
// id whose pool slot now hosts a different event is a no-op, not a cancel of
// the new occupant.
TEST_P(BackendConformance, StaleHandleCannotCancelSlotReuser) {
  Simulator sim(GetParam());
  bool b_fired = false;
  const EventId a = sim.schedule_at(10, [] {});
  sim.cancel(a);
  const EventId b = sim.schedule_at(20, [&] { b_fired = true; });
  sim.cancel(a);  // stale: generation no longer matches
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_NE(a, b);
}

// Satellite regression: run(until) used to clamp now() to the horizon only
// when an event remained past it; a drained queue left now() at the last
// event. Both exits must land on the horizon.
TEST_P(BackendConformance, RunUntilAdvancesToHorizonWhenQueueDrainsFirst) {
  Simulator sim(GetParam());
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.run(100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 100) << "drain exit must also land on the horizon";
  sim.run(250);  // empty queue: still advances
  EXPECT_EQ(sim.now(), 250);
}

TEST_P(BackendConformance, RunUntilNeverLeavesTimeAtLastEvent) {
  Simulator sim(GetParam());
  sim.schedule_at(10, [] {});
  sim.run();  // until = kTimeNever: nothing to clamp to
  EXPECT_EQ(sim.now(), 10);
}

TEST_P(BackendConformance, StopExitDoesNotClampToHorizon) {
  Simulator sim(GetParam());
  sim.schedule_at(10, [&] { sim.stop(); });
  sim.run(100);
  EXPECT_EQ(sim.now(), 10) << "a stop() exit stays at the stopping event";
  sim.run(100);  // resuming without the stop request clamps as usual
  EXPECT_EQ(sim.now(), 100);
}

namespace {

/// Counts DispatchHook callbacks; begin/end must balance even when an event
/// callback throws through the dispatch loop (every faults::Watchdog trip).
struct CountingHook final : DispatchHook {
  int begins = 0;
  int ends = 0;
  int schedules = 0;
  int cancels = 0;
  void begin_dispatch(TimeNs, TimeNs) override { ++begins; }
  void end_dispatch() override { ++ends; }
  void on_schedule() override { ++schedules; }
  void on_cancel() override { ++cancels; }
};

}  // namespace

// Satellite regression: Simulator::step used to skip hook_->end_dispatch()
// when the callback threw, leaving an attached profiler with an unbalanced
// begin_dispatch and misattributed scopes.
TEST_P(BackendConformance, DispatchHookBalancesAcrossThrowingCallback) {
  Simulator sim(GetParam());
  CountingHook hook;
  sim.set_dispatch_hook(&hook);
  sim.schedule_at(10, [] { throw std::runtime_error("boom"); });
  sim.schedule_at(20, [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(hook.begins, 1);
  EXPECT_EQ(hook.ends, 1) << "end_dispatch must run on the unwind path";
  sim.run();  // the kernel stays usable after the unwind
  EXPECT_EQ(hook.begins, 2);
  EXPECT_EQ(hook.ends, 2);
  EXPECT_EQ(hook.schedules, 2);
  EXPECT_EQ(sim.executed_events(), 2u);
}

// Captures beyond EventCallback's inline buffer take the heap-boxed path;
// they must still run and destroy cleanly (ASan leg would catch a leak).
TEST_P(BackendConformance, OversizedCapturesTakeTheBoxedPath) {
  Simulator sim(GetParam());
  std::array<char, 256> blob{};
  blob[0] = 42;
  blob[255] = 7;
  int sum = 0;
  sim.schedule_at(5, [blob, &sum] { sum = blob[0] + blob[255]; });
  const EventId doomed = sim.schedule_at(6, [blob, &sum] { sum += 1000; });
  sim.cancel(doomed);  // boxed captures must also free on cancel
  sim.run();
  EXPECT_EQ(sum, 49);
}

// ===================== reserved sequence numbers =====================

namespace {

/// A toy transmit loop over `kDevices` devices in a ring, driven one of two
/// ways. Eager: every transmit schedules its tx-done wake-up, which may find
/// nothing to send. Reserved: the wake-up's seq is reserved at transmit and
/// the wake-up is queued only once a packet waits for it — net::Link's loop.
/// Everything that does work is recorded; no-op wake-ups record nothing, so
/// the two traces must be identical.
class ToyRing {
 public:
  struct Record {
    TimeNs now;
    char kind;  ///< 'a' arrival, 't' transmit, 's' sink
    int device;
    int packet;
    bool operator==(const Record&) const = default;
  };

  ToyRing(QueueBackend backend, bool reserved) : sim_(backend), reserved_(reserved) {}

  std::vector<Record> run(std::uint64_t seed) {
    std::uint64_t rng = seed;
    const auto next = [&rng] {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(rng >> 33);
    };
    // Arrivals on a 100 ns grid, so they tie with tx-done instants (also
    // multiples of 100 ns) in both orders: scheduled before the transmit
    // that reserved the wake-up, and from inside dispatch after it.
    for (int i = 0; i < 400; ++i) {
      const TimeNs t = 100 * static_cast<TimeNs>(next() % 60);
      const int device = static_cast<int>(next() % kDevices);
      const int burst = 1 + static_cast<int>(next() % 3);
      sim_.schedule_at(t, [this, device, burst, i] {
        for (int b = 0; b < burst; ++b) arrive(device, 1000 * i + b);
      });
    }
    // Two packets enqueued at set-up, outside any dispatch.
    arrive(0, -1);
    arrive(1, -2);
    sim_.run();
    return trace_;
  }

  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] int noop_wakeups() const { return noop_wakeups_; }

 private:
  static constexpr int kDevices = 4;
  struct Device {
    std::deque<int> queue;
    bool transmitting = false;  // eager loop
    bool wake_queued = false;   // reserved loop
    TimeNs busy_until = 0;
    std::uint64_t wake_seq = 0;
  };

  void arrive(int d, int packet) {
    trace_.push_back({sim_.now(), 'a', d, packet});
    devices_[d].queue.push_back(packet);
    kick(d);
  }

  void kick(int d) {
    Device& dev = devices_[d];
    if (!reserved_) {
      if (!dev.transmitting) transmit(d);
      return;
    }
    if (dev.wake_queued) return;
    if (sim_.current_before(dev.busy_until, dev.wake_seq)) {
      queue_wake(d);
      return;
    }
    transmit(d);
  }

  void transmit(int d) {
    Device& dev = devices_[d];
    const int packet = dev.queue.front();
    dev.queue.pop_front();
    trace_.push_back({sim_.now(), 't', d, packet});
    const TimeNs tx_done = sim_.now() + 100 * (1 + std::abs(packet) % 3);
    dev.busy_until = tx_done;
    // Hop to the next device after a delay of 0, 100 or 200 ns; a packet
    // leaves the ring on reaching device |packet| mod kDevices.
    const int hop = (d + 1) % kDevices;
    const TimeNs arrival = tx_done + 100 * (std::abs(packet) % 3);
    sim_.schedule_at(arrival, [this, hop, packet] {
      if (std::abs(packet) % kDevices == hop) {
        trace_.push_back({sim_.now(), 's', hop, packet});
      } else {
        arrive(hop, packet);
      }
    });
    if (!reserved_) {
      dev.transmitting = true;
      sim_.schedule_at(tx_done, [this, d] {
        Device& dv = devices_[d];
        dv.transmitting = false;
        if (dv.queue.empty()) {
          ++noop_wakeups_;
          return;
        }
        transmit(d);
      });
      return;
    }
    dev.wake_seq = sim_.reserve_seq();
    if (!dev.queue.empty()) queue_wake(d);
  }

  void queue_wake(int d) {
    Device& dev = devices_[d];
    dev.wake_queued = true;
    sim_.schedule_reserved(dev.busy_until, dev.wake_seq, [this, d] {
      devices_[d].wake_queued = false;
      transmit(d);
    });
  }

  Simulator sim_;
  bool reserved_;
  std::array<Device, kDevices> devices_{};
  std::vector<Record> trace_;
  int noop_wakeups_ = 0;
};

}  // namespace

// The reserved-seq contract at unit scale: a wake-up queued late at its
// reserved seq runs exactly where an eagerly scheduled one would have, so
// skipping the wake-ups that find nothing to send changes no dispatch.
TEST_P(BackendConformance, ReservedWakeupsDispatchLikeEagerOnes) {
  for (const std::uint64_t seed : {1ull, 7ull, 0x9e3779b97f4a7c15ull}) {
    ToyRing eager(GetParam(), false);
    ToyRing reserved(GetParam(), true);
    const auto want = eager.run(seed);
    const auto got = reserved.run(seed);
    ASSERT_GT(want.size(), 1000u);
    ASSERT_GT(eager.noop_wakeups(), 0) << "the trace must exercise idle wake-ups";
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(reserved.sim().executed_events() + eager.noop_wakeups(),
              eager.sim().executed_events())
        << "exactly the no-op wake-ups are gone";
    EXPECT_TRUE(reserved.sim().empty());
  }
}

TEST_P(BackendConformance, CurrentBeforeAtSetUpIsTheOrigin) {
  Simulator sim(GetParam());
  EXPECT_FALSE(sim.current_before(0, 0));
  const std::uint64_t s = sim.reserve_seq();
  EXPECT_TRUE(sim.current_before(0, s));
  EXPECT_EQ(sim.pending_events(), 0u) << "reserving queues nothing";
  bool ran = false;
  sim.schedule_reserved(0, s, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST_P(BackendConformance, CurrentBeforeInsideDispatchIsTheRunningEvent) {
  Simulator sim(GetParam());
  const std::uint64_t before = sim.reserve_seq();
  std::uint64_t after = 0;
  sim.schedule_at(10, [&] {
    EXPECT_FALSE(sim.current_before(10, before));
    EXPECT_TRUE(sim.current_before(10, after));
    EXPECT_TRUE(sim.current_before(11, before));
    EXPECT_FALSE(sim.current_before(9, after));
  });
  after = sim.reserve_seq();
  sim.run();
}

TEST_P(BackendConformance, CurrentBeforeAfterRunUntilWithEventsPastHorizon) {
  Simulator sim(GetParam());
  const std::uint64_t early = sim.reserve_seq();
  sim.schedule_at(100, [] {});
  sim.run(60);
  ASSERT_EQ(sim.now(), 60);
  ASSERT_EQ(sim.pending_events(), 1u);
  // Everything up to the horizon has run, the reserved slot at it included.
  EXPECT_FALSE(sim.current_before(50, early));
  EXPECT_FALSE(sim.current_before(60, early));
  EXPECT_TRUE(sim.current_before(61, early));
  // A seq reserved now is still ahead, as a schedule_at(now()) would be.
  const std::uint64_t fresh = sim.reserve_seq();
  EXPECT_TRUE(sim.current_before(60, fresh));
  std::vector<int> order;
  sim.schedule_reserved(60, fresh, [&] { order.push_back(60); });
  sim.schedule_reserved(61, early, [&] { order.push_back(61); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{60, 61}));
}

TEST_P(BackendConformance, CurrentBeforeAfterQueueDrainsBeforeHorizon) {
  Simulator sim(GetParam());
  const std::uint64_t s = sim.reserve_seq();
  sim.schedule_at(10, [] {});
  sim.run(100);
  ASSERT_EQ(sim.now(), 100);
  EXPECT_FALSE(sim.current_before(100, s));
  EXPECT_TRUE(sim.current_before(100, sim.reserve_seq()));
  // Without a horizon the drain settles at the last event's instant.
  Simulator open(GetParam());
  const std::uint64_t t = open.reserve_seq();
  open.schedule_at(10, [] {});
  open.run();
  ASSERT_EQ(open.now(), 10);
  EXPECT_FALSE(open.current_before(10, t));
  EXPECT_TRUE(open.current_before(10, open.reserve_seq()));
}

TEST_P(BackendConformance, CurrentBeforeAfterStopIsTheLastDispatchedEvent) {
  Simulator sim(GetParam());
  std::vector<char> order;
  sim.schedule_at(10, [&] {
    order.push_back('a');
    sim.stop();
  });
  const std::uint64_t reserved = sim.reserve_seq();
  sim.schedule_at(10, [&] { order.push_back('b'); });
  sim.run(100);
  ASSERT_EQ(sim.now(), 10);
  // The stop left the position at 'a', so the slot reserved between 'a'
  // and 'b' is still ahead and, queued now, runs before 'b'.
  EXPECT_TRUE(sim.current_before(10, reserved));
  sim.schedule_reserved(10, reserved, [&] { order.push_back('r'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b'}));
}

// schedule_reserved checks its precondition in every build. A passed
// position queued anyway would run out of (time, seq) order on either
// backend, and with a past time it would move now() backwards.
TEST_P(BackendConformance, ScheduleReservedRejectsAPassedPosition) {
  Simulator sim(GetParam());
  const std::uint64_t before = sim.reserve_seq();
  std::uint64_t after = 0;
  bool fired = false;
  sim.schedule_at(10, [&] {
    // Seqs are handed out one by one, so the running event holds before + 1.
    const std::uint64_t running = before + 1;
    EXPECT_THROW(sim.schedule_reserved(5, after, [] {}), std::logic_error)
        << "a time in the past";
    EXPECT_THROW(sim.schedule_reserved(10, before, [] {}), std::logic_error)
        << "now() with a seq below the running event's";
    EXPECT_THROW(sim.schedule_reserved(10, running, [] {}), std::logic_error)
        << "now() with the running event's own seq";
    EXPECT_EQ(sim.pending_events(), 0u) << "a rejected schedule queues nothing";
    sim.schedule_reserved(10, after, [&] { fired = true; });
  });
  after = sim.reserve_seq();
  ASSERT_EQ(after, before + 2);
  sim.run(100);
  EXPECT_TRUE(fired);
  // Settled at the horizon, every seq handed out so far has been passed.
  EXPECT_THROW(sim.schedule_reserved(100, after, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_reserved(99, sim.reserve_seq(), [] {}), std::logic_error);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 2u);
}

// ===================== in-place dispatch =====================

TEST_P(BackendConformance, CancellingTheRunningEventIsANoop) {
  Simulator sim(GetParam());
  EventId self = kInvalidEventId;
  bool other_fired = false;
  self = sim.schedule_at(10, [&] { sim.cancel(self); });
  sim.schedule_at(20, [&] { other_fired = true; });
  sim.run();
  EXPECT_TRUE(other_fired);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST_P(BackendConformance, ReentrantScheduleNeverGetsTheRunningSlot) {
  Simulator sim(GetParam());
  const auto slot_of = [](EventId id) { return static_cast<std::uint32_t>(id); };
  // Free a few slots first so the free list is not empty at dispatch.
  std::vector<EventId> spare;
  for (int i = 0; i < 4; ++i) spare.push_back(sim.schedule_at(5, [] {}));
  for (const EventId id : spare) sim.cancel(id);
  EventId running = kInvalidEventId;
  int seen = 0;
  int fired = 0;
  const int token = 12345;  // lives in the running slot's inline buffer
  running = sim.schedule_at(10, [&sim, &running, &seen, &fired, slot_of, token] {
    // Enough schedules to carve new pool chunks under the running closure.
    for (int i = 0; i < 2000; ++i) {
      const EventId id = sim.schedule_in(1, [&fired] { ++fired; });
      EXPECT_NE(slot_of(id), slot_of(running));
    }
    seen = token;
  });
  sim.run();
  EXPECT_EQ(seen, token);
  EXPECT_EQ(fired, 2000);
}

TEST_P(BackendConformance, ThrowingCallbackStillFreesItsSlot) {
  Simulator sim(GetParam());
  const auto slot_of = [](EventId id) { return static_cast<std::uint32_t>(id); };
  const EventId thrower = sim.schedule_at(10, [] { throw std::runtime_error("x"); });
  sim.schedule_at(20, [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 1u);
  // LIFO free list: the next schedule reuses the thrower's slot, under a
  // new generation.
  const EventId reuse = sim.schedule_at(30, [] {});
  EXPECT_EQ(slot_of(reuse), slot_of(thrower));
  EXPECT_NE(reuse, thrower);
  sim.cancel(thrower);  // stale handle: no-op
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 3u);
}

namespace {

/// One deterministic schedule/cancel/re-entrancy workload; every observable
/// the kernel exposes is captured so two backends can be compared field by
/// field. Uses a hand-rolled LCG so the trace is identical across runs,
/// platforms, and backends.
struct KernelTrace {
  std::vector<std::pair<TimeNs, int>> dispatched;  ///< (now, tag) sequence
  std::vector<EventId> ids;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t compactions = 0;
  std::size_t max_depth = 0;
  TimeNs end_time = 0;

  bool operator==(const KernelTrace&) const = default;
};

KernelTrace run_workload(QueueBackend backend) {
  Simulator sim(backend);
  KernelTrace tr;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  int tag = 0;
  std::vector<EventId> open;
  const auto leaf = [&] {
    return [&tr, &sim, leaf_tag = tag++] {
      tr.dispatched.emplace_back(sim.now(), leaf_tag);
    };
  };
  // Schedule-phase churn: random times (with ties; one in eight far beyond
  // the calendar's ring window), random cancels.
  for (int i = 0; i < 2000; ++i) {
    const TimeNs t = next() % 8 == 0 ? 5000 + next() % 50'000'000 : next() % 5000;
    const int my_tag = tag++;
    const EventId id = sim.schedule_at(t, [&, my_tag] {
      tr.dispatched.emplace_back(sim.now(), my_tag);
      if (next() % 4 == 0) {  // re-entrant schedule from dispatch
        open.push_back(sim.schedule_in(1 + next() % 64, leaf()));
      }
      if (next() % 16 == 0) {  // ... and one far beyond the window
        open.push_back(sim.schedule_in(20'000 + next() % 2'000'000, leaf()));
      }
      if (next() % 16 == 0) {
        // A seq reserved now and queued late at now(): it must run ahead of
        // the same-time event scheduled in between.
        const std::uint64_t reserved = sim.reserve_seq();
        open.push_back(sim.schedule_in(0, leaf()));
        open.push_back(sim.schedule_reserved(sim.now(), reserved, leaf()));
      }
      if (next() % 32 == 0) {
        // A burst inside one 64 ns span: more events than a bucket holds.
        const TimeNs base = sim.now() + 200 + next() % 1000;
        for (int k = 0; k < 24; ++k) {
          open.push_back(sim.schedule_at(base + next() % 64, leaf()));
        }
      }
      if (next() % 8 == 0 && !open.empty()) {  // cancel from dispatch —
        sim.cancel(open[next() % open.size()]);  // may be stale: no-op path
      }
    });
    tr.ids.push_back(id);
    open.push_back(id);
    if (next() % 3 == 0) {
      sim.cancel(open[next() % open.size()]);
    }
  }
  sim.run();
  tr.executed = sim.executed_events();
  tr.cancelled = sim.cancelled_events();
  tr.compactions = sim.queue_compactions();
  tr.max_depth = sim.max_heap_depth();
  tr.end_time = sim.now();
  return tr;
}

}  // namespace

// The conformance suite's capstone: a randomized workload of schedules,
// cancels (live, stale, from inside callbacks), ties, re-entrant and
// far-future scheduling, late-queued reserved seqs and same-bucket bursts
// must produce the SAME dispatch sequence, the SAME EventIds, and the SAME
// kernel counters — including max_heap_depth and compaction count — on both
// backends. This is the unit-scale version of the pmsbregress
// digest-equivalence guarantee.
TEST(QueueBackendEquivalence, RandomizedWorkloadTracesAreBitIdentical) {
  const KernelTrace heap = run_workload(QueueBackend::kHeap);
  const KernelTrace calendar = run_workload(QueueBackend::kCalendar);
  ASSERT_GT(heap.dispatched.size(), 1000u);
  EXPECT_TRUE(heap == calendar);
  // On mismatch the == line is useless for debugging; spell out the fields.
  EXPECT_EQ(heap.dispatched, calendar.dispatched);
  EXPECT_EQ(heap.ids, calendar.ids);
  EXPECT_EQ(heap.executed, calendar.executed);
  EXPECT_EQ(heap.cancelled, calendar.cancelled);
  EXPECT_EQ(heap.compactions, calendar.compactions);
  EXPECT_EQ(heap.max_depth, calendar.max_depth);
  EXPECT_EQ(heap.end_time, calendar.end_time);
}

TEST(QueueBackendEquivalence, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_queue_backend("heap"), QueueBackend::kHeap);
  EXPECT_EQ(parse_queue_backend("calendar"), QueueBackend::kCalendar);
  EXPECT_STREQ(queue_backend_name(QueueBackend::kHeap), "heap");
  EXPECT_STREQ(queue_backend_name(QueueBackend::kCalendar), "calendar");
  EXPECT_THROW(parse_queue_backend("wheel"), std::invalid_argument);
}

// Calendar cold paths. Each script runs on both backends and must dispatch
// the same (time, tag) sequence with the same kernel counters; the heap is
// the oracle. The ring holds 128 buckets of 128 ns, 16 entries each, over a
// 16.4 us window, with a two-word bitmap of occupied buckets
// (calendar_queue.hpp); the scripts reach past each of those edges.
namespace {

/// Runs `script(sim, fire)` on `backend`, where fire(tag) is a callback that
/// records (now, tag) when dispatched, then drains the queue.
template <typename Script>
KernelTrace run_cold(QueueBackend backend, Script script) {
  Simulator sim(backend);
  KernelTrace tr;
  const auto fire = [&](int tag) {
    return [&tr, &sim, tag] { tr.dispatched.emplace_back(sim.now(), tag); };
  };
  script(sim, fire);
  sim.run();
  tr.executed = sim.executed_events();
  tr.cancelled = sim.cancelled_events();
  tr.compactions = sim.queue_compactions();
  tr.max_depth = sim.max_heap_depth();
  tr.end_time = sim.now();
  return tr;
}

template <typename Script>
KernelTrace expect_backends_agree(Script script) {
  const KernelTrace heap = run_cold(QueueBackend::kHeap, script);
  const KernelTrace calendar = run_cold(QueueBackend::kCalendar, script);
  EXPECT_EQ(calendar.dispatched, heap.dispatched);
  EXPECT_TRUE(calendar == heap);
  return heap;
}

std::vector<int> tags_of(const KernelTrace& tr) {
  std::vector<int> tags;
  for (const auto& [t, tag] : tr.dispatched) tags.push_back(tag);
  return tags;
}

}  // namespace

// Only the heap holds anything, far beyond the window: the window start
// jumps to the heap's entry, and what that entry schedules near itself
// lands in the ring at the new window and interleaves with the heap.
TEST(CalendarQueueColdPaths, WindowJumpsWhenTheHeapSuppliesTheNextEvent) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(5, fire(0));
    sim.schedule_at(50'000'000, [&sim, fire] {
      fire(1)();
      sim.schedule_in(100, fire(3));         // ring, new window
      sim.schedule_in(20'000'000, fire(5));  // heap again
      sim.schedule_in(40, fire(2));          // ring, ahead of tag 3
    });
    sim.schedule_at(50'000'120, fire(4));  // queued early: heap
  });
  EXPECT_EQ(tags_of(tr), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(tr.end_time, 70'000'000);
}

// run(until) discards a cancelled entry past the horizon, so the window
// start runs ahead of now(). An insert below the start must still come
// first, and popping it must not pull the start back under ring entries
// near the far end of the window.
TEST(CalendarQueueColdPaths, InsertAfterRunUntilSettlesPastTheLastPop) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(10, fire(0));
    sim.cancel(sim.schedule_at(10'000, fire(-1)));
    sim.schedule_at(10'050, fire(3));
    sim.run(500);
    EXPECT_EQ(sim.now(), 500);
    sim.schedule_at(25'000, fire(4));  // near the far end of the window
    sim.schedule_at(600, fire(1));     // below the start, above now()
    sim.schedule_at(10'020, fire(2));  // in the start's bucket
    // The same after a drain: now() settles past the last pop.
    sim.run(30'000);
    EXPECT_EQ(sim.now(), 30'000);
    sim.schedule_at(30'000, fire(5));
    sim.schedule_at(30'001, fire(6));
  });
  EXPECT_EQ(tags_of(tr), (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

// 100 events at one instant, and 30 more spread over one bucket: far more
// than a bucket holds, so the runs overflow to the heap, and FIFO order by
// seq must hold across both parts. A seq reserved in the middle of the
// storm and queued after it lands in its place.
TEST(CalendarQueueColdPaths, TieStormLargerThanABucket) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    std::uint64_t reserved = 0;
    for (int i = 0; i < 100; ++i) {
      if (i == 50) reserved = sim.reserve_seq();
      sim.schedule_at(2000, fire(i));
    }
    sim.schedule_reserved(2000, reserved, fire(1000));
    for (int i = 0; i < 30; ++i) sim.schedule_at(2048 + (i * 37) % 64, fire(200 + i));
  });
  ASSERT_EQ(tr.dispatched.size(), 131u);
  EXPECT_EQ(tr.dispatched[50], (std::pair<TimeNs, int>{2000, 1000}));
  EXPECT_EQ(tr.dispatched[51], (std::pair<TimeNs, int>{2000, 50}));
}

// Bursts of 20 entries into each of three neighbouring buckets, inserted
// out of order: each bucket's 16 slots fill and the rest of the burst falls
// to the heap, where it must interleave with the runs by (time, seq).
TEST(CalendarQueueColdPaths, BurstLargerThanABucket) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    for (int i = 0; i < 60; ++i) sim.schedule_at(4096 + (i * 53) % 384, fire(i));
    sim.schedule_at(4096 + 128, fire(100));  // the middle bucket's first ns
  });
  ASSERT_EQ(tr.dispatched.size(), 61u);
  for (std::size_t i = 1; i < tr.dispatched.size(); ++i) {
    EXPECT_LE(tr.dispatched[i - 1].first, tr.dispatched[i].first);
  }
}

// The window starts in the bitmap's second word (ring index 100), and the
// next occupied bucket wraps into the first word (index 12), while a later
// bucket lies in the second word below the start (index 72): the scan must
// take the start word's upper bits, then the first word, and the start
// word's lower bits last.
TEST(CalendarQueueColdPaths, ScanWrapsFromTheSecondBitmapWordIntoTheFirst) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(100 * 128, [&sim, fire] {  // bucket 100, index 100
      fire(0)();
      sim.schedule_at(200 * 128 + 3, fire(4));  // bucket 200, index 72
      sim.schedule_at(140 * 128 + 5, fire(3));  // bucket 140, index 12
      sim.schedule_at(110 * 128 + 1, fire(2));  // bucket 110, index 110
      sim.schedule_at(100 * 128 + 50, fire(1));  // the start bucket
      sim.schedule_at(228 * 128, fire(5));  // one past the window: heap
    });
  });
  EXPECT_EQ(tags_of(tr), (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Every power of two from 1 ns to 2^40 ns: whatever the ring's geometry,
// one entry falls on the first bucket past the window, whose ring index is
// the window's first bucket's. It must wait for the buckets in between.
TEST(CalendarQueueColdPaths, PowersOfTwoStraddleTheWindowEdge) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    for (int k = 40; k >= 0; --k) sim.schedule_at(TimeNs{1} << k, fire(k));
    sim.schedule_at(0, fire(-1));
  });
  std::vector<int> want;
  for (int k = -1; k <= 40; ++k) want.push_back(k);
  EXPECT_EQ(tags_of(tr), want);
}

// Bucket numbers near kTimeNever: the window arithmetic must not overflow.
TEST(CalendarQueueColdPaths, TimesNearTimeNever) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(kTimeNever, fire(4));
    sim.schedule_at(kTimeNever - 1, fire(3));
    sim.schedule_at(kTimeNever - 300, [&sim, fire] {
      fire(0)();
      sim.schedule_at(kTimeNever, fire(5));  // ring: same bucket as tag 4
      sim.schedule_at(kTimeNever - 150, fire(2));
      sim.schedule_at(kTimeNever - 299, fire(1));
    });
  });
  EXPECT_EQ(tags_of(tr), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(tr.end_time, kTimeNever);
}

// Tombstones in both parts, one bucket half drained, then the purge: the
// compaction point, depth high-water mark and survivors' order must match.
TEST(CalendarQueueColdPaths, CompactionWithTombstonesInBothParts) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    std::vector<EventId> ring, heap;
    for (int i = 0; i < 8; ++i) ring.push_back(sim.schedule_at(1000 + i, fire(i)));
    for (int i = 0; i < 40; ++i) ring.push_back(sim.schedule_at(2000 + 150 * i, fire(100 + i)));
    for (int i = 0; i < 60; ++i) heap.push_back(sim.schedule_at(1'000'000 + 1000 * i, fire(200 + i)));
    sim.run(1003);  // drains half of the first bucket
    EXPECT_EQ(sim.queue_compactions(), 0u);
    for (std::size_t i = 5; i < ring.size(); i += 2) sim.cancel(ring[i]);
    for (std::size_t i = 0; i < heap.size(); i += 2) sim.cancel(heap[i]);
    for (std::size_t i = 1; sim.queue_compactions() == 0; i += 2) sim.cancel(heap[i]);
    EXPECT_EQ(sim.queue_depth(), sim.pending_events()) << "no tombstone survives";
    // Refill the compacted buckets, including the half-drained one.
    sim.schedule_at(1005, fire(50));
    sim.schedule_at(2000, fire(51));
  });
  EXPECT_EQ(tr.compactions, 1u);
  EXPECT_GT(tr.dispatched.size(), 30u);
}
