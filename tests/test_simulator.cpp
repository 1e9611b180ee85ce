// Unit tests for the discrete-event kernel: ordering, ties, events called
// off by destroying their timers, re-entrancy, run-until semantics, reserved
// sequence numbers, in-place dispatch, and the queue-backend conformance
// suite (heap and calendar must be observably indistinguishable).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

using namespace pmsb::sim;

namespace {

/// A Timer that runs a closure, armed at construction where a schedule_at(t)
/// issued then would run: an event its owner calls off by destroying it.
class ClosureTimer {
 public:
  ClosureTimer(Simulator& sim, TimeNs t, std::function<void()> fn)
      : fn_(std::move(fn)), timer_(sim, &ClosureTimer::fire, this) {
    timer_.arm(t, sim.reserve_seq());
  }

 private:
  static void fire(void* self) { static_cast<ClosureTimer*>(self)->fn_(); }

  std::function<void()> fn_;
  Timer timer_;
};

std::unique_ptr<ClosureTimer> arm_at(Simulator& sim, TimeNs t, std::function<void()> fn) {
  return std::make_unique<ClosureTimer>(sim, t, std::move(fn));
}

}  // namespace

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

// Destroying an armed timer calls its event off.
TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto timer = arm_at(sim, 10, [&] { fired = true; });
  timer.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 0u);
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

// Regression: cancelling an event that already fired used to decrement the
// live count (underflowing it against later events) and leak a tombstone.
// Destroying a timer that has run must be a true no-op.
TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  auto timer = arm_at(sim, 10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_TRUE(sim.step());  // fires the timer
  timer.reset();
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  bool fired = false;
  sim.schedule_at(30, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.executed_events(), 3u);
}

// The retransmission-timer pattern: call a pending timer off, arm a new one,
// repeatedly. The new timer takes the old one's table slot while the old
// entry is still queued as a tombstone. Counts must stay exact and only the
// last timer fires.
TEST(Simulator, CancelThenRescheduleKeepsCountsExact) {
  Simulator sim;
  int fired = 0;
  auto timer = arm_at(sim, 100, [&] { ++fired; });
  for (int i = 1; i <= 50; ++i) {
    timer.reset();
    timer = arm_at(sim, 100 + i, [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 50u);
  EXPECT_EQ(sim.now(), 150);
}

// Call off from inside a callback at the same timestamp: the victim is still
// pending (tie-break says it runs later), so destroying it must take effect.
TEST(Simulator, CancelFromCallbackAtSameTime) {
  Simulator sim;
  bool victim_fired = false;
  std::unique_ptr<ClosureTimer> victim;
  sim.schedule_at(10, [&] { victim.reset(); });
  victim = arm_at(sim, 10, [&] { victim_fired = true; });
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
// signal). The retransmission pattern — destroy the armed timer, arm a new
// one, thousands of times with one live timer — must keep the queue depth
// bounded by the tombstone compactor.
TEST_P(BackendConformance, CancelChurnKeepsQueueDepthBounded) {
  Simulator sim(GetParam());
  int fired = 0;
  auto timer = arm_at(sim, 1'000'000, [&] { ++fired; });
  for (int i = 1; i <= 5000; ++i) {
    timer.reset();
    timer = arm_at(sim, 1'000'000 + i, [&] { ++fired; });
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
// they must still run and destroy cleanly, also when the event is still
// queued as its simulator dies (ASan leg would catch a leak).
TEST_P(BackendConformance, OversizedCapturesTakeTheBoxedPath) {
  std::array<char, 256> blob{};
  blob[0] = 42;
  blob[255] = 7;
  int sum = 0;
  const auto token = std::make_shared<int>(0);
  {
    Simulator sim(GetParam());
    sim.schedule_at(5, [blob, &sum] { sum = blob[0] + blob[255]; });
    sim.schedule_at(6, [blob, token, &sum] { sum += 1000; });  // past the horizon
    sim.run(5);
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1) << "a queued boxed closure dies with its simulator";
  EXPECT_EQ(sum, 49);
}

// ===================== reserved sequence numbers =====================

namespace {

/// Timer callbacks for the cases below.
void set_flag(void* flag) { *static_cast<bool*>(flag) = true; }

struct Recorder {
  std::vector<int>* out;
  int value;
  static void fire(void* self) {
    const auto* r = static_cast<const Recorder*>(self);
    r->out->push_back(r->value);
  }
};

/// A toy transmit loop over `kDevices` devices in a ring, driven one of two
/// ways. Eager: every transmit schedules its tx-done wake-up, which may find
/// nothing to send. Reserved: the wake-up's seq is reserved at transmit and
/// the device's Timer is armed only once a packet waits for it — net::Link's
/// loop. Everything that does work is recorded; no-op wake-ups record
/// nothing, so the two traces must be identical.
class ToyRing {
 public:
  struct Record {
    TimeNs now;
    char kind;  ///< 'a' arrival, 't' transmit, 's' sink
    int device;
    int packet;
    bool operator==(const Record&) const = default;
  };

  ToyRing(QueueBackend backend, bool reserved) : sim_(backend), reserved_(reserved) {
    for (int d = 0; d < kDevices; ++d) {
      wake_ctx_[d] = {this, d};
      wakes_.emplace_back(sim_, &ToyRing::on_wake, &wake_ctx_[d]);
    }
  }

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
    TimeNs busy_until = 0;
    std::uint64_t wake_seq = 0;
  };
  struct WakeCtx {
    ToyRing* ring;
    int device;
  };

  static void on_wake(void* ctx) {
    const auto* w = static_cast<const WakeCtx*>(ctx);
    w->ring->transmit(w->device);
  }

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
    if (wakes_[d].armed()) return;
    if (sim_.current_before(dev.busy_until, dev.wake_seq)) {
      wakes_[d].arm(dev.busy_until, dev.wake_seq);
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
    if (!dev.queue.empty()) wakes_[d].arm(dev.busy_until, dev.wake_seq);
  }

  Simulator sim_;
  bool reserved_;
  std::array<Device, kDevices> devices_{};
  std::array<WakeCtx, kDevices> wake_ctx_{};
  std::deque<Timer> wakes_;  ///< the reserved loop's wake-ups
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
  Timer timer(sim, &set_flag, &ran);
  timer.arm(0, s);
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(timer.armed());
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
  Recorder at60{&order, 60};
  Recorder at61{&order, 61};
  Timer t60(sim, &Recorder::fire, &at60);
  Timer t61(sim, &Recorder::fire, &at61);
  t60.arm(60, fresh);
  t61.arm(61, early);
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
  // and 'b' is still ahead and, armed now, runs before 'b'.
  EXPECT_TRUE(sim.current_before(10, reserved));
  Timer timer(sim, [](void* o) { static_cast<std::vector<char>*>(o)->push_back('r'); },
              &order);
  timer.arm(10, reserved);
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b'}));
}

// Timer::arm checks its precondition in every build. A passed position
// queued anyway would run out of (time, seq) order on either backend, and
// with a past time it would move now() backwards. An armed timer cannot be
// armed again: it has one entry.
TEST_P(BackendConformance, ScheduleReservedRejectsAPassedPosition) {
  Simulator sim(GetParam());
  const std::uint64_t before = sim.reserve_seq();
  std::uint64_t after = 0;
  bool fired = false;
  Timer timer(sim, &set_flag, &fired);
  sim.schedule_at(10, [&] {
    // Seqs are handed out one by one, so the running event holds before + 1.
    const std::uint64_t running = before + 1;
    EXPECT_THROW(timer.arm(5, after), std::logic_error) << "a time in the past";
    EXPECT_THROW(timer.arm(10, before), std::logic_error)
        << "now() with a seq below the running event's";
    EXPECT_THROW(timer.arm(10, running), std::logic_error)
        << "now() with the running event's own seq";
    EXPECT_EQ(sim.pending_events(), 0u) << "a rejected arm queues nothing";
    EXPECT_FALSE(timer.armed());
    timer.arm(10, after);
    EXPECT_THROW(timer.arm(10, after), std::logic_error) << "armed twice";
    EXPECT_THROW(timer.arm(20, sim.reserve_seq()), std::logic_error)
        << "armed twice, at a fresh position";
    EXPECT_EQ(sim.pending_events(), 1u);
  });
  after = sim.reserve_seq();
  ASSERT_EQ(after, before + 2);
  sim.run(100);
  EXPECT_TRUE(fired);
  // Settled at the horizon, every seq handed out so far has been passed.
  EXPECT_THROW(timer.arm(100, after), std::logic_error);
  EXPECT_THROW(timer.arm(99, sim.reserve_seq()), std::logic_error);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 2u);
}

// A timer destroyed while armed leaves its entry behind as a tombstone: no
// longer pending, counted as cancelled, still in the queue depth until a
// purge, and skipped by run().
TEST_P(BackendConformance, ArmedTimerDestroyedLeavesATombstoneLikeCancel) {
  // 100 timers, all destroyed while armed, interleaved with 50 live
  // closures, so the tombstones come to outnumber the rest and force a purge.
  constexpr int kTimers = 100;
  constexpr std::size_t kLive = kTimers / 2;
  constexpr std::size_t kQueued = kTimers + kLive;
  Simulator sim(GetParam());
  std::vector<int> order;
  std::vector<std::unique_ptr<Timer>> doomed;
  for (int i = 0; i < kTimers; ++i) {
    if (i % 2 == 0) sim.schedule_at(10 * i, [&order, i] { order.push_back(i); });
    const TimeNs at = i % 2 == 0 ? 10 * i + 5 : 1'000'000 + i;  // ring and heap
    doomed.push_back(std::make_unique<Timer>(sim, [](void*) { FAIL(); }, nullptr));
    doomed.back()->arm(at, sim.reserve_seq());
  }
  ASSERT_EQ(sim.queue_depth(), kQueued);
  std::size_t purged_at = 0;  ///< the destruction that first purged
  for (std::size_t n = 1; n <= doomed.size(); ++n) {
    doomed[n - 1].reset();
    EXPECT_EQ(sim.pending_events(), kQueued - n);
    EXPECT_EQ(sim.cancelled_events(), n);
    if (purged_at == 0 && sim.queue_compactions() > 0) purged_at = n;
  }
  // The purge runs once tombstones pass half the queue: at the 76th of 150
  // entries. The 24 made after it stay queued among the 50 live closures.
  EXPECT_EQ(purged_at, 76u);
  EXPECT_EQ(sim.queue_compactions(), 1u);
  EXPECT_EQ(sim.queue_depth(), kLive + 24);
  EXPECT_EQ(sim.max_heap_depth(), kQueued);
  sim.run();
  std::vector<int> want;
  for (int i = 0; i < kTimers; i += 2) want.push_back(i);
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.executed_events(), kLive);
  EXPECT_EQ(sim.cancelled_events(), doomed.size());
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_TRUE(sim.empty());
}

// Arming counts as a schedule and a dispatch is bracketed like a closure's,
// also when the timer's callback throws; destroying an armed timer counts as
// a cancel, an idle one as nothing.
TEST_P(BackendConformance, TimerHookCountsBalance) {
  Simulator sim(GetParam());
  CountingHook hook;
  sim.set_dispatch_hook(&hook);
  int runs = 0;
  Timer timer(sim, [](void* n) { ++*static_cast<int*>(n); }, &runs);
  Timer thrower(sim, [](void*) { throw std::runtime_error("boom"); }, nullptr);
  timer.arm(10, sim.reserve_seq());
  thrower.arm(20, sim.reserve_seq());
  sim.schedule_at(30, [&] { timer.arm(40, sim.reserve_seq()); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(hook.schedules, 4);
  EXPECT_EQ(hook.begins, 4);
  EXPECT_EQ(hook.ends, 4) << "end_dispatch must run on the unwind path";
  {
    Timer armed(sim, [](void*) {}, nullptr);
    armed.arm(50, sim.reserve_seq());
    Timer idle(sim, [](void*) {}, nullptr);
  }
  EXPECT_EQ(hook.schedules, 5);
  EXPECT_EQ(hook.cancels, 1);
  sim.run();
  EXPECT_EQ(hook.begins, 4);
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_TRUE(sim.empty());
}

// ===================== in-place dispatch =====================

// A timer is idle once its dispatch begins, so destroying it from its own
// callback calls nothing off.
TEST_P(BackendConformance, CancellingTheRunningEventIsANoop) {
  Simulator sim(GetParam());
  struct Owner {
    std::unique_ptr<Timer> timer;
  } owner;
  owner.timer = std::make_unique<Timer>(
      sim, [](void* o) { static_cast<Owner*>(o)->timer.reset(); }, &owner);
  owner.timer->arm(10, sim.reserve_seq());
  bool other_fired = false;
  sim.schedule_at(20, [&] { other_fired = true; });
  sim.run();
  EXPECT_EQ(owner.timer, nullptr);
  EXPECT_TRUE(other_fired);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST_P(BackendConformance, ReentrantScheduleNeverGetsTheRunningSlot) {
  Simulator sim(GetParam());
  // Run a few events first so the free list is not empty at dispatch.
  for (int i = 0; i < 4; ++i) sim.schedule_at(5, [] {});
  int seen = 0;
  int fired = 0;
  const int token = 12345;  // lives in the running slot's inline buffer
  sim.schedule_at(10, [&sim, &seen, &fired, token] {
    // Enough schedules to take every free slot and carve new pool chunks
    // under the running closure. Had one been handed the running slot, the
    // new closure would have overwritten `token` before it is read.
    for (int i = 0; i < 2000; ++i) sim.schedule_in(1, [&fired] { ++fired; });
    seen = token;
  });
  sim.run();
  EXPECT_EQ(seen, token);
  EXPECT_EQ(fired, 2000);
}

TEST_P(BackendConformance, ThrowingCallbackStillFreesItsSlot) {
  Simulator sim(GetParam());
  const auto token = std::make_shared<int>(0);
  sim.schedule_at(10, [token] { throw std::runtime_error("x"); });
  sim.schedule_at(20, [] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(sim.run(), std::runtime_error);
  // Recycling destroys the closure and frees the slot in one step.
  EXPECT_EQ(token.use_count(), 1) << "the thrower is destroyed on the unwind path";
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 1u);
  sim.schedule_at(30, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 3u);
}

namespace {

/// One deterministic schedule/arm/destroy/re-entrancy workload; every
/// observable the kernel exposes is captured so two backends can be compared
/// field by field. Uses a hand-rolled LCG so the trace is identical across
/// runs, platforms, and backends.
struct KernelTrace {
  std::vector<std::pair<TimeNs, int>> dispatched;  ///< (now, tag) sequence
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t compactions = 0;
  std::size_t max_depth = 0;
  TimeNs end_time = 0;
  int timer_dispatches = 0;
  int timers_destroyed_armed = 0;

  bool operator==(const KernelTrace&) const = default;
};

/// A Timer whose every dispatch records (now, tag), the tag set at arm().
struct TaggedTimer {
  TaggedTimer(Simulator& s, KernelTrace& t) : sim(s), tr(t), timer(s, &fire, this) {}
  static void fire(void* self) {
    auto* t = static_cast<TaggedTimer*>(self);
    t->tr.dispatched.emplace_back(t->sim.now(), t->tag);
    ++t->tr.timer_dispatches;
  }
  void arm(TimeNs at, std::uint64_t seq, int new_tag) {
    tag = new_tag;
    timer.arm(at, seq);
  }
  Simulator& sim;
  KernelTrace& tr;
  int tag = 0;
  Timer timer;
};

/// One in this many set-up iterations, and one in this many closure
/// dispatches, destroys a random timer. With most set-up timers armed far
/// ahead, the tombstones come to outnumber the live entries once the near
/// events have run, and the trace purges them.
constexpr std::uint32_t kDestroyAtSetUp = 3;
constexpr std::uint32_t kDestroyFromDispatch = 4;

KernelTrace run_workload(QueueBackend backend) {
  Simulator sim(backend);
  KernelTrace tr;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  int tag = 0;
  const auto leaf = [&] {
    return [&tr, &sim, leaf_tag = tag++] {
      tr.dispatched.emplace_back(sim.now(), leaf_tag);
    };
  };
  // Timers interleaved with the closures: re-armed once idle, destroyed
  // while armed (their entries turn to tombstones) or idle (the no-op path),
  // and their table slots reused by new ones.
  std::vector<std::unique_ptr<TaggedTimer>> timers;
  const auto idle_timer = [&]() -> TaggedTimer& {
    for (auto& t : timers) {
      if (t != nullptr && !t->timer.armed()) return *t;
    }
    for (auto& t : timers) {
      if (t == nullptr) return *(t = std::make_unique<TaggedTimer>(sim, tr));
    }
    return *timers.emplace_back(std::make_unique<TaggedTimer>(sim, tr));
  };
  const auto destroy_one = [&] {
    if (timers.empty()) return;
    std::unique_ptr<TaggedTimer>& doomed = timers[next() % timers.size()];
    if (doomed != nullptr && doomed->timer.armed()) ++tr.timers_destroyed_armed;
    doomed.reset();
  };
  // A random time: ties, and one in eight far beyond the calendar's window.
  const auto random_time = [&] {
    return next() % 8 == 0 ? 5000 + next() % 50'000'000 : next() % 5000;
  };
  // Schedule-phase churn: closures and timers at random times, random
  // destructions.
  for (int i = 0; i < 2000; ++i) {
    const int my_tag = tag++;
    sim.schedule_at(random_time(), [&, my_tag] {
      tr.dispatched.emplace_back(sim.now(), my_tag);
      if (next() % 4 == 0) {  // re-entrant schedule from dispatch
        sim.schedule_in(1 + next() % 64, leaf());
      }
      if (next() % 16 == 0) {  // ... and one far beyond the window
        sim.schedule_in(20'000 + next() % 2'000'000, leaf());
      }
      if (next() % 16 == 0) {
        // A seq reserved now and armed late at now(): it must run ahead of
        // the same-time event scheduled in between.
        const std::uint64_t reserved = sim.reserve_seq();
        sim.schedule_in(0, leaf());
        idle_timer().arm(sim.now(), reserved, tag++);
      }
      if (next() % 8 == 0) {  // a timer a little ahead, sometimes past the ring
        const TimeNs ahead = next() % 4 == 0 ? 20'000 + next() % 100'000 : next() % 3000;
        idle_timer().arm(sim.now() + ahead, sim.reserve_seq(), tag++);
      }
      if (next() % 32 == 0) {
        // A burst inside one 64 ns span: more events than a bucket holds.
        const TimeNs base = sim.now() + 200 + next() % 1000;
        for (int k = 0; k < 24; ++k) sim.schedule_at(base + next() % 64, leaf());
      }
      if (next() % kDestroyFromDispatch == 0) destroy_one();
    });
    if (next() % 2 == 0) {  // mostly far ahead, as a retransmission timer is
      const TimeNs at = next() % 4 == 0 ? random_time() : 5000 + next() % 50'000'000;
      idle_timer().arm(at, sim.reserve_seq(), tag++);
    }
    if (next() % kDestroyAtSetUp == 0) destroy_one();
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
// ties, re-entrant and far-future scheduling, timers armed late at reserved
// seqs, re-armed, destroyed while armed (at set-up and from inside
// callbacks) or idle, tombstone purges, and same-bucket bursts must produce
// the SAME dispatch sequence and the SAME kernel counters — including
// max_heap_depth and compaction count — on both backends. This is the
// unit-scale version of the pmsbregress digest-equivalence guarantee.
TEST(QueueBackendEquivalence, RandomizedWorkloadTracesAreBitIdentical) {
  const KernelTrace heap = run_workload(QueueBackend::kHeap);
  const KernelTrace calendar = run_workload(QueueBackend::kCalendar);
  ASSERT_GT(heap.dispatched.size(), 1000u);
  ASSERT_GT(heap.timer_dispatches, 100);
  ASSERT_GT(heap.timers_destroyed_armed, 5);
  EXPECT_TRUE(heap == calendar);
  EXPECT_GT(heap.compactions, 0u) << "the trace must reach a tombstone purge";
  // On mismatch the == line is useless for debugging; spell out the fields.
  EXPECT_EQ(heap.dispatched, calendar.dispatched);
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
// the oracle. The ring holds 256 buckets of 64 ns, 12 entries each, over a
// 16.4 us window, with a four-word bitmap of occupied buckets and another
// of open (sorted) ones (calendar_queue.hpp); the scripts reach past each of
// those edges.
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

// run(until) discards a tombstone past the horizon, so the window start
// runs ahead of now(). An insert below the start must still come first, and
// popping it must not pull the start back under ring entries near the far
// end of the window.
TEST(CalendarQueueColdPaths, InsertAfterRunUntilSettlesPastTheLastPop) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(10, fire(0));
    arm_at(sim, 10'000, fire(-1)).reset();  // a tombstone at 10'000
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
// seq must hold across both parts. A timer armed after the storm at a seq
// reserved in its middle lands in its place.
TEST(CalendarQueueColdPaths, TieStormLargerThanABucket) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    std::uint64_t reserved = 0;
    for (int i = 0; i < 100; ++i) {
      if (i == 50) reserved = sim.reserve_seq();
      sim.schedule_at(2000, fire(i));
    }
    auto late = fire(1000);
    Timer timer(sim, [](void* f) { (*static_cast<decltype(late)*>(f))(); }, &late);
    timer.arm(2000, reserved);
    for (int i = 0; i < 30; ++i) sim.schedule_at(2048 + (i * 37) % 64, fire(200 + i));
    sim.run();  // while the timer lives
  });
  ASSERT_EQ(tr.dispatched.size(), 131u);
  EXPECT_EQ(tr.dispatched[50], (std::pair<TimeNs, int>{2000, 1000}));
  EXPECT_EQ(tr.dispatched[51], (std::pair<TimeNs, int>{2000, 50}));
}

// Bursts of 20 entries into each of three neighbouring buckets, appended
// out of order to closed buckets: each bucket's 12 slots fill and the rest
// of the burst falls to the heap, where it must interleave with the runs,
// sorted when each bucket opens, by (time, seq).
TEST(CalendarQueueColdPaths, BurstLargerThanABucket) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    for (int i = 0; i < 60; ++i) sim.schedule_at(4096 + (i * 53) % 192, fire(i));
    sim.schedule_at(4096 + 64, fire(100));  // the middle bucket's first ns
  });
  ASSERT_EQ(tr.dispatched.size(), 61u);
  for (std::size_t i = 1; i < tr.dispatched.size(); ++i) {
    EXPECT_LE(tr.dispatched[i - 1].first, tr.dispatched[i].first);
  }
}

// The window starts in the bitmap's second word (ring index 100). The
// occupied buckets after it lie further up that word (110), in the third
// and fourth words (150, 220), wrapped into the first word (index 14) and
// in the second word below the start (index 74): the scan must take the
// start word's upper bits, the words after it, wrap to the first, and take
// the start word's lower bits last.
TEST(CalendarQueueColdPaths, ScanWrapsFromTheSecondBitmapWordIntoTheFirst) {
  const KernelTrace tr = expect_backends_agree([](Simulator& sim, auto fire) {
    sim.schedule_at(100 * 64, [&sim, fire] {  // bucket 100, index 100
      fire(0)();
      sim.schedule_at(330 * 64 + 3, fire(6));  // bucket 330, index 74
      sim.schedule_at(270 * 64 + 5, fire(5));  // bucket 270, index 14
      sim.schedule_at(150 * 64 + 2, fire(3));  // bucket 150, index 150
      sim.schedule_at(110 * 64 + 1, fire(2));  // bucket 110, index 110
      sim.schedule_at(220 * 64 + 7, fire(4));  // bucket 220, index 220
      sim.schedule_at(100 * 64 + 50, fire(1));  // the start bucket
      sim.schedule_at(356 * 64, fire(7));  // one past the window: heap
    });
  });
  EXPECT_EQ(tags_of(tr), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
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
    std::vector<std::unique_ptr<ClosureTimer>> ring, heap;
    for (int i = 0; i < 8; ++i) ring.push_back(arm_at(sim, 1000 + i, fire(i)));
    for (int i = 0; i < 40; ++i) {
      ring.push_back(arm_at(sim, 2000 + 150 * i, fire(100 + i)));
    }
    for (int i = 0; i < 60; ++i) {
      heap.push_back(arm_at(sim, 1'000'000 + 1000 * i, fire(200 + i)));
    }
    sim.run(1003);  // drains half of the first bucket
    EXPECT_EQ(sim.queue_compactions(), 0u);
    for (std::size_t i = 5; i < ring.size(); i += 2) ring[i].reset();
    for (std::size_t i = 0; i < heap.size(); i += 2) heap[i].reset();
    for (std::size_t i = 1; sim.queue_compactions() == 0; i += 2) heap[i].reset();
    EXPECT_EQ(sim.queue_depth(), sim.pending_events()) << "no tombstone survives";
    // Refill the compacted buckets, including the half-drained one.
    sim.schedule_at(1005, fire(50));
    sim.schedule_at(2000, fire(51));
    sim.run();  // while the timers live
  });
  EXPECT_EQ(tr.compactions, 1u);
  EXPECT_GT(tr.dispatched.size(), 30u);
}

// ===================== queue entries =====================

// A key packs seq << 24 | handle. At the largest seq and handle a key holds,
// (time, key) still orders by (time, seq), the fields read back, and one
// past either limit is refused by name rather than wrapped.
TEST(QueueEntryPacking, LimitsKeepTheOrderAndOnePastIsRefused) {
  const QueueEntry top_seq{7, pack_key(kMaxSeq, 0)};
  const QueueEntry below{7, pack_key(kMaxSeq - 1, kMaxHandle)};
  const QueueEntry timer{7, pack_key(1, kTimerBit | (kTimerBit - 1))};
  EXPECT_EQ(kMaxSeq, (std::uint64_t{1} << 40) - 1);
  EXPECT_EQ(kMaxHandle, (std::uint32_t{1} << 24) - 1);
  EXPECT_EQ(top_seq.seq(), kMaxSeq);
  EXPECT_EQ(top_seq.handle(), 0u);
  EXPECT_EQ(below.seq(), kMaxSeq - 1);
  EXPECT_EQ(below.handle(), kMaxHandle);
  EXPECT_EQ(timer.seq(), 1u);
  EXPECT_EQ(timer.handle(), kMaxHandle);
  EXPECT_TRUE(earlier(below, top_seq)) << "a full handle never lifts a seq";
  EXPECT_TRUE(earlier(timer, below));
  EXPECT_TRUE(earlier(QueueEntry{6, pack_key(kMaxSeq, kMaxHandle)}, timer))
      << "time decides first";
  try {
    (void)pack_key(kMaxSeq + 1, 0);
    ADD_FAILURE() << "seq 2^40 packed";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("insertion sequence"), std::string::npos);
  }
  try {
    (void)pack_key(1, kMaxHandle + 1);
    ADD_FAILURE() << "handle 2^24 packed";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("handle"), std::string::npos);
  }
}

// ===================== open and closed buckets =====================
// CalendarQueue driven directly, against the heap alone (a CalendarQueue
// with its ring off) as the oracle.

namespace {

QueueEntry entry(TimeNs time, std::uint64_t seq) { return {time, pack_key(seq, 0)}; }

/// Pushes `entries` into both queues.
void push_both(CalendarQueue& ring, CalendarQueue& heap,
               const std::vector<QueueEntry>& entries) {
  for (const QueueEntry& e : entries) {
    ring.push(e);
    heap.push(e);
  }
}

/// Pops `n` entries from both (every one if n is 0) and expects the same
/// sequence, sorted by (time, seq); returns it as (time, seq) pairs.
std::vector<std::pair<TimeNs, std::uint64_t>> pop_both(CalendarQueue& ring,
                                                       CalendarQueue& heap,
                                                       std::size_t n = 0) {
  std::vector<std::pair<TimeNs, std::uint64_t>> out;
  while ((n == 0 || out.size() < n) && ring.peek() != nullptr) {
    EXPECT_NE(heap.peek(), nullptr);
    const QueueEntry a = ring.pop();
    const QueueEntry b = heap.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.key, b.key);
    if (!out.empty()) {
      EXPECT_LT(out.back(), std::make_pair(a.time, a.seq()));
    }
    out.emplace_back(a.time, a.seq());
  }
  if (n == 0) {
    EXPECT_EQ(heap.peek(), nullptr);
  }
  EXPECT_EQ(ring.size(), heap.size());
  return out;
}

}  // namespace

// Pushes into a bucket no peek has reached append in arrival order; the
// first peek that finds the bucket in front sorts it.
TEST(CalendarBuckets, OutOfOrderAppendsIntoAClosedBucketComeOutSorted) {
  CalendarQueue ring(true), heap(false);
  // One 64 ns bucket, times and seqs scrambled, two entries tied in time.
  push_both(ring, heap, {entry(140, 5), entry(129, 9), entry(190, 1), entry(140, 2),
                         entry(128, 7), entry(170, 3)});
  EXPECT_EQ(pop_both(ring, heap),
            (std::vector<std::pair<TimeNs, std::uint64_t>>{
                {128, 7}, {129, 9}, {140, 2}, {140, 5}, {170, 3}, {190, 1}}));
}

// Once the front bucket is open, a push keeps it sorted, including one that
// lands ahead of entries already there (a reserved seq armed late).
TEST(CalendarBuckets, OutOfOrderPushIntoTheOpenFrontBucketStaysSorted) {
  CalendarQueue ring(true), heap(false);
  push_both(ring, heap, {entry(300, 10), entry(260, 11), entry(300, 12)});
  const auto first = pop_both(ring, heap, 1);  // opens the bucket, pops 260
  EXPECT_EQ(first.front(), std::make_pair(TimeNs{260}, std::uint64_t{11}));
  push_both(ring, heap, {entry(300, 4), entry(280, 13), entry(310, 14), entry(300, 8)});
  EXPECT_EQ(pop_both(ring, heap),
            (std::vector<std::pair<TimeNs, std::uint64_t>>{
                {280, 13}, {300, 4}, {300, 8}, {300, 10}, {300, 12}, {310, 14}}));
}

// A bucket ahead of an open one stays closed while it is filled, and the
// next peek opens it first: its entries come out before the open bucket's.
TEST(CalendarBuckets, EntryLandsInAnEarlierBucketAfterALaterOneOpened) {
  CalendarQueue ring(true), heap(false);
  push_both(ring, heap, {entry(1000, 1), entry(1010, 2)});
  ASSERT_EQ(ring.peek()->time, 1000);  // opens bucket 15
  push_both(ring, heap, {entry(700, 5), entry(650, 4), entry(1001, 6), entry(690, 3)});
  EXPECT_EQ(pop_both(ring, heap),
            (std::vector<std::pair<TimeNs, std::uint64_t>>{
                {650, 4}, {690, 3}, {700, 5}, {1000, 1}, {1001, 6}, {1010, 2}}));
}

// A purge keeps each run's order: a closed bucket still sorts on opening,
// and an open one, half drained, stays sorted for the pushes after it.
TEST(CalendarBuckets, CompactionKeepsEachRunsOrder) {
  CalendarQueue ring(true), heap(false);
  // Bucket 4 (256-319 ns) open and half drained; bucket 10 (640-703) closed.
  push_both(ring, heap, {entry(300, 1), entry(260, 2), entry(280, 3), entry(270, 4)});
  push_both(ring, heap, {entry(690, 5), entry(650, 6), entry(700, 7), entry(640, 8),
                         entry(660, 9)});
  pop_both(ring, heap, 2);  // 260 and 270
  const auto keep = [](const QueueEntry& e) { return e.seq() % 2 == 1 || e.seq() == 8; };
  ring.compact(keep);
  heap.compact(keep);
  EXPECT_EQ(ring.size(), 6u);
  push_both(ring, heap, {entry(290, 10), entry(680, 11)});
  EXPECT_EQ(pop_both(ring, heap),
            (std::vector<std::pair<TimeNs, std::uint64_t>>{{280, 3},
                                                           {290, 10},
                                                           {300, 1},
                                                           {640, 8},
                                                           {660, 9},
                                                           {680, 11},
                                                           {690, 5},
                                                           {700, 7}}));
}
