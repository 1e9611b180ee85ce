// Tests for the packet-event tracer and its Port integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <optional>
#include <tuple>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "net/packet_observer.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

using namespace pmsb;
using namespace pmsb::trace;

namespace {

/// Retained events of `kind`, optionally only those charged to `queue`.
std::size_t tally(const Tracer& t, EventKind kind,
                  std::optional<std::size_t> queue = std::nullopt) {
  return static_cast<std::size_t>(
      std::count_if(t.records().begin(), t.records().end(), [&](const Record& r) {
        return r.kind == kind && (!queue || r.queue == *queue);
      }));
}

}  // namespace

TEST(Tracer, RecordsAndCounts) {
  Tracer t;
  t.record({10, EventKind::kEnqueue, 1, 7, 0, 1500});
  t.record({20, EventKind::kMark, 1, 7, 0, 3000});
  t.record({30, EventKind::kDequeue, 1, 7, 0, 1500});
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(tally(t, EventKind::kMark), 1u);
  EXPECT_EQ(tally(t, EventKind::kDrop), 0u);
  EXPECT_EQ(tally(t, EventKind::kEnqueue, 0), 1u);
  EXPECT_EQ(tally(t, EventKind::kEnqueue, 1), 0u);
}

TEST(Tracer, CapacityBoundWithOverflowCount) {
  Tracer t(2);
  for (int i = 0; i < 5; ++i) t.record({0, EventKind::kEnqueue, 0, 0, 0, 0});
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.overflow(), 3u);
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.overflow(), 0u);
}

TEST(Tracer, RingBufferKeepsTail) {
  Tracer t(3, OverflowPolicy::kRingBuffer);
  for (std::uint64_t i = 1; i <= 7; ++i) {
    // Alternate queues so the per-queue counts of the tail get exercised.
    t.record({sim::TimeNs(i), i % 2 == 0 ? EventKind::kMark : EventKind::kEnqueue,
              i, 1, i % 2, i * 100});
  }
  // Records 5, 6, 7 survive; 4 were evicted.
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.overflow(), 4u);
  std::vector<std::uint64_t> order;
  t.for_each_chronological([&order](const Record& r) { order.push_back(r.packet); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 6, 7}));
  // Counts reflect only the retained tail: 5,7 enqueue on q1; 6 mark q0.
  EXPECT_EQ(tally(t, EventKind::kEnqueue), 2u);
  EXPECT_EQ(tally(t, EventKind::kMark), 1u);
  EXPECT_EQ(tally(t, EventKind::kEnqueue, 1), 2u);
  EXPECT_EQ(tally(t, EventKind::kMark, 0), 1u);
  EXPECT_EQ(tally(t, EventKind::kMark, 1), 0u);
}

TEST(Tracer, ZeroCapacityNeverStores) {
  Tracer t(0, OverflowPolicy::kRingBuffer);
  t.record({0, EventKind::kEnqueue, 1, 1, 0, 0});
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.overflow(), 1u);
  EXPECT_EQ(tally(t, EventKind::kEnqueue), 0u);
}

TEST(Tracer, NdjsonDumpIsChronologicalAfterWrap) {
  Tracer t(2, OverflowPolicy::kRingBuffer);
  t.record({sim::microseconds(1), EventKind::kEnqueue, 1, 9, 0, 100});
  t.record({sim::microseconds(2), EventKind::kMark, 2, 9, 1, 200});
  t.record({sim::microseconds(3), EventKind::kDrop, 3, 9, 1, 300});  // evicts #1
  const std::string path = std::string(::testing::TempDir()) + "/trace_events.ndjson";
  t.write_ndjson(path);
  std::ifstream in(path);
  std::string line1, line2, line3;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_FALSE(std::getline(in, line3));
  EXPECT_NE(line1.find("\"t_us\":2"), std::string::npos);
  EXPECT_NE(line1.find("\"event\":\"mark\""), std::string::npos);
  EXPECT_NE(line2.find("\"t_us\":3"), std::string::npos);
  EXPECT_NE(line2.find("\"event\":\"drop\""), std::string::npos);
  EXPECT_NE(line2.find("\"queue\":1"), std::string::npos);
}

TEST(Tracer, NdjsonTimestampsRoundTripToTheNanosecond) {
  // 1000.003 us and 1234567.891 us need more than six significant digits.
  const std::vector<sim::TimeNs> times = {1'000'003, 1'000'004, 1'234'567'891};
  Tracer t;
  for (const sim::TimeNs time : times) t.record({time, EventKind::kEnqueue, 1, 9, 0, 100});
  const std::string path = std::string(::testing::TempDir()) + "/trace_exact.ndjson";
  t.write_ndjson(path);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::vector<PortEvent> events = parse_trace_ndjson(text, "exact");
  ASSERT_EQ(events.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(std::llround(events[i].t_us * 1000.0), times[i]) << "record " << i;
  }
}

TEST(TracerPort, CapturesFullLifecycleInScenario) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 8 * 1500;
  experiments::DumbbellScenario sc(cfg);
  Tracer tracer;
  sc.bottleneck().add_observer(&tracer);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000, .start = 0});
  sc.run(sim::milliseconds(20));
  // Conservation: every enqueued packet dequeues; marks match port stats.
  EXPECT_GT(tally(tracer, EventKind::kEnqueue), 100u);
  EXPECT_EQ(tally(tracer, EventKind::kEnqueue), tally(tracer, EventKind::kDequeue));
  EXPECT_EQ(tally(tracer, EventKind::kMark),
            sc.bottleneck().stats().marked_enqueue +
                sc.bottleneck().stats().marked_dequeue);
  EXPECT_EQ(tally(tracer, EventKind::kDrop), sc.bottleneck().stats().dropped_packets);
  // Mark events identify the queue that was over its share: both queues are
  // congested here so both should appear.
  EXPECT_GT(tally(tracer, EventKind::kMark, 0), 0u);
  EXPECT_GT(tally(tracer, EventKind::kMark, 1), 0u);
}

TEST(TracerPort, VictimForensics) {
  // The tracer answers the paper's central question directly: under
  // per-port marking, packets of the un-congested queue 0 get marked even
  // though queue 0 holds almost nothing.
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  experiments::DumbbellScenario sc(cfg);
  Tracer tracer;
  sc.bottleneck().add_observer(&tracer);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (std::size_t i = 1; i <= 8; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(10));
  EXPECT_GT(tally(tracer, EventKind::kMark, 0), 0u)
      << "victim queue should be getting (faulty) marks under per-port marking";
}

namespace {

/// Logs every port hook as (kind, site, time, packet, queue, port bytes).
class PortEventLog final : public net::PacketObserver {
 public:
  using Event =
      std::tuple<char, net::SiteId, sim::TimeNs, std::uint64_t, std::size_t, std::uint64_t>;

  void on_enqueue(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    events.emplace_back('e', site, now, pkt.id, queue, port_bytes);
  }
  void on_dequeue(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    events.emplace_back('d', site, now, pkt.id, queue, port_bytes);
  }
  void on_mark(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    events.emplace_back('m', site, now, pkt.id, queue, port_bytes);
  }
  void on_drop(net::SiteId site, sim::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    events.emplace_back('x', site, now, pkt.id, queue, port_bytes);
  }

  std::vector<Event> events;
};

}  // namespace

TEST(PacketObserver, TwoObserversOnOnePortSeeIdenticalSequences) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 8 * 1500;
  experiments::DumbbellScenario sc(cfg);
  PortEventLog first;
  PortEventLog second;
  sc.bottleneck().add_observer(&first, 7);
  sc.bottleneck().add_observer(&second, 7);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000, .start = 0});
  sc.run(sim::milliseconds(20));
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(std::get<1>(first.events.front()), 7u);
  // Every port event reached the observers: enqueues and marks match the
  // port's own counters.
  const auto count = [&first](char kind) {
    return static_cast<std::uint64_t>(std::count_if(
        first.events.begin(), first.events.end(),
        [kind](const PortEventLog::Event& e) { return std::get<0>(e) == kind; }));
  };
  EXPECT_EQ(count('e'), sc.bottleneck().stats().enqueued_packets);
  EXPECT_EQ(count('m'), sc.bottleneck().stats().marked_enqueue +
                            sc.bottleneck().stats().marked_dequeue);
  EXPECT_GT(count('m'), 0u);
}
