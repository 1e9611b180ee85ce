// Tests for the telemetry subsystem: registry semantics and export order,
// histogram bucket edges, sampler period alignment, the run-manifest JSON
// (round-tripped through a minimal parser defined below, and pinned byte for
// byte by a golden document), and the PortStats == registry regression on a
// real dumbbell run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::telemetry;

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip a run manifest. Numbers are
// doubles; objects are ordered maps keyed by string.
namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const { return object.at(key); }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }
  bool consume_literal(const std::string& lit) {
    skip_ws();
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = parse_string();
      return v;
    }
    JsonValue v;
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    v.type = JsonValue::Type::kNumber;
    std::size_t used = 0;
    v.number = std::stod(s_.substr(pos_), &used);
    if (used == 0) throw std::runtime_error("bad JSON number");
    pos_ += used;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            // Manifest strings only escape control chars; decode as a byte.
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u escape");
            out += static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') throw std::runtime_error("expected ',' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') throw std::runtime_error("expected ',' in object");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry semantics

TEST(InstrumentKey, SortsLabelsAndFormats) {
  EXPECT_EQ(instrument_key("port.marks", {}), "port.marks");
  EXPECT_EQ(instrument_key("port.marks", {{"queue", "3"}, {"port", "0"}}),
            "port.marks{port=0,queue=3}");
}

TEST(MetricsRegistry, LabelsDistinguishInstruments) {
  MetricsRegistry reg;
  std::uint64_t q0 = 5;
  std::uint64_t q1 = 7;
  reg.bind_counter("port.marks", {{"queue", "0"}, {"port", "a"}}, &q0);
  reg.bind_counter("port.marks", {{"queue", "1"}, {"port", "a"}}, &q1);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.value("port.marks", {{"port", "a"}, {"queue", "0"}}), 5.0);
  EXPECT_DOUBLE_EQ(reg.value("port.marks", {{"port", "a"}, {"queue", "1"}}), 7.0);
  // Label order must not matter for identity.
  EXPECT_TRUE(reg.has("port.marks", {{"port", "a"}, {"queue", "0"}}));
  EXPECT_THROW(reg.bind_counter("port.marks", {{"port", "a"}, {"queue", "0"}}, &q1),
               std::invalid_argument);
}

TEST(MetricsRegistry, KindClashThrows) {
  MetricsRegistry reg;
  reg.counter_fn("thing", {}, [] { return std::uint64_t{0}; });
  EXPECT_THROW(reg.gauge_fn("thing", {}, [] { return 0.0; }), std::invalid_argument);
  EXPECT_THROW(reg.histogram("thing", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, DuplicateBindThrows) {
  MetricsRegistry reg;
  std::uint64_t cell = 42;
  reg.bind_counter("port.drops", {}, &cell);
  EXPECT_THROW(reg.bind_counter("port.drops", {}, &cell), std::invalid_argument);
  EXPECT_THROW(reg.bind_counter("null.cell", {}, nullptr), std::invalid_argument);
  cell = 99;
  EXPECT_DOUBLE_EQ(reg.value("port.drops"), 99.0);  // reads the live cell
}

TEST(MetricsRegistry, ProbeInstrumentsEvaluateAtCollect) {
  MetricsRegistry reg;
  std::uint64_t n = 0;
  double g = 0.0;
  reg.counter_fn("fn.count", {}, [&n] { return n; });
  reg.gauge_fn("fn.gauge", {}, [&g] { return g; });
  n = 12;
  g = 2.5;
  std::vector<std::pair<double, InstrumentKind>> seen;
  reg.visit([&seen](const MetricsRegistry::Instrument& m) {
    seen.emplace_back(m.value(), m.kind());
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].first, 12.0);
  EXPECT_DOUBLE_EQ(seen[1].first, 2.5);
  EXPECT_EQ(seen[0].second, InstrumentKind::kCounter);
  EXPECT_EQ(seen[1].second, InstrumentKind::kGauge);
}

TEST(MetricsRegistry, CollectSortedOrdersByInstrumentKey) {
  MetricsRegistry reg;
  const auto zero = [] { return std::uint64_t{0}; };
  const auto empty = [] { return 0.0; };
  // Register deliberately out of key order.
  reg.counter_fn("zeta.total", {}, zero);
  reg.gauge_fn("alpha.depth", {{"port", "b"}}, empty);
  reg.gauge_fn("alpha.depth", {{"port", "a"}}, empty);
  reg.counter_fn("mid.count", {}, zero);
  // Labels given out of key order: the key sorts them, and ',' sorts before
  // '}', so this instrument comes first.
  reg.gauge_fn("alpha.depth", {{"queue", "3"}, {"port", "a"}}, empty);
  // '.' sorts before '{': a longer name can precede a shorter one's
  // labelled instruments.
  reg.counter_fn("alpha.depth.max", {}, zero);

  // The export visitor orders by canonical key regardless of registration.
  std::vector<std::string> keys;
  std::vector<std::pair<std::string, std::string>> first_labels;
  reg.visit([&](const MetricsRegistry::Instrument& m) {
    keys.push_back(m.key());
    if (keys.size() == 2) {
      m.for_each_label([&](std::string_view k, std::string_view v) {
        first_labels.emplace_back(k, v);
      });
    }
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha.depth.max",
                                            "alpha.depth{port=a,queue=3}",
                                            "alpha.depth{port=a}",
                                            "alpha.depth{port=b}", "mid.count",
                                            "zeta.total"}));
  // The view carries its labels in key order.
  EXPECT_EQ(first_labels, (Labels{{"port", "a"}, {"queue", "3"}}));
}

TEST(MetricsRegistry, ExportOrderIsTheSortedInstrumentKeys) {
  // Label values that are prefixes of each other, and bytes on both sides of
  // '.', ',', '=' and '{' / '}', under names that are prefixes of each other
  // and under prefix-free names (ordered by name and label-set ranks alone);
  // every other instrument has a unit, which never takes part in the order.
  const std::vector<std::vector<std::string>> name_sets = {
      {"a", "a.b", "a.b.c", "a_b", "ab", "a{", "b", "A", "a~", "a|"},
      {"port.marks", "port.drops", "queue.backlog", "a_b", "ab", "sim.events"}};
  const std::vector<std::string> keys = {"port", "queue", "p", "reason"};
  const std::vector<std::string> values = {"0", "1", "10", "a", "a.b", "ab", "~", "-"};
  for (const std::vector<std::string>& names : name_sets) {
    sim::Rng rng(7);
    auto pick = [&rng](const std::vector<std::string>& from) -> const std::string& {
      return from[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
    };
    MetricsRegistry reg;
    std::vector<std::string> expected;
    for (int i = 0; i < 400; ++i) {
      const std::string& name = pick(names);
      Labels labels;
      for (std::int64_t n = rng.uniform_int(0, 2); n > 0; --n) {
        labels.emplace_back(pick(keys), pick(values));
      }
      if (reg.has(name, labels)) continue;
      reg.gauge_fn(name, labels, [] { return 0.0; }, i % 2 == 0 ? "bytes" : "");
      expected.push_back(instrument_key(name, labels));
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::string> got;
    reg.visit([&got](const MetricsRegistry::Instrument& m) { got.push_back(m.key()); });
    EXPECT_EQ(got, expected) << names.front();
    EXPECT_GT(got.size(), 100u);
  }
}

TEST(MetricsRegistry, CollidingLabelTextsThrow) {
  MetricsRegistry reg;
  reg.gauge_fn("x", {{"a=b", "c"}}, [] { return 0.0; });
  // Different pairs, same canonical text `{a=b=c}`.
  EXPECT_THROW(reg.gauge_fn("y", {{"a", "b=c"}}, [] { return 0.0; }),
               std::invalid_argument);
  // The same pairs under another name share the stored set.
  reg.gauge_fn("y", {{"a=b", "c"}}, [] { return 1.0; });
  EXPECT_DOUBLE_EQ(reg.value("y", {{"a=b", "c"}}), 1.0);
}

TEST(MetricsRegistry, InternedLabelSetsRegisterTheSameInstruments) {
  MetricsRegistry reg;
  std::uint64_t cell = 3;
  const LabelSetId port = reg.label_set({{"switch", "leaf0"}, {"port", "2"}});
  const LabelSetId queue = reg.label_set(port, "queue", "5");
  reg.bind_counter("port.marks", queue, &cell, "packets");
  reg.gauge_fn("port.occupancy_bytes", port, [] { return 1.0; }, "bytes");
  // The derived set is the base plus the label, in key order.
  EXPECT_DOUBLE_EQ(
      reg.value("port.marks", {{"queue", "5"}, {"port", "2"}, {"switch", "leaf0"}}), 3.0);
  EXPECT_TRUE(reg.has("port.occupancy_bytes", {{"port", "2"}, {"switch", "leaf0"}}));
  // The same set through either form is one instrument.
  const Labels same = {{"port", "2"}, {"queue", "5"}, {"switch", "leaf0"}};
  EXPECT_THROW(reg.bind_counter("port.marks", same, &cell), std::invalid_argument);
  std::vector<std::string> keys;
  reg.visit([&keys](const MetricsRegistry::Instrument& m) {
    keys.push_back(m.key());
    EXPECT_EQ(m.key(), std::string(m.name()) + std::string(m.label_text()));
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"port.marks{port=2,queue=5,switch=leaf0}",
                                            "port.occupancy_bytes{port=2,switch=leaf0}"}));
  // A set interned in another registry is not this one's, even where that
  // registry holds as many sets.
  MetricsRegistry other;
  const LabelSetId others = other.label_set({{"switch", "spine0"}, {"port", "1"}});
  (void)other.label_set(others, "queue", "0");
  other.bind_counter("port.marks", others, &cell, "packets");
  EXPECT_THROW((void)other.label_set(port, "x", "y"), std::invalid_argument);
  EXPECT_THROW(other.bind_counter("port.drops", queue, &cell), std::invalid_argument);
  EXPECT_THROW(reg.gauge_fn("port.occupancy_bytes", others, [] { return 1.0; }),
               std::invalid_argument);
  EXPECT_EQ(other.size(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RunManifest, MetricsSectionIsSortedByInstrumentKey) {
  MetricsRegistry reg;
  reg.counter_fn("z.last", {}, [] { return std::uint64_t{1}; });
  reg.counter_fn("a", {{"port", "0"}}, [] { return std::uint64_t{3}; });
  reg.counter_fn("a.first", {}, [] { return std::uint64_t{2}; });
  RunManifest manifest("t");
  const JsonValue root = JsonParser(manifest.to_json(&reg)).parse();
  const auto& metrics = root.at("metrics").array;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").str, "a.first");  // "a.first" < "a{port=0}"
  EXPECT_EQ(metrics[1].at("name").str, "a");
  EXPECT_EQ(metrics[2].at("name").str, "z.last");
}

TEST(MetricsRegistry, ValueOnHistogramThrows) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW((void)reg.value("h"), std::invalid_argument);
  EXPECT_THROW((void)reg.value("missing"), std::out_of_range);
  EXPECT_NO_THROW((void)reg.histogram_at("h"));
}

// ---------------------------------------------------------------------------
// Histogram bucket edges

TEST(Histogram, InclusiveUpperEdges) {
  Histogram h({1.0, 5.0, 10.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow
  h.observe(1.0);    // lands in [.., 1]
  h.observe(1.0001); // lands in (1, 5]
  h.observe(5.0);    // lands in (1, 5]
  h.observe(10.0);   // lands in (5, 10]
  h.observe(10.5);   // overflow
  h.observe(-3.0);   // below the first bound -> first bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.0001 + 5.0 + 10.0 + 10.5 - 3.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
}

TEST(Histogram, NonIncreasingBoundsThrow) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sampler

TEST(TimeSeriesSampler, RowsAlignWithSchedulePeriod) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  double live = 0.0;
  sampler.add_probe("live", [&live] { return live; });
  // Drive the probe from simulator events between samples.
  for (int k = 0; k < 10; ++k) {
    simulator.schedule_at(sim::microseconds(100 * k + 50), [&live] { live += 1.0; });
  }
  sampler.start();
  simulator.run(sim::microseconds(1000));

  // Samples at t = 0, 100, ..., 1000 us.
  ASSERT_EQ(sampler.rows(), 11u);
  for (std::size_t k = 0; k < sampler.rows(); ++k) {
    EXPECT_DOUBLE_EQ(sampler.times_us()[k], 100.0 * static_cast<double>(k));
    // By sample k, exactly k bump events (at 50, 150, ...) have fired.
    EXPECT_DOUBLE_EQ(sampler.column(0)[k], std::min<double>(static_cast<double>(k), 10.0));
  }
}

TEST(TimeSeriesSampler, RateColumnIsDeltaPerSecond) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  std::uint64_t count = 0;
  sampler.add_rate("rate", [&count] { return count; });
  for (int k = 0; k < 5; ++k) {
    // 3 events inside every sampling interval.
    simulator.schedule_at(sim::microseconds(100 * k + 10), [&count] { count += 3; });
  }
  sampler.start();
  simulator.run(sim::microseconds(500));

  ASSERT_EQ(sampler.rows(), 6u);
  EXPECT_DOUBLE_EQ(sampler.column(0)[0], 0.0);  // nothing before the first tick
  for (std::size_t k = 1; k < sampler.rows(); ++k) {
    // 3 events per 100 us = 30000 events/s.
    EXPECT_DOUBLE_EQ(sampler.column(0)[k], 30000.0);
  }
}

TEST(TimeSeriesSampler, CsvValuesKeepEveryDigit) {
  // A full leaf-spine port (3,072,000 B) less a byte and a peak RSS both
  // read back exactly, and 9 events per 10 us is a whole rate.
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(10));
  std::uint64_t count = 0;
  sampler.add_probe("port_bytes", [] { return 3071999.0; });
  sampler.add_probe("peak_rss_bytes", [] { return 4653056.0; });
  sampler.add_rate("rate", [&count] { return count; });
  for (int k = 0; k < 3; ++k) {
    simulator.schedule_at(sim::microseconds(10 * k + 5), [&count] { count += 9; });
  }
  const std::string path = std::string(::testing::TempDir()) + "/digits.csv";
  sampler.stream_to(path);
  sampler.keep_rows();
  sampler.start();
  simulator.run(sim::microseconds(30));

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header + samples at 0, 10, 20, 30 us
  EXPECT_EQ(lines[0], "time_us,port_bytes,peak_rss_bytes,rate");
  EXPECT_EQ(lines[1], "0,3071999,4653056,0");
  for (std::size_t row = 2; row < lines.size(); ++row) {
    std::vector<std::string> cells;
    std::size_t from = 0;
    for (std::size_t comma; (comma = lines[row].find(',', from)) != std::string::npos;
         from = comma + 1) {
      cells.push_back(lines[row].substr(from, comma - from));
    }
    cells.push_back(lines[row].substr(from));
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(std::stod(cells[1]), 3071999.0);
    EXPECT_EQ(std::stod(cells[2]), 4653056.0);
    EXPECT_EQ(cells[3], "900000") << lines[row];
    EXPECT_EQ(sampler.column(2)[row - 1], 900000.0);
  }
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, DestroyedSamplerTakesNoFurtherSamples) {
  sim::Simulator simulator;
  int probes = 0;
  {
    TimeSeriesSampler sampler(simulator, sim::microseconds(100));
    sampler.add_probe("count", [&probes] { return ++probes; });
    sampler.start();
    simulator.run(sim::microseconds(250));
    EXPECT_EQ(sampler.rows(), 3u);
    EXPECT_EQ(simulator.pending_events(), 1u);  // the tick at 300 us
  }
  EXPECT_EQ(probes, 3);
  EXPECT_EQ(simulator.cancelled_events(), 1u) << "its pending tick became a tombstone";
  simulator.run(sim::microseconds(1000));
  EXPECT_EQ(probes, 3) << "the probe is not called again";
  EXPECT_TRUE(simulator.empty());  // no orphaned self-re-arming event
  EXPECT_EQ(simulator.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Run manifest JSON

TEST(RunManifest, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  const std::uint64_t events = 41;
  const std::uint64_t marks = 7;
  reg.bind_counter("events.total", {}, &events, "events");
  reg.bind_counter("port.marks", {{"queue", "0"}, {"port", "a\"b"}}, &marks, "packets");
  Histogram& h = reg.histogram("sojourn_us", {1.0, 10.0}, {}, "us");
  h.observe(0.5);
  h.observe(100.0);

  RunManifest manifest("test_tool");
  manifest.set_seed(1234);
  manifest.set_config_value("scheme", "pmsb");
  manifest.set_config_value("weird", "tab\there");
  manifest.set_info("topology", "none");
  manifest.set_result("fct_us.mean", 12.5);
  manifest.set_sim_time_us(777.0);

  const std::string json = manifest.to_json(&reg);
  const JsonValue root = JsonParser(json).parse();

  EXPECT_EQ(root.at("schema").str, "pmsb.run_manifest/1");
  EXPECT_EQ(root.at("tool").str, "test_tool");
  EXPECT_EQ(root.at("git").str, std::string(build_git_describe()));
  EXPECT_DOUBLE_EQ(root.at("seed").number, 1234.0);
  EXPECT_GE(root.at("wall_clock_s").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("sim_time_us").number, 777.0);
  EXPECT_EQ(root.at("config").at("scheme").str, "pmsb");
  EXPECT_EQ(root.at("config").at("weird").str, "tab\there");
  EXPECT_EQ(root.at("info").at("topology").str, "none");
  EXPECT_DOUBLE_EQ(root.at("results").at("fct_us.mean").number, 12.5);

  const auto& metrics = root.at("metrics").array;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").str, "events.total");
  EXPECT_EQ(metrics[0].at("kind").str, "counter");
  EXPECT_EQ(metrics[0].at("unit").str, "events");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").number, 41.0);

  EXPECT_EQ(metrics[1].at("labels").at("queue").str, "0");
  EXPECT_EQ(metrics[1].at("labels").at("port").str, "a\"b");  // escaping survived
  EXPECT_DOUBLE_EQ(metrics[1].at("value").number, 7.0);

  EXPECT_EQ(metrics[2].at("kind").str, "histogram");
  EXPECT_DOUBLE_EQ(metrics[2].at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(metrics[2].at("sum").number, 100.5);
  const auto& buckets = metrics[2].at("buckets").array;
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number, 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number, 1.0);
  EXPECT_EQ(buckets[2].at("le").str, "inf");
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number, 1.0);
}

namespace {

/// Replaces the value of each host-dependent top-level manifest field (the
/// build, the clocks, the process's usage) with '#'.
std::string mask_host_fields(std::string json) {
  for (const char* key :
       {"git", "wall_clock_s", "peak_rss_bytes", "utime_s", "stime_s", "major_page_faults"}) {
    const std::string tag = std::string("\"") + key + "\":";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + tag.size();
    const std::size_t end = std::min(json.find_first_of(",}", begin), json.size());
    json = json.substr(0, begin) + "#" + json.substr(end);
  }
  return json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

// The exact bytes of a manifest, host fields masked: label order, `.`
// before `{` in the metric order, units only when set, the histogram's "inf"
// bucket, null for non-finite numbers, string escapes, and the spliced
// profile, through both to_json() and the streamed write().
TEST(RunManifest, GoldenDocumentBytes) {
  static const std::uint64_t events = 41;
  MetricsRegistry reg;
  reg.gauge_fn("h.sojourn_us.live", {}, [] { return 3.0; });
  reg.bind_counter("a.b", {}, &events, "events");
  reg.gauge_fn("a", {{"queue", "3"}, {"port", "p0"}}, [] { return 2.5; }, "bytes");
  reg.gauge_fn("a", {{"port", "p0"}}, [] { return 0.125; }, "bytes");
  reg.counter_fn("a", {}, [] { return std::uint64_t{7}; });
  reg.gauge_fn("g.nan", {}, [] { return std::nan(""); }, "ratio");
  reg.gauge_fn("g.inf", {{"port", "p1"}},
               [] { return -std::numeric_limits<double>::infinity(); });
  reg.counter_fn("esc", {{"port", "q\"b\\s\t\x01/"}}, [] { return std::uint64_t{9}; },
                 "packets");
  Histogram& h = reg.histogram("h.sojourn_us", {1.0, 10.0, 100.5}, {{"port", "p0"}}, "us");
  h.observe(0.5);
  h.observe(10.0);
  h.observe(1e6);
  RunManifest m("golden");
  m.set_seed(18446744073709551615ull);
  m.set_config({{"b", "2"}, {"a", "x=\"1\""}});
  m.set_info("topology", "none");
  m.set_result("r.inf", std::numeric_limits<double>::infinity());
  m.set_result("r.x", 0.1);
  m.set_result("r.tiny", -1e-300);
  m.set_sim_time_us(1234.5);
  m.set_profile_json("{\"schema\":\"pmsb.profile/1\",\"x\":[1,2]}");

  const std::string expected =
      R"({"schema":"pmsb.run_manifest/1","tool":"golden","git":#,)"
      R"("seed":18446744073709551615,"wall_clock_s":#,"sim_time_us":1234.5,)"
      R"("peak_rss_bytes":#,"utime_s":#,"stime_s":#,"major_page_faults":#,)"
      R"("profile":{"schema":"pmsb.profile/1","x":[1,2]},"config":{"a":"x=\"1\"",)"
      R"("b":"2"},"info":{"topology":"none"},"results":{"r.inf":null,)"
      R"("r.tiny":-1e-300,"r.x":0.10000000000000001},"metrics":[{"name":"a",)"
      R"("kind":"counter","labels":{},"value":7},)"
      R"({"name":"a.b","kind":"counter","unit":"events","labels":{},"value":41},)"
      R"({"name":"a","kind":"gauge","unit":"bytes","labels":{"port":"p0",)"
      R"("queue":"3"},"value":2.5},)"
      R"({"name":"a","kind":"gauge","unit":"bytes","labels":{"port":"p0"},)"
      R"("value":0.125},)"
      R"({"name":"esc","kind":"counter","unit":"packets",)"
      R"("labels":{"port":"q\"b\\s\t\u0001/"},"value":9},)"
      R"({"name":"g.inf","kind":"gauge","labels":{"port":"p1"},"value":null},)"
      R"({"name":"g.nan","kind":"gauge","unit":"ratio","labels":{},"value":null},)"
      R"({"name":"h.sojourn_us.live","kind":"gauge","labels":{},"value":3},)"
      R"({"name":"h.sojourn_us","kind":"histogram","unit":"us",)"
      R"("labels":{"port":"p0"},"count":3,"sum":1000010.5,"buckets":[{"le":1,)"
      R"("count":1},{"le":10,"count":1},{"le":100.5,"count":0},{"le":"inf",)"
      R"("count":1}]}]})";
  EXPECT_EQ(mask_host_fields(m.to_json(&reg)), expected);
  const std::string path = std::string(::testing::TempDir()) + "/golden_manifest.json";
  m.write(path, &reg);
  EXPECT_EQ(mask_host_fields(read_file(path)), expected + "\n");
  std::remove(path.c_str());
}

// The full registry of the paper's 4x4 leaf-spine (80 ports of 8 queues
// under PMSB, plus the kernel's and the transport's instruments): the
// streamed file and the in-memory document are the same bytes.
TEST(RunManifest, StreamedWriteEqualsToJsonOnLeafSpineRegistry) {
  experiments::LeafSpineConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  experiments::SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(85.2);
  params.weights = cfg.scheduler.weights;
  cfg.marking = experiments::make_scheme_marking(experiments::Scheme::kPmsb, params);
  experiments::LeafSpineScenario sc(cfg);
  sc.add_workload({{.src = 0, .dst = 20, .service = 3, .bytes = 30'000, .start = 0}});
  MetricsRegistry reg;
  bind_simulator_metrics(reg, sc.simulator());
  sc.bind_metrics(reg);
  EXPECT_GE(reg.size(), 80u * 48u);
  sc.run_until_complete(sim::milliseconds(5));

  RunManifest m("leafspine");
  m.set_result("x", 1.0);
  const std::string path = std::string(::testing::TempDir()) + "/leafspine_manifest.json";
  m.write(path, &reg);
  const std::string streamed = read_file(path);
  const std::string in_memory = m.to_json(&reg);
  EXPECT_GT(in_memory.size(), 4096u * 16u);  // many writer chunks
  EXPECT_EQ(mask_host_fields(streamed), mask_host_fields(in_memory) + "\n");
  const JsonValue root = JsonParser(in_memory).parse();
  EXPECT_EQ(root.at("metrics").array.size(), reg.size());
  std::remove(path.c_str());
}

TEST(RunManifest, NullRegistryMeansEmptyMetrics) {
  RunManifest manifest("t");
  const JsonValue root = JsonParser(manifest.to_json(nullptr)).parse();
  EXPECT_TRUE(root.at("metrics").array.empty());
}

// ---------------------------------------------------------------------------
// Simulator kernel binding + dumbbell regression

TEST(BindSimulatorMetrics, ExposesKernelCounters) {
  sim::Simulator simulator;
  MetricsRegistry reg;
  bind_simulator_metrics(reg, simulator);
  {
    sim::Timer doomed(simulator, [](void*) {}, nullptr);
    doomed.arm(10, simulator.reserve_seq());
    simulator.schedule_in(20, [] {});
  }  // destroyed while armed: a cancelled event
  simulator.run();
  EXPECT_DOUBLE_EQ(reg.value("sim.events_executed"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.events_cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.pending_events"), 0.0);
  EXPECT_GE(reg.value("sim.max_heap_depth"), 2.0);
}

TEST(DumbbellTelemetry, RegistryMatchesPortStats) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 3;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 2, .service = 1, .bytes = 0, .start = 0});

  MetricsRegistry reg;
  bind_simulator_metrics(reg, sc.simulator());
  sc.bind_metrics(reg);
  EXPECT_GE(reg.size(), 20u);

  sc.run(sim::milliseconds(10));

  const auto& stats = sc.bottleneck().stats();
  EXPECT_GT(stats.enqueued_packets, 0u);
  const Labels port{{"port", "bottleneck"}};
  auto with_queue = [&port](std::size_t q) {
    Labels l = port;
    l.emplace_back("queue", std::to_string(q));
    return l;
  };
  EXPECT_DOUBLE_EQ(reg.value("port.enqueued_packets", port),
                   static_cast<double>(stats.enqueued_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.dequeued_packets", port),
                   static_cast<double>(stats.dequeued_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.dropped_packets", port),
                   static_cast<double>(stats.dropped_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.marked_enqueue", port),
                   static_cast<double>(stats.marked_enqueue));
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_DOUBLE_EQ(reg.value("port.marks", with_queue(q)),
                     static_cast<double>(stats.marked_per_queue[q]));
    EXPECT_DOUBLE_EQ(reg.value("sched.served_bytes", with_queue(q)),
                     static_cast<double>(sc.served_bytes(q)));
  }
  // Drop reasons sum to the total drop counter.
  double reason_sum = 0.0;
  for (const char* reason : {"port_budget", "dynamic_threshold", "pool_exhausted"}) {
    Labels l = port;
    l.emplace_back("reason", reason);
    reason_sum += reg.value("port.drops", l);
  }
  EXPECT_DOUBLE_EQ(reason_sum, static_cast<double>(stats.dropped_packets));
  // PMSB's scheme instruments came along via Port::bind_metrics.
  EXPECT_GT(reg.value("ecn.threshold_evals", port), 0.0);
  // Transport instruments per flow.
  EXPECT_GT(reg.value("transport.segments_sent", {{"flow", "0"}}), 0.0);
  EXPECT_GT(reg.value("transport.cwnd_bytes", {{"flow", "0"}}), 0.0);
  // Kernel counters are live.
  EXPECT_GT(reg.value("sim.events_executed"), 0.0);
}

// ---------------------------------------------------------------------------
// The real JSON reader (telemetry/json_reader.hpp) — the one salvage and the
// manifest reader run on, as opposed to the minimal test-local parser above.

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  const auto v = pmsb::telemetry::json::parse(
      "{\"s\":\"a\\\"b\\\\c\\n\\u0041\",\"t\":true,\"f\":false,\"n\":null,"
      "\"num\":-1.5e2,\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").string, "a\"b\\c\nA");
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_FALSE(v.at("f").boolean);
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_DOUBLE_EQ(v.at("num").number, -150.0);
  ASSERT_EQ(v.at("arr").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").array[2].number, 3.0);
  EXPECT_EQ(v.at("obj").at("k").string, "v");
}

TEST(JsonReader, PreservesRawNumberForSixtyFourBitSeeds) {
  // 2^63 + 1 is not representable as a double; the raw token must survive
  // so seeds round-trip through strtoull.
  const auto v = pmsb::telemetry::json::parse("{\"seed\":9223372036854775809}");
  EXPECT_EQ(v.at("seed").raw_number, "9223372036854775809");
  EXPECT_EQ(std::stoull(v.at("seed").raw_number), 9223372036854775809ull);
}

TEST(JsonReader, FindIsNullSafeAtThrows) {
  const auto v = pmsb::telemetry::json::parse("{\"a\":1}");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), pmsb::telemetry::json::ParseError);
  // find on a non-object is a nullptr, not a crash.
  EXPECT_EQ(v.at("a").find("x"), nullptr);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  using pmsb::telemetry::json::parse;
  using pmsb::telemetry::json::ParseError;
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("[1,2,"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(parse("nul"), ParseError);
  EXPECT_THROW(parse("1.2.3"), ParseError);
  // Depth bomb: beyond the recursion cap must throw, not overflow the stack.
  EXPECT_THROW(parse(std::string(10000, '[')), ParseError);
}

TEST(JsonReader, DecodesSurrogatePairsAsUtf8) {
  // U+1F600 (😀) as a JSON surrogate pair must decode to 4-byte UTF-8, not
  // CESU-8 (two 3-byte sequences).
  const auto v = pmsb::telemetry::json::parse("{\"e\":\"\\ud83d\\ude00\"}");
  const std::string& s = v.at("e").string;
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xf0);
  EXPECT_EQ(static_cast<unsigned char>(s[1]), 0x9f);
  EXPECT_EQ(static_cast<unsigned char>(s[2]), 0x98);
  EXPECT_EQ(static_cast<unsigned char>(s[3]), 0x80);
  // Uppercase hex digits and BMP escapes around the pair still work.
  const auto w = pmsb::telemetry::json::parse("{\"e\":\"x\\uD83D\\uDE01y\"}");
  EXPECT_EQ(w.at("e").string.size(), 6u);  // 'x' + 4 bytes + 'y'
}

TEST(JsonReader, RejectsLoneAndMismatchedSurrogates) {
  using pmsb::telemetry::json::parse;
  using pmsb::telemetry::json::ParseError;
  // Lone high surrogate (end of string, or followed by a non-escape).
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\"}"), ParseError);
  EXPECT_THROW(parse("{\"e\":\"\\ud83dx\"}"), ParseError);
  // High surrogate followed by a non-surrogate escape.
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\\u0041\"}"), ParseError);
  // Lone low surrogate.
  EXPECT_THROW(parse("{\"e\":\"\\ude00\"}"), ParseError);
  // Truncated escapes still fail cleanly.
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\\u"), ParseError);
  EXPECT_THROW(parse("{\"e\":\"\\uZZZZ\"}"), ParseError);
}

// ---------------------------------------------------------------------------
// Process stats: the peak-RSS probe and its manifest plumbing.

TEST(ProcessStats, PeakRssIsPositiveOnLinuxAndMonotone) {
#ifdef __linux__
  const auto rss = pmsb::telemetry::peak_rss_bytes();
  EXPECT_GT(rss, 0u);
  // VmHWM is a high-water mark: a second read can only grow.
  EXPECT_GE(pmsb::telemetry::peak_rss_bytes(), rss);
#else
  EXPECT_EQ(pmsb::telemetry::peak_rss_bytes(), 0u);
#endif
}

TEST(RunManifest, CarriesPeakRssAndReaderParsesIt) {
  RunManifest m("rss-test");
  const std::string json = m.to_json(nullptr);
  const JsonValue root = JsonParser(json).parse();
  ASSERT_TRUE(root.has("peak_rss_bytes"));
  const json::Value data = json::parse(json);
  ASSERT_TRUE(data.at("peak_rss_bytes").is_number());
#ifdef __linux__
  EXPECT_GT(data.at("peak_rss_bytes").number, 0.0);
#endif
  EXPECT_EQ(data.at("peak_rss_bytes").number, root.at("peak_rss_bytes").number);
}

// ---------------------------------------------------------------------------
// Reading manifests back: RunManifest::write -> telemetry::json round trip.

TEST(ManifestReader, RoundTripsWhatRunManifestWrites) {
  RunManifest m("roundtrip-test");
  m.set_seed(9223372036854775809ull);  // > 2^53: exercises the raw path
  m.set_config({{"topology", "leafspine"}, {"load", "0.5"}});
  m.set_info("scheme", "pmsb");
  m.set_result("fct_us.mean", 123.456789012345678);
  m.set_result("throughput", 9.87e9);
  m.set_sim_time_us(2500.25);
  const std::string path = std::string(::testing::TempDir()) + "/manifest_rt.json";
  m.write(path, nullptr);

  const json::Value data = json::parse(read_file(path));
  EXPECT_EQ(data.at("schema").string, "pmsb.run_manifest/1");
  EXPECT_EQ(data.at("tool").string, "roundtrip-test");
  EXPECT_EQ(data.at("seed").raw_number, "9223372036854775809");
  EXPECT_EQ(data.at("config").at("topology").string, "leafspine");
  EXPECT_EQ(data.at("config").at("load").string, "0.5");
  EXPECT_EQ(data.at("info").at("scheme").string, "pmsb");
  // %.17g output parses back bit-exact.
  EXPECT_EQ(data.at("results").at("fct_us.mean").number, 123.456789012345678);
  EXPECT_EQ(data.at("results").at("throughput").number, 9.87e9);
  EXPECT_EQ(data.at("sim_time_us").number, 2500.25);
  EXPECT_GE(data.at("wall_clock_s").number, 0.0);
}

TEST(ManifestReader, RejectsMissingFileAndBadShapes) {
  EXPECT_FALSE(std::ifstream("/nonexistent/manifest.json").is_open());
  // A truncated manifest (a killed writer) does not parse.
  RunManifest m("truncated");
  const std::string whole = m.to_json(nullptr);
  EXPECT_THROW((void)json::parse(whole.substr(0, whole.size() / 2)), json::ParseError);
  // Top level must be an object with a string schema.
  EXPECT_THROW((void)json::parse("[1,2,3]").at("schema"), json::ParseError);
  EXPECT_FALSE(json::parse("{\"schema\":42}").at("schema").is_string());
  EXPECT_THROW((void)json::parse("{}").at("schema"), json::ParseError);
  // A non-numeric result reads as what it is.
  EXPECT_FALSE(json::parse("{\"schema\":\"pmsb.run_manifest/1\",\"results\":{\"x\":\"nope\"}}")
                   .at("results")
                   .at("x")
                   .is_number());
  // Missing sections read as absent — a minimal manifest parses.
  const json::Value minimal = json::parse("{\"schema\":\"pmsb.run_manifest/1\"}");
  EXPECT_EQ(minimal.at("schema").string, "pmsb.run_manifest/1");
  EXPECT_EQ(minimal.find("config"), nullptr);
  EXPECT_EQ(minimal.find("results"), nullptr);
}

TEST(TimeSeriesSampler, StreamToWritesRowsIncrementally) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  double v = 1.0;
  sampler.add_probe("v", [&v] { return v++; });
  const std::string path = std::string(::testing::TempDir()) + "/stream.csv";
  sampler.stream_to(path);
  EXPECT_TRUE(sampler.streaming());
  sampler.start();
  simulator.run(sim::microseconds(250));

  // Rows land on disk as they are sampled — no stop() needed.
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + samples at 0, 100, 200 us
  EXPECT_EQ(lines[0], "time_us,v");
  EXPECT_EQ(lines[1], "0,1");
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, StreamingKeepsRowsOnlyWhenAsked) {
  // A streamed series lives in its file: the sampler counts its rows but
  // holds none, unless a reader of the columns asks it to keep them.
  for (const bool keep : {false, true}) {
    sim::Simulator simulator;
    TimeSeriesSampler sampler(simulator, sim::microseconds(100));
    double v = 1.0;
    sampler.add_probe("v", [&v] { return v++; });
    const std::string path = std::string(::testing::TempDir()) + "/kept.csv";
    sampler.stream_to(path);
    if (keep) sampler.keep_rows();
    sampler.start();
    simulator.run(sim::microseconds(250));
    EXPECT_EQ(sampler.rows(), 3u);
    if (keep) {
      EXPECT_EQ(sampler.times_us(), (std::vector<double>{0.0, 100.0, 200.0}));
      EXPECT_EQ(sampler.column(0), (std::vector<double>{1.0, 2.0, 3.0}));
      EXPECT_THROW(sampler.keep_rows(), std::logic_error);
    } else {
      EXPECT_TRUE(sampler.times_us().empty());
      EXPECT_TRUE(sampler.column(0).empty());
    }
    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(text, "time_us,v\n0,1\n100,2\n200,3\n") << keep;
    std::remove(path.c_str());
  }
}

TEST(TimeSeriesSampler, StreamedRowsSurviveAnAbortedRun) {
  // The watchdog story: a trip unwinding out of the event loop must not
  // take the sampled series with it.
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  sampler.add_probe("v", [] { return 42.0; });
  const std::string path = std::string(::testing::TempDir()) + "/abort.csv";
  sampler.stream_to(path);
  sampler.start();
  simulator.schedule_at(sim::microseconds(250),
                        [] { throw std::runtime_error("watchdog trip"); });
  EXPECT_THROW(simulator.run(sim::milliseconds(1)), std::runtime_error);

  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4u);  // header + samples at 0, 100, 200 us
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, StreamToAfterStartThrows) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  sampler.start();
  EXPECT_THROW(sampler.stream_to("/tmp/nope.csv"), std::logic_error);
}

TEST(JsonReader, ToJsonRoundTripsSortedDocumentsByteStably) {
  // Sorted keys, raw number tokens, escapes: the properties pmsb.profile/1
  // splicing depends on.
  const std::string doc =
      "{\"a\":[1,2.5,9223372036854775809],\"b\":{\"nested\":true,"
      "\"z\":null},\"s\":\"line\\nbreak \\\"q\\\" \\u0001\"}";
  const auto v = pmsb::telemetry::json::parse(doc);
  EXPECT_EQ(pmsb::telemetry::json::to_json(v), doc);
}

// ---------------------------------------------------------------------------
// format_double against "%.17g": the one number format of the manifests, the
// sweep signatures, the sweep CSV and the sampler CSV.

namespace {

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

TEST(FormatDouble, EdgeCasesMatchPrintf) {
  const double two53 = 9007199254740992.0;
  const std::vector<double> values = {
      0.0,          -0.0,
      1.0,          -1.0,
      two53 - 1,    -(two53 - 1),
      two53,        -two53,
      two53 + 2,    -(two53 + 2),
      1e15,         1e16,
      1e17,         1e18,
      1e19,         1e20,
      1e21,         1e22,
      0.1,          1.0 / 3.0,
      0.5,          -2.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) EXPECT_EQ(format_double(v), printf_17g(v)) << printf_17g(v);
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(two53 - 1), "9007199254740991");
}

TEST(FormatDouble, RandomDoublesMatchPrintf) {
  std::mt19937_64 bits(20260);
  std::size_t mismatches = 0;
  const auto check = [&mismatches](double v) {
    if (format_double(v) != printf_17g(v) && ++mismatches <= 10) {
      ADD_FAILURE() << printf_17g(v) << " printed as " << format_double(v);
    }
  };
  for (int i = 0; i < 100'000; ++i) {
    // Integral values of every magnitude up to 2^62, both signs.
    const int width = static_cast<int>(bits() % 63);
    const auto magnitude = static_cast<std::int64_t>(bits() >> (64 - width - 1) >> 1);
    check(static_cast<double>(i % 2 == 0 ? magnitude : -magnitude));
    // Integers plus a fraction, and counts over a period (a sampler rate).
    check(static_cast<double>(magnitude % 100'000'000) +
          static_cast<double>(bits() % 1000) / 1000.0);
    check(static_cast<double>(bits() % 1'000'000) * 1e9 /
          static_cast<double>(1 + bits() % 100'000));
    // Any bit pattern: subnormals, huge values, infinities and NaNs included.
    const std::uint64_t pattern = bits();
    double any;
    std::memcpy(&any, &pattern, sizeof(any));
    check(any);
  }
  EXPECT_EQ(mismatches, 0u);
}
