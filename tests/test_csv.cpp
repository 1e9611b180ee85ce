// Tests for CSV export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/simulator.hpp"
#include "stats/csv.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::stats;

namespace {
std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}
}  // namespace

TEST(Csv, WritesRowsAndEscapes) {
  const auto path = temp_path("basic.csv");
  {
    CsvWriter csv(path);
    csv.row({"a", "b"});
    csv.row({"plain", "has,comma"});
    csv.row({"has\"quote", "multi\nline"});
  }
  const auto text = read_all(path);
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(text.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(Csv, FctExportRoundTrips) {
  FctCollector fct;
  fct.record({1, 50'000, sim::microseconds(10), sim::microseconds(100), 3});
  fct.record({2, 20'000'000, 0, sim::milliseconds(15), 5});
  const auto path = temp_path("fct.csv");
  write_fct_csv(path, fct);
  const auto text = read_all(path);
  EXPECT_NE(text.find("flow,bytes,bin,start_us,fct_us,service"), std::string::npos);
  EXPECT_NE(text.find("1,50000,small"), std::string::npos);
  EXPECT_NE(text.find("2,20000000,large"), std::string::npos);
  // Two data rows + header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Csv, TraceExport) {
  sim::Simulator sim;
  std::uint64_t occ = 0;
  sim.schedule_at(sim::microseconds(25), [&] { occ = 4'500; });
  telemetry::TimeSeriesSampler sampler(sim, sim::microseconds(10));
  sampler.add_probe("bytes", [&] { return static_cast<double>(occ); });
  const auto path = temp_path("trace.csv");
  sampler.stream_to(path);
  sampler.start();
  sim.run(sim::microseconds(100));
  const auto text = read_all(path);
  EXPECT_NE(text.find("time_us,bytes"), std::string::npos);
  EXPECT_NE(text.find("4500"), std::string::npos);
}

TEST(Csv, SamplerTimeColumnRoundTripsToTheNanosecond) {
  // Rows at 1000.003 us + k * 1.001 us need seven or more significant
  // digits; the streamed CSV must keep them.
  sim::Simulator sim;
  telemetry::TimeSeriesSampler sampler(sim, 1'001);
  sampler.add_probe("zero", [] { return 0.0; });
  const auto path = temp_path("exact_stream.csv");
  sampler.stream_to(path);
  sim.schedule_at(1'000'003, [&] { sampler.start(); });
  sim.run(1'000'003 + 20 * 1'001);
  std::istringstream in(read_all(path));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time_us,zero");
  sim::TimeNs expected = 1'000'003;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    const double t_us = std::stod(line.substr(0, line.find(',')));
    EXPECT_EQ(std::llround(t_us * 1000.0), expected) << line;
    expected += 1'001;
    ++rows;
  }
  EXPECT_EQ(rows, 21u);
}
