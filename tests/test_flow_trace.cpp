// Tests for the pmsb.flow_trace/1 NDJSON reader/writer: round trips and the
// strict reader's rejection of malformed traces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workload/flow_trace.hpp"

using namespace pmsb;
using namespace pmsb::workload;

namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

FlowSpec make_spec(net::HostId src, net::HostId dst, std::uint64_t bytes,
                   sim::TimeNs start) {
  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = bytes;
  spec.start = start;
  return spec;
}

}  // namespace

TEST(FlowTrace, RoundTripsAllFields) {
  std::vector<FlowSpec> flows;
  FlowSpec plain = make_spec(0, 1, 100'000, 5'000);
  plain.service = 3;
  plain.pattern = stats::PatternTag::kPoisson;
  flows.push_back(plain);
  FlowSpec grouped = make_spec(7, 2, 1'000'000, 12'345'678);
  grouped.service = 1;
  grouped.pattern = stats::PatternTag::kCoflow;
  grouped.group = 4;
  grouped.stage = 2;
  flows.push_back(grouped);
  FlowSpec deadlined = make_spec(5, 6, 20'000, 99);
  deadlined.pattern = stats::PatternTag::kRpc;
  deadlined.deadline = sim::milliseconds(3);
  deadlined.group = 0;
  flows.push_back(deadlined);

  const std::string path = tmp_path("trace_roundtrip.ndjson");
  write_flow_trace(path, 8, flows);
  const FlowTrace trace = read_flow_trace(path);
  ASSERT_EQ(trace.num_hosts, 8u);
  ASSERT_EQ(trace.flows.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(trace.flows[i].src, flows[i].src) << i;
    EXPECT_EQ(trace.flows[i].dst, flows[i].dst) << i;
    EXPECT_EQ(trace.flows[i].service, flows[i].service) << i;
    EXPECT_EQ(trace.flows[i].bytes, flows[i].bytes) << i;
    EXPECT_EQ(trace.flows[i].start, flows[i].start) << i;
    EXPECT_EQ(trace.flows[i].deadline, flows[i].deadline) << i;
    EXPECT_EQ(trace.flows[i].pattern, flows[i].pattern) << i;
    EXPECT_EQ(trace.flows[i].group, flows[i].group) << i;
    EXPECT_EQ(trace.flows[i].stage, flows[i].stage) << i;
  }
}

TEST(FlowTrace, MinimalFlowLineDefaultsToTraceTag) {
  const std::string path = tmp_path("trace_minimal.ndjson");
  write_text(path,
             "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
             "{\"src\":0,\"dst\":3,\"size_bytes\":500,\"start_time_ns\":10}\n");
  const FlowTrace trace = read_flow_trace(path);
  ASSERT_EQ(trace.flows.size(), 1u);
  EXPECT_EQ(trace.flows[0].pattern, stats::PatternTag::kTrace);
  EXPECT_EQ(trace.flows[0].service, 0);
  EXPECT_EQ(trace.flows[0].deadline, 0);
  EXPECT_EQ(trace.flows[0].group, stats::kNoGroupId);
}

TEST(FlowTrace, RejectsMalformedTraces) {
  struct Case {
    const char* name;
    const char* text;
    const char* why;  // substring expected in the error
  };
  const Case cases[] = {
      {"bad_schema",
       "{\"flows\":0,\"hosts\":4,\"schema\":\"pmsb.flow_trace/9\"}\n",
       "expected schema"},
      {"missing_src",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0}\n",
       "missing field 'src'"},
      {"unknown_key",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0,\"color\":1}\n",
       "unknown field 'color'"},
      {"src_eq_dst",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":1,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0}\n",
       "src == dst"},
      {"dst_out_of_range",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":4,\"size_bytes\":5,\"start_time_ns\":0}\n",
       "dst out of range"},
      {"zero_bytes",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":0,\"start_time_ns\":0}\n",
       "size_bytes must be > 0"},
      {"negative_number",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":-5,\"start_time_ns\":0}\n",
       "non-negative integer"},
      {"count_mismatch",
       "{\"flows\":2,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0}\n",
       "declares 2 flows"},
      {"stage_without_group",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0,\"stage\":1}\n",
       "stage without group"},
      {"bad_pattern",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0,"
       "\"pattern\":\"mystery\"}\n",
       "unknown pattern"},
      // The reader accepts only poisson, trace, coflow and rpc.
      {"retired_pattern",
       "{\"flows\":1,\"hosts\":4,\"schema\":\"pmsb.flow_trace/1\"}\n"
       "{\"src\":0,\"dst\":1,\"size_bytes\":5,\"start_time_ns\":0,"
       "\"pattern\":\"incast\"}\n",
       "unknown pattern"},
  };
  for (const Case& c : cases) {
    const std::string path = tmp_path((std::string("trace_") + c.name + ".ndjson").c_str());
    write_text(path, c.text);
    try {
      (void)read_flow_trace(path);
      FAIL() << c.name << ": expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }
}

TEST(FlowTrace, MissingFileThrows) {
  EXPECT_THROW(read_flow_trace(tmp_path("no_such_trace.ndjson")),
               std::runtime_error);
}
