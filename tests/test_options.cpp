// Tests for the key=value Options parser used by the pmsbsim tool, and for
// the checked reads of its unsigned keys.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/options.hpp"
#include "sweep/cell_supervisor.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::from_args(static_cast<int>(argv.size()), argv.data());
}

/// The message of the std::invalid_argument that `read` throws, or "" when
/// it throws none.
std::string rejection(const std::function<void()>& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string write_temp_config(const std::string& body) {
  const std::string path = std::string(::testing::TempDir()) + "/opts.conf";
  std::ofstream out(path);
  out << body;
  return path;
}
}  // namespace

TEST(Options, ParsesKeyValues) {
  const auto o = parse({"scheme=pmsb", "load=0.7", "flows=42"});
  EXPECT_EQ(o.get("scheme"), "pmsb");
  EXPECT_DOUBLE_EQ(o.get_double("load", 0), 0.7);
  EXPECT_EQ(o.get_int("flows", 0), 42);
}

TEST(Options, FallbacksWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get("x", "def"), "def");
  EXPECT_EQ(o.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("x", 1.5), 1.5);
  EXPECT_TRUE(o.get_bool("x", true));
  EXPECT_FALSE(o.has("x"));
}

TEST(Options, LaterTokensOverride) {
  const auto o = parse({"a=1", "a=2"});
  EXPECT_EQ(o.get_int("a", 0), 2);
}

TEST(Options, BooleanForms) {
  const auto o = parse({"t1=true", "t2=YES", "t3=1", "f1=off", "f2=0"});
  EXPECT_TRUE(o.get_bool("t1", false));
  EXPECT_TRUE(o.get_bool("t2", false));
  EXPECT_TRUE(o.get_bool("t3", false));
  EXPECT_FALSE(o.get_bool("f1", true));
  EXPECT_FALSE(o.get_bool("f2", true));
  EXPECT_THROW((void)parse({"b=maybe"}).get_bool("b", false), std::invalid_argument);
}

TEST(Options, DoubleList) {
  const auto o = parse({"weights=1,2.5, 4"});
  const auto v = o.get_double_list("weights");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[2], 4.0);
  EXPECT_TRUE(o.get_double_list("missing").empty());
  // A malformed entry fails instead of truncating to its numeric prefix.
  EXPECT_THROW(parse({"weights=1,2x"}).get_double_list("weights"), std::invalid_argument);
  EXPECT_THROW(parse({"flows_per_queue=1,1x"}).get_double_list("flows_per_queue"),
               std::invalid_argument);
  EXPECT_THROW(parse({"weights=1,abc"}).get_double_list("weights"), std::invalid_argument);
}

TEST(Options, MalformedTokensThrow) {
  EXPECT_THROW(parse({"novalue"}), std::invalid_argument);
  EXPECT_THROW(parse({"=x"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"n=12x"}).get_int("n", 0), std::invalid_argument);
  // Every numeric error names its key: not a number, trailing junk, or out
  // of range.
  const auto o = parse({"flows=abc", "duration_ms=xyz", "load=0.5x",
                        "seed=99999999999999999999", "rate=1e999", "weights=1,2x"});
  const auto expect_key_named = [](const std::string& key,
                                   const std::function<void()>& read) {
    try {
      read();
      ADD_FAILURE() << key << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    }
  };
  expect_key_named("flows", [&] { (void)o.get_int("flows", 0); });
  expect_key_named("duration_ms", [&] { (void)o.get_int("duration_ms", 0); });
  expect_key_named("load", [&] { (void)o.get_double("load", 0); });
  expect_key_named("seed", [&] { (void)o.get_int("seed", 1); });
  expect_key_named("rate", [&] { (void)o.get_double("rate", 0); });
  expect_key_named("weights", [&] { (void)o.get_double_list("weights"); });
}

TEST(Options, ConfigFileWithCommentsAndOverride) {
  const auto path = write_temp_config(
      "# experiment\n"
      "scheme = tcn\n"
      "load=0.9   # high load\n"
      "\n"
      "flows=100\n");
  std::vector<const char*> argv = {"prog", "--config", path.c_str(), "scheme=pmsb"};
  const auto o = Options::from_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.get("scheme"), "pmsb");  // CLI wins
  EXPECT_DOUBLE_EQ(o.get_double("load", 0), 0.9);
  EXPECT_EQ(o.get_int("flows", 0), 100);
}

TEST(Options, MissingConfigFileThrows) {
  std::vector<const char*> argv = {"prog", "--config", "/no/such/file"};
  EXPECT_THROW(Options::from_args(3, argv.data()), std::invalid_argument);
  std::vector<const char*> argv2 = {"prog", "--config"};
  EXPECT_THROW(Options::from_args(2, argv2.data()), std::invalid_argument);
}

TEST(Options, ValidateKeysAcceptsKnownKeys) {
  const auto o = parse({"scheme=pmsb", "load=0.9"});
  EXPECT_NO_THROW(o.validate_keys({"scheme", "load", "flows"}));
}

TEST(Options, ValidateKeysSuggestsNearMiss) {
  const auto o = parse({"trace_flow=1"});
  try {
    o.validate_keys({"trace_flows", "profile"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option 'trace_flow'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'trace_flows'?"), std::string::npos) << msg;
  }
}

TEST(Options, ValidateKeysGivesLongKeysALongerBudget) {
  // Four edits from `stability_window`: past the flat budget of 3, inside a
  // quarter of the unknown key's 20 characters.
  const auto o = parse({"stability_max_window=64"});
  try {
    o.validate_keys({"stability", "stability_window"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did you mean 'stability_window'?"), std::string::npos) << msg;
  }
}

TEST(Options, ValidateKeysOmitsSuggestionWhenNothingIsClose) {
  const auto o = parse({"zzzzqqqq=1"});
  try {
    o.validate_keys({"scheme", "load"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option 'zzzzqqqq'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(Options, ClosestKeyRanksByEditDistance) {
  EXPECT_EQ(Options::closest_key("scheme", {"scheme", "schema"}), "scheme");
  EXPECT_EQ(Options::closest_key("sceme", {"scheme", "load"}), "scheme");
  EXPECT_EQ(Options::closest_key("xyzzy", {"scheme", "load"}), "");
}

TEST(Options, UnsignedGetterRejectsValuesBelowItsMinimum) {
  const auto o = parse({"flows=0", "top=7", "queues=-1", "link_gbps=0", "jobs=-1",
                        "cell_retries=-1", "seed=abc", "stages=65537",
                        "flow=4294967297", "trace_flows=1, 2,,3",
                        "cell_mem_mb=17592186044416", "buffer_bytes=9223372036854775808"});
  EXPECT_EQ(o.get_uint("absent", 9, 10), 9u);  // a fallback is not checked
  EXPECT_EQ(o.get_uint("flows", 5), 0u);
  EXPECT_EQ(o.get_uint("top", 10, 7), 7u);     // the minimum itself is accepted
  EXPECT_EQ(o.get_uint("top", 10, 0, 7), 7u);  // and so is the maximum
  EXPECT_EQ(o.get_uint_list("trace_flows", 1, 3), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(o.get_uint_list("absent", 1, 3).empty());
  // Above the maximum (what the value's destination holds): rejected, naming
  // the key and value, before a narrowing cast could wrap it.
  EXPECT_EQ(rejection([&] { (void)o.get_uint("stages", 1, 0, 65535); }),
            "Options: stages=65537 is above its maximum, 65535");
  EXPECT_EQ(rejection([&] { (void)o.get_uint("flow", 0, 0, 4294967295u); }),
            "Options: flow=4294967297 is above its maximum, 4294967295");
  // cell_mem_mb= as a byte count would wrap RLIMIT_AS; like jobs=, it is
  // tested only here, never by starting an isolated sweep.
  EXPECT_EQ(rejection([&] { (void)o.get_uint("cell_mem_mb", 0, 0, sweep::kMaxCellMemMb); }),
            "Options: cell_mem_mb=17592186044416 is above its maximum, 17592186044415");
  EXPECT_EQ(rejection([&] { (void)o.get_uint_list("trace_flows", 1, 2); }),
            "Options: trace_flows=3 is above its maximum, 2");
  EXPECT_EQ(rejection([&] { (void)o.get_uint_list("trace_flows", 2, 3); }),
            "Options: trace_flows=1 is below its minimum, 2");
  // Past int64 the value is out of range for every unsigned key.
  const std::string huge = rejection([&] { (void)o.get_uint("buffer_bytes", 0); });
  EXPECT_NE(huge.find("'buffer_bytes' is out of range"), std::string::npos) << huge;
  // Below the minimum (0 unless given): rejected, naming the key and value.
  // jobs= and cell_retries= are tested only here: a run with jobs=-1 would
  // start one worker thread per cell.
  EXPECT_EQ(rejection([&] { (void)o.get_uint("queues", 1, 1); }),
            "Options: queues=-1 is below its minimum, 1");
  EXPECT_EQ(rejection([&] { (void)o.get_uint("link_gbps", 10, 1); }),
            "Options: link_gbps=0 is below its minimum, 1");
  EXPECT_EQ(rejection([&] { (void)o.get_uint("jobs", 1); }),
            "Options: jobs=-1 is below its minimum, 0");
  EXPECT_EQ(rejection([&] { (void)o.get_uint("cell_retries", 0); }),
            "Options: cell_retries=-1 is below its minimum, 0");
  // A value that is no integer fails as get_int fails.
  const std::string not_integer = rejection([&] { (void)o.get_uint("seed", 1); });
  EXPECT_NE(not_integer.find("'seed' is not an integer"), std::string::npos) << not_integer;
}

TEST(Options, NegativeCountKeysAreRejectedNamingTheKey) {
  // Every unsigned key a run reads, below its minimum or above what its
  // destination holds (the last token), on a base that reads it: the run
  // throws before it simulates, so pmsbsim exits 2, and the message names
  // the key and its value.
  for (const char* line : {
           "topology=dumbbell queues=-1",
           "topology=dumbbell queues=0",
           "topology=dumbbell buffer_bytes=-1",
           "topology=dumbbell link_gbps=-10",
           "topology=dumbbell link_gbps=0",
           "topology=dumbbell max_cwnd_bytes=-1",
           "topology=dumbbell watchdog_events=-1",
           "topology=dumbbell stability=1 stability_window=-3",
           "topology=dumbbell seed=-1",
           "topology=leafspine seed=-1",
           "topology=leafspine flows=-1",
           "topology=leafspine pattern=coflow coflows=-1",
           "topology=leafspine pattern=coflow mappers=-1",
           "topology=leafspine pattern=coflow reducers=-1",
           "topology=leafspine pattern=coflow stages=-1",
           "topology=leafspine pattern=rpc rpcs=-1",
           "topology=leafspine pattern=rpc fanout=-1",
           "topology=leafspine pattern=rpc rpc_bytes=-5",
           "topology=leafspine pattern=rpc rpc_bytes=0",
           // Durations: 0 stays valid, negatives and what sim::TimeNs
           // cannot hold once converted do not.
           "topology=dumbbell duration_ms=-5",
           "topology=dumbbell duration_ms=9223372036845",
           "topology=leafspine flows=20 max_sim_s=-1",
           "topology=leafspine flows=20 max_sim_s=9223372037",
           "topology=dumbbell duration_ms=20 watchdog_horizon_ms=-1",
           "topology=dumbbell watchdog_horizon_ms=9223372036855",
           // Past the destination type, where a cast would wrap.
           "topology=leafspine pattern=coflow stages=65537",
           "topology=leafspine flows=10 queues=256",
           "topology=leafspine flows=10 queues=257",
           "topology=dumbbell link_gbps=18446744074",
           "topology=dumbbell trace_flows=4294967297",
           "topology=dumbbell trace_flows=-1",
           "topology=dumbbell trace_flows=0",
           "topology=dumbbell trace_flows=abc",
       }) {
    sweep::SweepPoint pt;
    std::istringstream tokens(line);
    std::string token;
    std::string rejected;
    while (tokens >> token) {
      const auto eq = token.find('=');
      pt.opts.set(token.substr(0, eq), token.substr(eq + 1));
      rejected = token;
    }
    const std::string what = rejection([&] { (void)sweep::run_scenario(pt, true); });
    const auto eq = rejected.find('=');
    const bool named =
        what.find(rejected + " is below its minimum") != std::string::npos ||
        what.find(rejected + " is above its maximum") != std::string::npos ||
        what.find("'" + rejected.substr(0, eq) + "' is not an integer: '" +
                  rejected.substr(eq + 1) + "'") != std::string::npos;
    EXPECT_TRUE(named) << line << ": " << what;
  }
}

TEST(Options, SpanKeysAreRejectedWithoutTheirPartner) {
  // trace_flows= captures what spans_ndjson= writes: either alone would
  // capture nothing or hold spans nobody writes, so the run throws before
  // it simulates (pmsbsim exits 2), naming both keys.
  for (const auto& [key, value] : {std::pair<const char*, const char*>{"trace_flows", "1"},
                                   {"trace_flows", "all"},
                                   {"spans_ndjson", "unwritten.ndjson"}}) {
    sweep::SweepPoint pt;
    pt.opts.set("topology", "dumbbell");
    pt.opts.set("duration_ms", "1");
    pt.opts.set(key, value);
    const std::string what = rejection([&] { (void)sweep::run_scenario(pt, true); });
    EXPECT_NE(what.find("trace_flows="), std::string::npos) << key << ": " << what;
    EXPECT_NE(what.find("spans_ndjson="), std::string::npos) << key << ": " << what;
  }
}
