// Tests for the key=value Options parser used by the pmsbsim tool.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>

#include "experiments/options.hpp"

using namespace pmsb::experiments;

namespace {
Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::from_args(static_cast<int>(argv.size()), argv.data());
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
