#include "regress/baseline.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json_reader.hpp"
#include "telemetry/run_report.hpp"

namespace pmsb::regress {

namespace {

using telemetry::JsonWriter;
using telemetry::json::Value;

std::uint64_t as_u64(const Value& v, const std::string& what) {
  if (!v.is_number()) throw std::runtime_error("baseline: " + what + " not a number");
  // raw_number keeps integers above 2^53 exact.
  return std::strtoull(v.raw_number.c_str(), nullptr, 10);
}

std::string as_str(const Value& v, const std::string& what) {
  if (!v.is_string()) throw std::runtime_error("baseline: " + what + " not a string");
  return v.string;
}

}  // namespace

const CellBaseline* Baseline::find(const std::string& name) const {
  for (const CellBaseline& c : cells) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string baseline_json(const Baseline& baseline) {
  std::vector<const CellBaseline*> cells;
  cells.reserve(baseline.cells.size());
  for (const CellBaseline& c : baseline.cells) cells.push_back(&c);
  std::sort(cells.begin(), cells.end(),
            [](const CellBaseline* a, const CellBaseline* b) { return a->name < b->name; });

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmsb.baseline/1");
  w.key("git").value(baseline.git);
  w.key("cells").begin_array();
  for (const CellBaseline* c : cells) {
    w.begin_object();
    w.key("name").value(c->name);
    w.key("config").begin_object();
    for (const auto& [k, v] : c->config) w.key(k).value(v);
    w.end_object();
    w.key("digest").value(c->digest);
    w.key("event_count").value(c->event_count);
    w.key("sub_digests").begin_object();
    for (const auto& [k, v] : c->sub_digests) w.key(k).value(v);
    w.end_object();
    w.key("checkpoint_interval").value(c->checkpoint_interval);
    w.key("checkpoints").begin_array();
    for (const auto& [index, hex] : c->checkpoints) {
      w.begin_object();
      w.key("i").value(index);
      w.key("h").value(hex);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_baseline(const std::string& path, const Baseline& baseline) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_baseline: cannot open " + path);
  out << baseline_json(baseline) << '\n';
  if (!out.good()) throw std::runtime_error("write_baseline: write failed: " + path);
}

Baseline parse_baseline(const std::string& text, const std::string& origin) {
  Value doc;
  try {
    doc = telemetry::json::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("baseline " + origin + ": " + e.what());
  }
  const std::string schema = as_str(doc.at("schema"), "schema");
  if (schema != "pmsb.baseline/1") {
    throw std::runtime_error("baseline " + origin + ": unexpected schema '" + schema +
                             "'");
  }
  Baseline b;
  b.git = as_str(doc.at("git"), "git");
  const Value& cells = doc.at("cells");
  if (!cells.is_array()) throw std::runtime_error("baseline " + origin + ": cells");
  for (const Value& cv : cells.array) {
    CellBaseline c;
    c.name = as_str(cv.at("name"), "cell name");
    for (const auto& [k, v] : cv.at("config").object) {
      c.config[k] = as_str(v, "config." + k);
    }
    c.digest = as_str(cv.at("digest"), "digest");
    c.event_count = as_u64(cv.at("event_count"), "event_count");
    for (const auto& [k, v] : cv.at("sub_digests").object) {
      c.sub_digests[k] = as_str(v, "sub_digests." + k);
    }
    c.checkpoint_interval = as_u64(cv.at("checkpoint_interval"), "checkpoint_interval");
    for (const Value& ck : cv.at("checkpoints").array) {
      c.checkpoints.emplace_back(as_u64(ck.at("i"), "checkpoint index"),
                                 as_str(ck.at("h"), "checkpoint hash"));
    }
    b.cells.push_back(std::move(c));
  }
  return b;
}

Baseline read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_baseline: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_baseline(ss.str(), path);
}

}  // namespace pmsb::regress
