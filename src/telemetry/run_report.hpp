// Machine-readable run manifest: one JSON document per simulation run.
//
// A RunManifest captures everything needed to compare two runs of the same
// experiment — the full config echo, the seed, the build's git describe
// string, wall-clock and simulated duration, scalar results (FCT summaries),
// and a dump of every instrument in a MetricsRegistry. pmsbsim writes one
// when `metrics_json=` is given; benches write them under
// PMSB_BENCH_MANIFEST_DIR so the BENCH_*.json trajectory has a stable
// schema to track.
//
// Schema (`pmsb.run_manifest/1`):
//   {
//     "schema": "pmsb.run_manifest/1",
//     "tool": "...", "git": "...", "seed": N,
//     "wall_clock_s": W, "sim_time_us": T, "peak_rss_bytes": R,
//     "utime_s": U, "stime_s": S, "major_page_faults": F,
//     "profile": { ... pmsb.profile/1, only when set_profile_json() ... },
//     "config":  { "key": "value", ... },
//     "info":    { "key": "value", ... },
//     "results": { "key": number, ... },
//     "metrics": [
//       {"name": "...", "kind": "counter|gauge", "unit": "...",
//        "labels": {...}, "value": number},
//       {"name": "...", "kind": "histogram", "unit": "...", "labels": {...},
//        "count": N, "sum": S, "buckets": [{"le": bound|"inf", "count": N}]}
//     ]
//   }
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace pmsb::telemetry {

/// The one text form of a double in the repo's exports: "%.17g", which
/// parses back to the identical double. JsonWriter numbers, the CSV
/// columns and sweep signatures all use it. An integral value below 2^53
/// in magnitude (except -0.0) is printed through an integer path, with
/// the same text.
[[nodiscard]] std::string format_double(double v);

/// Minimal streaming JSON writer (objects, arrays, strings, numbers) with
/// correct escaping: the repo's one JSON string escaper. Non-finite numbers
/// are emitted as null. A default-constructed writer builds the document in
/// str(); one constructed on a stream writes it there in 16 KiB chunks, so
/// a large document is never held whole. Both produce the same bytes.
class JsonWriter {
 public:
  JsonWriter() = default;
  /// Streams to `sink`; call flush() (or destroy the writer) to push the
  /// last chunk. str() is not available in this mode.
  explicit JsonWriter(std::ostream& sink) : sink_(&sink) {
    out_.reserve(kChunkBytes + kChunkSlack);
  }
  ~JsonWriter() { flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(bool v);
  /// Splices a pre-serialized JSON document in value position, verbatim.
  /// The caller vouches that `json` is well-formed (used to embed a
  /// pmsb.profile/1 document inside a manifest without re-parsing it).
  JsonWriter& raw_value(std::string_view json);

  /// Writes what is buffered to the sink (no-op without one).
  void flush();

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void before_value();
  /// Hands a full chunk to the sink.
  void spill() {
    if (sink_ != nullptr && out_.size() >= kChunkBytes) flush();
  }

  // Each write to the file costs a few microseconds on top of its bytes:
  // 4 KiB chunks spent 0.6 ms of a 470 KB leaf-spine manifest in writes,
  // 16 KiB chunks about 0.4 ms. The slack holds the item that crosses the
  // chunk size.
  static constexpr std::size_t kChunkBytes = 16384;
  static constexpr std::size_t kChunkSlack = 4096;
  std::ostream* sink_ = nullptr;
  std::string out_;
  // One frame per open container: counts emitted items for comma placement.
  std::vector<std::size_t> items_;
  bool pending_key_ = false;
};

/// The git describe string baked into this build ("unknown" outside git).
[[nodiscard]] const char* build_git_describe();

class RunManifest {
 public:
  /// Starts the wall-clock timer at construction.
  explicit RunManifest(std::string tool);

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  /// Config echo (typically Options::values()): what the run was asked to do.
  void set_config(const std::map<std::string, std::string>& kv) { config_ = kv; }
  void set_config_value(const std::string& key, const std::string& value) {
    config_[key] = value;
  }
  /// Free-form string facts (topology, scheme name, scale mode, ...).
  void set_info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  /// Scalar results (FCT means/percentiles, throughputs, ...).
  void set_result(const std::string& key, double value) { results_[key] = value; }
  void set_sim_time_us(double t) { sim_time_us_ = t; }
  /// Embeds a pre-serialized pmsb.profile/1 document under a top-level
  /// "profile" key (empty string = no profile section).
  void set_profile_json(std::string json) { profile_json_ = std::move(json); }

  /// Serializes the manifest; `registry` may be null (no metrics section).
  [[nodiscard]] std::string to_json(const MetricsRegistry* registry) const;

  /// Streams the to_json() document plus a newline to `path`; throws on
  /// I/O failure.
  void write(const std::string& path, const MetricsRegistry* registry) const;

 private:
  void write_json(JsonWriter& w, const MetricsRegistry* registry) const;

  std::string tool_;
  std::uint64_t seed_ = 0;
  double sim_time_us_ = 0.0;
  std::map<std::string, std::string> config_;
  std::map<std::string, std::string> info_;
  std::map<std::string, double> results_;
  std::string profile_json_;
  std::int64_t wall_start_ns_;
};

}  // namespace pmsb::telemetry
