// Flow-completion-time collection with the paper's size bins.
//
// §VI.B: small flows are < 100 KB, large flows are > 10 MB; everything in
// between is "medium" (whose trends the paper folds into the overall
// average).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "stats/summary.hpp"

namespace pmsb::stats {

/// Which workload family produced a flow. Defined in the base stats layer so
/// per-flow records can carry it without a stats -> workload dependency; the
/// workload generators set it, the FCT CSV and sweep reports consume it.
enum class PatternTag : std::uint8_t {
  kPoisson,
  kTrace,
  kCoflow,
  kRpc,
};

[[nodiscard]] inline const char* pattern_tag_name(PatternTag tag) {
  switch (tag) {
    case PatternTag::kPoisson: return "poisson";
    case PatternTag::kTrace: return "trace";
    case PatternTag::kCoflow: return "coflow";
    case PatternTag::kRpc: return "rpc";
  }
  return "?";
}

/// Inverse of pattern_tag_name(); returns false on an unknown name.
[[nodiscard]] inline bool parse_pattern_tag(const std::string& name, PatternTag* out) {
  for (PatternTag tag :
       {PatternTag::kPoisson, PatternTag::kTrace, PatternTag::kCoflow, PatternTag::kRpc}) {
    if (name == pattern_tag_name(tag)) {
      *out = tag;
      return true;
    }
  }
  return false;
}

/// Sentinel group id for flows that belong to no coflow/RPC group.
inline constexpr std::uint32_t kNoGroupId = 0xffffffffu;

enum class SizeBin { kSmall, kMedium, kLarge };

inline constexpr std::uint64_t kSmallFlowMaxBytes = 100 * 1000;       // 100 KB
inline constexpr std::uint64_t kLargeFlowMinBytes = 10 * 1000 * 1000;  // 10 MB

[[nodiscard]] constexpr SizeBin size_bin(std::uint64_t bytes) {
  if (bytes < kSmallFlowMaxBytes) return SizeBin::kSmall;
  if (bytes > kLargeFlowMinBytes) return SizeBin::kLarge;
  return SizeBin::kMedium;
}

[[nodiscard]] inline const char* size_bin_name(SizeBin bin) {
  switch (bin) {
    case SizeBin::kSmall: return "small";
    case SizeBin::kMedium: return "medium";
    case SizeBin::kLarge: return "large";
  }
  return "?";
}

struct FctRecord {
  net::FlowId flow = 0;
  std::uint64_t bytes = 0;
  sim::TimeNs start = 0;
  sim::TimeNs fct = 0;
  net::ServiceId service = 0;
  PatternTag pattern = PatternTag::kPoisson;
  sim::TimeNs deadline = 0;    ///< absolute completion deadline; 0 = none
  bool deadline_met = true;    ///< only meaningful when deadline != 0
  std::uint32_t group = kNoGroupId;  ///< coflow/RPC group; kNoGroupId = standalone
  std::uint16_t stage = 0;     ///< coflow stage (barrier index)
};

/// Deadline outcome across the flows that carried one (deadline != 0).
struct DeadlineStats {
  std::size_t total = 0;
  std::size_t missed = 0;
  [[nodiscard]] double miss_fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(missed) / static_cast<double>(total);
  }
};

class FctCollector {
 public:
  void record(const FctRecord& rec) { records_.push_back(rec); }

  [[nodiscard]] std::size_t count() const { return records_.size(); }
  [[nodiscard]] const std::vector<FctRecord>& records() const { return records_; }

  /// FCTs (in microseconds) for one bin; pass std::nullopt-like "all" via
  /// `overall`.
  [[nodiscard]] Summary fct_us(SizeBin bin) const {
    Summary s;
    for (const auto& r : records_) {
      if (size_bin(r.bytes) == bin) s.add(sim::to_microseconds(r.fct));
    }
    return s;
  }

  [[nodiscard]] Summary overall_fct_us() const {
    Summary s;
    for (const auto& r : records_) s.add(sim::to_microseconds(r.fct));
    return s;
  }

  /// Deadline outcome over every completed flow that carried a deadline.
  [[nodiscard]] DeadlineStats deadline_stats() const {
    DeadlineStats ds;
    for (const auto& r : records_) {
      if (r.deadline == 0) continue;
      ++ds.total;
      if (!r.deadline_met) ++ds.missed;
    }
    return ds;
  }

  /// Coflow completion times (microseconds) over completed groups: for each
  /// group id, the span from its earliest flow start to its latest flow
  /// finish. Only groups whose every generated flow completed would be fully
  /// meaningful; a truncated run reports the span over completed flows.
  [[nodiscard]] Summary group_ct_us() const {
    struct Span {
      sim::TimeNs start;
      sim::TimeNs end;
    };
    std::map<std::uint32_t, Span> spans;
    for (const auto& r : records_) {
      if (r.group == kNoGroupId) continue;
      const sim::TimeNs end = r.start + r.fct;
      auto [it, fresh] = spans.try_emplace(r.group, Span{r.start, end});
      if (!fresh) {
        it->second.start = std::min(it->second.start, r.start);
        it->second.end = std::max(it->second.end, end);
      }
    }
    Summary s;
    for (const auto& [id, span] : spans) {
      s.add(sim::to_microseconds(span.end - span.start));
    }
    return s;
  }

  /// The ideal (un-contended) FCT of a flow: one base RTT plus wire
  /// serialization of the payload (with header inflation) at line rate.
  [[nodiscard]] static sim::TimeNs ideal_fct(std::uint64_t bytes, sim::RateBps rate,
                                             sim::TimeNs base_rtt,
                                             std::uint32_t mss = sim::kDefaultMssBytes) {
    const std::uint64_t segments = (bytes + mss - 1) / std::max<std::uint32_t>(mss, 1);
    const std::uint64_t wire_bytes = bytes + segments * sim::kHeaderBytes;
    return base_rtt + sim::serialization_delay(wire_bytes, rate);
  }

  /// FCT slowdown (measured / ideal) per size bin — the normalised metric
  /// common in the FCT literature; 1.0 = the flow ran as if alone.
  [[nodiscard]] Summary slowdown(SizeBin bin, sim::RateBps rate,
                                 sim::TimeNs base_rtt) const {
    Summary s;
    for (const auto& r : records_) {
      if (size_bin(r.bytes) != bin) continue;
      const auto ideal = ideal_fct(r.bytes, rate, base_rtt);
      s.add(static_cast<double>(r.fct) / static_cast<double>(ideal));
    }
    return s;
  }

 private:
  std::vector<FctRecord> records_;
};

}  // namespace pmsb::stats
