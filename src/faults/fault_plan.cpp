#include "faults/fault_plan.hpp"

#include <stdexcept>
#include <utility>

#include "sim/units.hpp"

namespace pmsb::faults {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

[[noreturn]] void bad_clause(const std::string& clause, const std::string& why) {
  throw std::invalid_argument("faults: bad clause '" + clause + "': " + why);
}

double parse_probability(const std::string& clause, const std::string& text) {
  std::size_t consumed = 0;
  double p = 0.0;
  try {
    p = std::stod(text, &consumed);
  } catch (const std::exception&) {
    bad_clause(clause, "expected probability, got '" + text + "'");
  }
  if (consumed != text.size() || p < 0.0 || p > 1.0) {
    bad_clause(clause, "probability '" + text + "' not in [0,1]");
  }
  return p;
}

// "A->B" (loss/delay) or "A-B" (flap). Empty side or '*' means wildcard.
void parse_endpoints(const std::string& clause, const std::string& text,
                     const std::string& sep, FaultSpec& out) {
  const std::size_t pos = text.find(sep);
  if (pos == std::string::npos) {
    bad_clause(clause, "expected '" + sep + "' between endpoints in '" + text + "'");
  }
  out.a = text.substr(0, pos);
  out.b = text.substr(pos + sep.size());
  if (out.a.empty()) out.a.assign(1, '*');
  if (out.b.empty()) out.b.assign(1, '*');
}

bool matches(const std::string& pattern, const std::string& name) {
  return pattern == "*" || pattern == name;
}

}  // namespace

std::vector<FaultSpec> parse_fault_spec(const std::string& spec) {
  std::vector<FaultSpec> out;
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    const std::vector<std::string> fields = split(clause, ':');
    if (fields.size() != 3) {
      bad_clause(clause, "expected kind:endpoints:params");
    }
    const std::string& kind = fields[0];
    FaultSpec fs;
    if (kind == "link") {
      fs.kind = FaultSpec::Kind::kLinkFlap;
      parse_endpoints(clause, fields[1], "-", fs);
      if (fs.a == "*" || fs.b == "*") {
        bad_clause(clause, "link flap endpoints cannot be wildcards");
      }
      // down@T1..T2 with T2 optional ("down@50ms.." or "down@50ms").
      const std::string& params = fields[2];
      if (params.rfind("down@", 0) != 0) {
        bad_clause(clause, "expected down@T1..T2, got '" + params + "'");
      }
      const std::string window = params.substr(5);
      const std::size_t dots = window.find("..");
      const std::string t1 = dots == std::string::npos ? window : window.substr(0, dots);
      const std::string t2 = dots == std::string::npos ? "" : window.substr(dots + 2);
      try {
        fs.down_at = sim::parse_duration_ns(t1);
        fs.up_at = t2.empty() ? sim::kTimeNever : sim::parse_duration_ns(t2);
      } catch (const std::invalid_argument& e) {
        bad_clause(clause, e.what());
      }
      if (fs.up_at <= fs.down_at) {
        bad_clause(clause, "up time must be after down time");
      }
    } else if (kind == "loss") {
      fs.kind = FaultSpec::Kind::kLoss;
      parse_endpoints(clause, fields[1], "->", fs);
      fs.probability = parse_probability(clause, fields[2]);
    } else if (kind == "delay") {
      fs.kind = FaultSpec::Kind::kDelay;
      parse_endpoints(clause, fields[1], "->", fs);
      const std::string& params = fields[2];
      const std::size_t plus = params.find('+');
      try {
        fs.delay = sim::parse_duration_ns(
            plus == std::string::npos ? params : params.substr(0, plus));
        if (plus != std::string::npos) {
          fs.jitter = sim::parse_duration_ns(params.substr(plus + 1));
        }
      } catch (const std::invalid_argument& e) {
        bad_clause(clause, e.what());
      }
    } else if (kind == "bleach") {
      fs.kind = FaultSpec::Kind::kBleach;
      fs.a = fields[1].empty() ? "*" : fields[1];
      fs.b.assign(1, '*');
      fs.probability = parse_probability(clause, fields[2]);
    } else {
      bad_clause(clause, "unknown kind '" + kind + "'");
    }
    out.push_back(std::move(fs));
  }
  return out;
}

void FaultPlan::add_spec_string(const std::string& spec) {
  for (FaultSpec& fs : parse_fault_spec(spec)) specs_.push_back(std::move(fs));
}

FaultPlan::Point& FaultPlan::ensure_point(sim::Simulator& simulator,
                                          const LinkRef& ref,
                                          std::uint64_t seed) {
  for (auto& point : points_) {
    if (point->src == ref.src && point->dst == ref.dst) return *point;
  }
  auto point = std::make_unique<Point>();
  point->src = ref.src;
  point->dst = ref.dst;
  // Each interposition point gets its own RNG stream so adding a fault on
  // one link does not perturb loss decisions on another.
  const std::uint64_t stream =
      seed ^ (std::hash<std::string>{}(ref.src + "\x1f" + ref.dst) | 1);
  point->node = std::make_unique<net::FaultInjector>(
      simulator, ref.link->destination(), stream,
      "fault(" + ref.src + "->" + ref.dst + ")");
  ref.link->set_destination(point->node.get());
  points_.push_back(std::move(point));
  return *points_.back();
}

void FaultPlan::install(sim::Simulator& simulator,
                        const std::vector<LinkRef>& links,
                        std::uint64_t seed) {
  if (installed_) {
    throw std::logic_error("FaultPlan::install called twice");
  }
  installed_ = true;
  for (const FaultSpec& spec : specs_) {
    std::size_t matched = 0;
    for (const LinkRef& ref : links) {
      if (ref.link == nullptr) continue;
      bool hit = false;
      switch (spec.kind) {
        case FaultSpec::Kind::kLinkFlap:
          // A-B names the bidirectional pair: interpose both directions.
          hit = (spec.a == ref.src && spec.b == ref.dst) ||
                (spec.a == ref.dst && spec.b == ref.src);
          break;
        case FaultSpec::Kind::kLoss:
        case FaultSpec::Kind::kDelay:
          hit = matches(spec.a, ref.src) && matches(spec.b, ref.dst);
          break;
        case FaultSpec::Kind::kBleach:
          // Bleaching strips CE marks on every egress of the named node.
          hit = matches(spec.a, ref.src);
          break;
      }
      if (!hit) continue;
      ++matched;
      Point& point = ensure_point(simulator, ref, seed);
      net::FaultInjector* injector = point.node.get();
      switch (spec.kind) {
        case FaultSpec::Kind::kLinkFlap:
          simulator.schedule_at(spec.down_at, [injector] { injector->set_down(true); });
          if (spec.up_at != sim::kTimeNever) {
            simulator.schedule_at(spec.up_at, [injector] { injector->set_down(false); });
          }
          break;
        case FaultSpec::Kind::kLoss:
          injector->set_drop_rate(spec.probability);
          break;
        case FaultSpec::Kind::kDelay:
          injector->set_extra_delay(spec.delay, spec.jitter);
          break;
        case FaultSpec::Kind::kBleach:
          injector->set_bleach_rate(spec.probability);
          break;
      }
    }
    if (matched == 0) {
      throw std::invalid_argument(
          "faults: spec matched no link in this topology (endpoints '" +
          spec.a + "' / '" + spec.b + "')");
    }
  }
}

net::FaultInjector* FaultPlan::point_between(const std::string& src,
                                             const std::string& dst) {
  for (auto& point : points_) {
    if (point->src == src && point->dst == dst) return point->node.get();
  }
  return nullptr;
}

std::uint64_t FaultPlan::dropped() const {
  std::uint64_t total = 0;
  for (const auto& point : points_) total += point->node->dropped();
  return total;
}

std::uint64_t FaultPlan::bleached() const {
  std::uint64_t total = 0;
  for (const auto& point : points_) total += point->node->bleached();
  return total;
}

std::uint64_t FaultPlan::forwarded() const {
  std::uint64_t total = 0;
  for (const auto& point : points_) total += point->node->forwarded();
  return total;
}

std::uint64_t FaultPlan::delayed_in_flight() const {
  std::uint64_t total = 0;
  for (const auto& point : points_) total += point->node->delayed_in_flight();
  return total;
}

void FaultPlan::bind_metrics(telemetry::MetricsRegistry& registry) const {
  for (const auto& point : points_) {
    const std::string link = point->src + "->" + point->dst;
    point->node->bind_metrics(registry, registry.label_set({{"link", link}}));
  }
}

}  // namespace pmsb::faults
