#include "telemetry/sampler.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/run_report.hpp"

namespace pmsb::telemetry {

TimeSeriesSampler::TimeSeriesSampler(sim::Simulator& simulator, sim::TimeNs period)
    : sim_(simulator),
      period_(period),
      tick_(simulator, [](void* self) { static_cast<TimeSeriesSampler*>(self)->sample(); },
            this) {
  if (period <= 0) {
    throw std::invalid_argument("TimeSeriesSampler: period must be positive");
  }
}

TimeSeriesSampler::~TimeSeriesSampler() = default;

void TimeSeriesSampler::add_probe(std::string name, std::function<double()> fn) {
  if (started_) throw std::logic_error("TimeSeriesSampler: add column after start()");
  Column c;
  c.name = std::move(name);
  c.probe = std::move(fn);
  cols_.push_back(std::move(c));
}

void TimeSeriesSampler::add_rate(std::string name, std::function<std::uint64_t()> fn) {
  if (started_) throw std::logic_error("TimeSeriesSampler: add column after start()");
  Column c;
  c.name = std::move(name);
  c.rate_source = std::move(fn);
  cols_.push_back(std::move(c));
}

void TimeSeriesSampler::start() {
  if (started_) return;
  started_ = true;
  for (Column& c : cols_) {
    if (c.rate_source) c.prev = c.rate_source();
  }
  // First row fires at the current time; arming the tick (rather than
  // sampling inline) keeps every row inside an event so now() is always
  // consistent.
  tick_.arm(sim_.now(), sim_.reserve_seq());
}

void TimeSeriesSampler::stream_to(const std::string& path) {
  if (started_) throw std::logic_error("TimeSeriesSampler: stream_to after start()");
  auto out = std::make_unique<std::ofstream>(path);
  if (!*out) {
    throw std::runtime_error("TimeSeriesSampler::stream_to: cannot open " + path);
  }
  stream_ = std::move(out);
  keep_rows_ = false;
}

void TimeSeriesSampler::keep_rows() {
  if (rows_ > 0) throw std::logic_error("TimeSeriesSampler: keep_rows after a sample");
  keep_rows_ = true;
}

void TimeSeriesSampler::sample() {
  const double time_us = sim::to_microseconds(sim_.now());
  row_.clear();
  for (Column& c : cols_) {
    double v = 0.0;
    if (c.probe) {
      v = c.probe();
    } else if (c.rate_source) {
      const std::uint64_t cur = c.rate_source();
      // Events times 1e9 over nanoseconds: a whole rate stays whole at any
      // period (over `period * 1e-9` seconds, 9 events per 10 us would read
      // 899999.99999999988).
      v = static_cast<double>(cur - c.prev) * 1e9 / static_cast<double>(period_);
      c.prev = cur;
    }
    row_.push_back(v);
  }
  if (keep_rows_) {
    times_us_.push_back(time_us);
    for (std::size_t i = 0; i < cols_.size(); ++i) cols_[i].data.push_back(row_[i]);
  }
  if (stream_) {
    if (rows_ == 0) write_header(*stream_);
    std::string line = format_double(time_us);
    for (const double v : row_) line.append(",").append(format_double(v));
    line += '\n';
    *stream_ << line;
    // Flush each row: a watchdog abort unwinds through the event loop and
    // must not take the tail of the series with it.
    stream_->flush();
  }
  ++rows_;
  tick_.arm(sim_.now() + period_, sim_.reserve_seq());
}

void TimeSeriesSampler::write_header(std::ostream& out) const {
  out << "time_us";
  for (const Column& c : cols_) out << ',' << c.name;
  out << '\n';
}

}  // namespace pmsb::telemetry
