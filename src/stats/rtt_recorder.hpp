// RTT samples for the paper's RTT distributions (Figs. 1 and 9): a packet
// observer attached to DctcpSenders that folds every ACK's RTT sample into
// a Summary in microseconds.
#pragma once

#include "net/packet_observer.hpp"
#include "sim/time.hpp"
#include "stats/summary.hpp"

namespace pmsb::stats {

class RttRecorder final : public net::PacketObserver {
 public:
  /// Keeps only samples taken strictly after `warmup` (0 keeps all), so
  /// slow start does not skew steady-state distributions.
  explicit RttRecorder(sim::TimeNs warmup = 0) : warmup_(warmup) {}

  void on_ack(net::SiteId /*site*/, sim::TimeNs now, const net::Packet& /*ack*/,
              bool /*mark_accepted*/, sim::TimeNs rtt_sample) override {
    if (now > warmup_) us_.add(sim::to_microseconds(rtt_sample));
  }

  [[nodiscard]] const Summary& us() const { return us_; }

 private:
  sim::TimeNs warmup_;
  Summary us_;
};

}  // namespace pmsb::stats
