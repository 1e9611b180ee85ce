// TestDemux: the flow demux of hand-wired test hosts. It records the packets
// of the flows it is told to take and hands those of its DCTCP flows to
// the endpoints it owns. Scenarios deliver through experiments::Fabric's
// flow table or a transport::DcqcnFlowTable instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::test {

class TestDemux final : public net::FlowDemux {
 public:
  /// Becomes the demux of every host in `hosts`; it must outlive their last
  /// delivery.
  TestDemux(std::initializer_list<net::Host*> hosts) {
    for (net::Host* host : hosts) host->set_demux(this);
  }
  TestDemux(const TestDemux&) = delete;
  TestDemux& operator=(const TestDemux&) = delete;

  /// Takes the next `limit` packets of `flow` at its hosts and records
  /// them. Past the limit it declines the flow, so the host counts the
  /// packet in dropped_no_handler().
  void take(net::FlowId flow,
            std::size_t limit = std::numeric_limits<std::size_t>::max()) {
    left_[flow] = limit;
  }

  /// The packets of `flow` taken at `host`, in arrival order.
  [[nodiscard]] std::vector<net::Packet> taken(const net::Host& host,
                                               net::FlowId flow) const {
    std::vector<net::Packet> out;
    for (const auto& [at, pkt] : arrivals_) {
      if (at == host.id() && pkt.flow_id == flow) out.push_back(pkt);
    }
    return out;
  }

  /// DCTCP endpoints for `flow`, sender at `src` and receiver at `dst` (both
  /// hosts of this demux), which get the flow's packets. The sender starts
  /// at `start`.
  transport::FlowEndpoints& add_dctcp(sim::Simulator& simulator, net::Host& src,
                                      net::Host& dst, net::FlowId flow,
                                      std::uint64_t bytes,
                                      const transport::DctcpConfig& config,
                                      sim::TimeNs start) {
    transport::FlowEndpoints& ep =
        endpoints_.try_emplace(flow, simulator, src, dst, flow, 0, bytes, config)
            .first->second;
    simulator.schedule_at(start, [&sender = ep.sender()] { sender.start_now(); });
    return ep;
  }

  bool deliver(net::Host& host, const net::Packet& pkt) override {
    if (auto ep = endpoints_.find(pkt.flow_id); ep != endpoints_.end()) {
      ep->second.deliver(pkt);
      return true;
    }
    auto left = left_.find(pkt.flow_id);
    if (left == left_.end() || left->second == 0) return false;
    --left->second;
    arrivals_.emplace_back(host.id(), pkt);
    return true;
  }

 private:
  std::map<net::FlowId, std::size_t> left_;  ///< packets still to take
  std::vector<std::pair<net::HostId, net::Packet>> arrivals_;
  std::map<net::FlowId, transport::FlowEndpoints> endpoints_;
};

}  // namespace pmsb::test
