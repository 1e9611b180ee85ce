// DCTCP transport endpoints (Alizadeh et al., SIGCOMM 2010), plus the
// PMSB(e) end-host rule (paper Algorithm 2).
//
// Model (the standard simulator simplification set):
//  - byte-stream flow of a fixed size (or long-lived when size == 0)
//  - one ACK per data segment, echoing the segment's CE bit exactly
//  - alpha update and multiplicative cut once per window of data
//  - NewReno-style fast retransmit on 3 dup ACKs, go-back-N on RTO
//  - optional token-bucket rate cap for the paper's "x Gbps TCP flow"s
//
// PMSB(e): when enabled, an ECE-carrying ACK is IGNORED (treated as
// unmarked) if the flow's latest RTT sample is below `pmsbe_rtt_threshold` —
// core::pmsbe_ignore_mark, Algorithm 2 verbatim.
//
// The sender's retransmission and pacing timers are sim::Timers it owns,
// each armed at a sequence number reserved when it is set, so it runs where
// a closure scheduled then would have. Destroying a sender calls them off
// (an armed one leaves a tombstone in the queue), so its owner may free it
// whenever none of its own code is running: experiments::Fabric frees a
// finished flow's endpoints at its completion. The Simulator must outlive
// the sender.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "transport/rtt_estimator.hpp"

namespace pmsb::transport {

using net::FlowId;
using net::Host;
using net::HostId;
using net::Packet;
using net::ServiceId;
using sim::TimeNs;

struct DctcpConfig {
  /// Send-buffer / receive-window cap on cwnd. Without it a flow on an
  /// un-congested path (no marks, no drops) would grow its window without
  /// bound and then dump megabytes into the first congestion event.
  /// Default: 256 segments (~374 kB), several times a 10G*100us BDP.
  std::uint64_t max_cwnd_bytes = 256ull * sim::kDefaultMssBytes;
  std::uint32_t init_cwnd_segments = 10;
  sim::RateBps max_rate = 0;  ///< 0 = unlimited (no pacing cap)

  // --- PMSB(e), Algorithm 2 ---
  bool pmsbe_enabled = false;
  TimeNs pmsbe_rtt_threshold = 0;

  // --- D2TCP (Vamanan et al., SIGCOMM 2012) ---
  /// When true and `deadline` is set on the sender, the window cut uses the
  /// deadline-aware penalty p = alpha^d with d = Tc/D clamped to [0.5, 2]:
  /// near-deadline flows back off less, far-deadline flows more.
  bool d2tcp_enabled = false;

  bool operator==(const DctcpConfig&) const = default;
};

/// Sender-side statistics, exposed for tests / benches.
struct SenderStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t ece_acks = 0;          ///< ACKs that arrived with ECE set
  std::uint64_t ece_ignored = 0;       ///< of those, ignored by PMSB(e)
  std::uint64_t window_cuts = 0;
};

class DctcpReceiver;

/// One direction of a DCTCP connection. Create via FlowEndpoints (below).
class DctcpSender {
 public:
  using CompletionCallback = std::function<void(TimeNs fct)>;

  DctcpSender(sim::Simulator& simulator, Host& local, HostId remote, FlowId flow,
              ServiceId service, std::uint64_t flow_bytes, DctcpConfig config);
  DctcpSender(const DctcpSender&) = delete;
  DctcpSender& operator=(const DctcpSender&) = delete;

  /// Begins transmission now. The owner queues the event that calls it
  /// (experiments::Fabric's start list).
  void start_now();

  /// Sets an absolute completion deadline (D2TCP). Only meaningful with
  /// cfg.d2tcp_enabled on a finite flow.
  void set_deadline(TimeNs deadline) { deadline_ = deadline; }
  /// The deadline-aware cut exponent d used at the most recent cut (1.0
  /// when D2TCP is off) — exposed for tests.
  [[nodiscard]] double last_cut_exponent() const { return last_cut_exponent_; }

  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  /// Reports on_send per segment and on_ack per processed ACK (with the
  /// PMSB(e) verdict and the RTT sample) to `observer` as `site`.
  void add_observer(net::PacketObserver* observer, net::SiteId site = 0) {
    taps_.add(observer, site);
  }

  /// Registers this sender's instruments under `labels`: every SenderStats
  /// cell as a bound counter plus live cwnd / alpha probe gauges.
  void bind_metrics(telemetry::MetricsRegistry& registry, telemetry::LabelSetId labels);

  /// Attaches a profiler (nullptr to detach): segment transmission and ACK
  /// processing become "transport.send" / "transport.ack" scopes.
  void set_profiler(telemetry::Profiler* profiler);

  // --- Introspection ---
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return snd_una_; }
  [[nodiscard]] bool complete() const { return completed_; }
  [[nodiscard]] bool started() const { return started_; }
  /// Bytes sent but not yet cumulatively acked.
  [[nodiscard]] std::uint64_t bytes_inflight() const { return inflight(); }
  /// Whether the retransmission timer is armed. A started, incomplete flow
  /// with bytes in flight must have it armed — the flow-liveness invariant.
  [[nodiscard]] bool rto_armed() const { return rto_timer_.armed(); }
  [[nodiscard]] TimeNs start_time() const { return start_time_; }
  [[nodiscard]] TimeNs completion_time() const { return completion_time_; }
  [[nodiscard]] const SenderStats& stats() const { return stats_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] FlowId flow_id() const { return flow_; }
  [[nodiscard]] std::uint64_t flow_bytes() const { return flow_bytes_; }
  [[nodiscard]] ServiceId service() const { return service_; }

  /// Processes an arriving ACK. Public so a flow demux can drive it.
  void on_ack(const Packet& ack);

 private:
  void send_available();
  void send_segment(std::uint64_t seq, bool is_retransmit);
  void enter_window_boundary();
  void maybe_cut_on_mark();
  [[nodiscard]] double cut_exponent() const;
  void on_rto();
  void arm_rto();
  [[nodiscard]] std::uint64_t inflight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] bool infinite() const { return flow_bytes_ == 0; }
  [[nodiscard]] std::uint64_t remaining_at(std::uint64_t seq) const;
  void finish();

  sim::Simulator& sim_;
  Host& local_;
  HostId remote_;
  FlowId flow_;
  ServiceId service_;
  std::uint64_t flow_bytes_;  ///< 0 = long-lived
  DctcpConfig cfg_;

  // --- TCP state (bytes) ---
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_max_ = 0;  ///< highest byte ever sent; below = retransmit
  double cwnd_ = 0;
  double ssthresh_ = std::numeric_limits<double>::max();
  int dup_acks_ = 0;
  std::uint64_t recover_seq_ = 0;  ///< fast-recovery exit point
  bool in_recovery_ = false;

  // --- DCTCP state ---
  double alpha_ = 0.0;
  std::uint64_t window_end_seq_ = 0;  ///< boundary of the current observation window
  std::uint64_t window_acked_bytes_ = 0;
  std::uint64_t window_marked_bytes_ = 0;
  std::uint64_t cut_end_seq_ = 0;     ///< no further cut until acked past here

  // --- D2TCP state ---
  TimeNs deadline_ = 0;               ///< absolute; 0 = no deadline
  double last_cut_exponent_ = 1.0;

  // --- Pacing (token bucket for rate-capped flows) ---
  TimeNs next_send_allowed_ = 0;
  sim::Timer pacing_timer_;  ///< runs send_available() at next_send_allowed_

  // --- Timers ---
  RttEstimator rtt_;
  /// Runs on_rto(). Lazy: armed once for a deadline that progress may push
  /// back, and re-armed for the rest when it fires early.
  sim::Timer rto_timer_;
  std::int64_t rto_backoff_ = 1;
  TimeNs last_progress_ = 0;

  TimeNs start_time_ = 0;
  TimeNs completion_time_ = 0;
  bool started_ = false;
  bool completed_ = false;
  SenderStats stats_;
  CompletionCallback on_complete_;
  net::TapList taps_;
  telemetry::Profiler* profiler_ = nullptr;
  telemetry::Profiler::KindId kind_send_ = 0;
  telemetry::Profiler::KindId kind_ack_ = 0;
};

/// Receiver: cumulative ACKs with out-of-order reassembly. Every data
/// packet gets its own ACK, which echoes that packet's CE bit exactly.
class DctcpReceiver {
 public:
  DctcpReceiver(sim::Simulator& simulator, Host& local, HostId remote, FlowId flow,
                ServiceId service);
  DctcpReceiver(const DctcpReceiver&) = delete;
  DctcpReceiver& operator=(const DctcpReceiver&) = delete;

  void on_data(const Packet& pkt);

  /// The ACK a receiver at `local` sends for a data segment: cumulative
  /// `ack`, echoing the segment's CE bit as `ece` and its send time as
  /// `echo_time`. Once its sender has completed, a receiver has acked the
  /// whole flow and holds nothing out of order, so its reply to a late
  /// segment is this ACK with ack = flow size, whether or not the receiver
  /// still exists (experiments::Fabric answers for freed ones).
  [[nodiscard]] static Packet make_ack(sim::Simulator& simulator, HostId local,
                                       HostId remote, FlowId flow, ServiceId service,
                                       std::uint64_t ack, bool ece, TimeNs echo_time);

  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t ce_packets() const { return ce_packets_; }
  [[nodiscard]] std::uint64_t data_packets() const { return data_packets_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void send_ack(bool ece, TimeNs echo_time);

  sim::Simulator& sim_;
  Host& local_;
  HostId remote_;
  FlowId flow_;
  ServiceId service_;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> out_of_order_;  ///< seq -> end
  std::uint64_t ce_packets_ = 0;
  std::uint64_t data_packets_ = 0;
  std::uint64_t acks_sent_ = 0;
};

/// The two endpoints of a unidirectional DCTCP flow, sender at `src` and
/// receiver at `dst`. Their owner, a net::FlowDemux on both hosts (as
/// experiments::Fabric's flow table is), hands them the flow's arriving
/// packets through deliver().
class FlowEndpoints {
 public:
  FlowEndpoints(sim::Simulator& simulator, Host& src, Host& dst, FlowId flow,
                ServiceId service, std::uint64_t flow_bytes, DctcpConfig config);
  FlowEndpoints(const FlowEndpoints&) = delete;
  FlowEndpoints& operator=(const FlowEndpoints&) = delete;

  /// An ACK goes to the sender, a data segment to the receiver.
  void deliver(const Packet& pkt) {
    if (pkt.is_ack()) {
      sender_.on_ack(pkt);
    } else if (pkt.is_data()) {
      receiver_.on_data(pkt);
    }
  }

  [[nodiscard]] DctcpSender& sender() { return sender_; }
  [[nodiscard]] const DctcpSender& sender() const { return sender_; }
  [[nodiscard]] DctcpReceiver& receiver() { return receiver_; }

 private:
  DctcpSender sender_;
  DctcpReceiver receiver_;
};

}  // namespace pmsb::transport
