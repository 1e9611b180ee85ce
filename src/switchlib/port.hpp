// Output port of a switch: classification, shared buffer admission, ECN
// marking (enqueue and/or dequeue side) and a packet scheduler. The attached
// link runs the transmit loop and pulls from the port as its PacketSource;
// the pull is where dequeue-side marking happens. The port stores the node
// the wire delivered and hands the scheduler's node to the next wire; a
// drop gives the node back to the store.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ecn/factory.hpp"
#include "ecn/marking.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sched/factory.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "switchlib/buffer_policy.hpp"
#include "switchlib/buffer_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace pmsb::switchlib {

using net::Packet;
using sim::TimeNs;

struct PortConfig {
  sched::SchedulerConfig scheduler;
  ecn::MarkingConfig marking;
  /// Shared per-port buffer (drop-tail beyond this), in bytes.
  std::uint64_t buffer_bytes = 512ull * 1500ull;
  /// Shared-buffer admission policy (static per-port budgets, equal
  /// division, or Dynamic Thresholds — see buffer_policy.hpp). Drop
  /// decisions route through this; the default is digest-identical to the
  /// historical inline drop-tail.
  BufferPolicyConfig buffer_policy;
};

/// Per-port counters exposed for tests and benches. These cells double as
/// the storage behind the registry instruments bind_metrics() registers, so
/// the legacy struct and the telemetry view can never disagree.
struct PortStats {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t marked_enqueue = 0;
  std::uint64_t marked_dequeue = 0;
  std::vector<std::uint64_t> marked_per_queue;  ///< CE marks by queue
  /// Drops broken down by admission-failure cause (sums to dropped_packets).
  std::array<std::uint64_t, kNumDropReasons> dropped_by_reason{};
};

class Port : private net::PacketSource {
 public:
  Port(sim::Simulator& simulator, net::Link* link, const PortConfig& config);

  /// Admits the packet in `node`: classify (queue = service % num_queues) ->
  /// admission check -> (enqueue marking) -> store -> kick the link.
  void handle(net::PacketNodePtr node);

  /// Joins a shared buffer pool: the port takes a ledger slot, admission
  /// charges it, and marking schemes see the pool occupancy in their
  /// snapshot. The pool must outlive the port.
  void attach_pool(BufferPool* pool) {
    pool_ = pool;
    if (pool_ != nullptr) pool_slot_ = pool_->register_slot();
  }
  [[nodiscard]] BufferPool* pool() const { return pool_; }
  [[nodiscard]] const BufferPolicy& buffer_policy() const { return *policy_; }
  /// The most bytes this port could hold right now under its policy.
  [[nodiscard]] std::uint64_t admission_threshold_bytes() const {
    return policy_->threshold_bytes(admission_request(0));
  }

  /// Reports this port's enqueue/dequeue/mark/drop events to `observer` as
  /// `site`.
  void add_observer(net::PacketObserver* observer, net::SiteId site = 0) {
    taps_.add(observer, site);
  }

  /// Attaches a profiler (nullptr to detach): handle() and the link's pull
  /// become "port.handle"/"port.transmit" scopes, with nested
  /// "sched.<name>.enqueue/.dequeue" and "ecn.<scheme>.should_mark" scopes
  /// so scheduler and marking cost is attributed separately. Kind names are
  /// interned here; the packet path stays string-free.
  void set_profiler(telemetry::Profiler* profiler);

  /// Registers this port's instruments in `registry` under `labels`
  /// (e.g. {{"switch","leaf0"},{"port","2"}}): every PortStats cell as a
  /// bound counter (drop reasons and per-queue marks included), live
  /// occupancy / per-queue backlog probe gauges, per-queue service counters
  /// from the scheduler, and whatever the marking scheme itself exposes.
  /// Pure registration — the packet path does not get any new work.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    const telemetry::Labels& labels);

  [[nodiscard]] const sched::Scheduler& scheduler() const { return *sched_; }
  [[nodiscard]] ecn::MarkingScheme& marking() { return *marking_; }
  [[nodiscard]] const PortStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t buffered_bytes() const { return sched_->total_bytes(); }
  [[nodiscard]] std::size_t buffered_packets() const { return sched_->total_packets(); }
  [[nodiscard]] std::uint64_t queue_bytes(std::size_t q) const {
    return sched_->queue_bytes(q);
  }
  [[nodiscard]] net::Link* link() const { return link_; }
  [[nodiscard]] ecn::MarkPoint mark_point() const { return mark_point_; }

 private:
  /// Dequeue for the link: scheduler selection, dequeue-side marking, the
  /// observer taps and the pool release.
  net::PacketNodePtr pull() override;
  [[nodiscard]] bool has_packet() const override { return !sched_->empty(); }
  void drop(const Packet& pkt, std::size_t queue, DropReason reason);
  [[nodiscard]] AdmissionRequest admission_request(std::uint64_t packet_bytes) const {
    return {.packet_bytes = packet_bytes,
            .port_bytes = sched_->total_bytes(),
            .port_budget = buffer_bytes_,
            .pool = pool_};
  }
  /// The state marking judges: the live occupancies plus the packet under
  /// judgement, which is not yet stored at enqueue and already removed from
  /// the scheduler at dequeue (see marking.hpp).
  [[nodiscard]] ecn::PortSnapshot snapshot(std::size_t queue,
                                           std::uint64_t packet_bytes) const;

  sim::Simulator& sim_;
  net::Link* link_;
  std::unique_ptr<sched::Scheduler> sched_;
  std::unique_ptr<ecn::MarkingScheme> marking_;
  ecn::MarkPoint mark_point_;
  std::uint64_t buffer_bytes_;
  std::unique_ptr<BufferPolicy> policy_;
  std::size_t num_queues_;
  BufferPool* pool_ = nullptr;
  BufferPool::SlotId pool_slot_ = 0;
  net::TapList taps_;
  telemetry::Profiler* profiler_ = nullptr;
  telemetry::Profiler::KindId kind_handle_ = 0;
  telemetry::Profiler::KindId kind_transmit_ = 0;
  telemetry::Profiler::KindId kind_sched_enqueue_ = 0;
  telemetry::Profiler::KindId kind_sched_dequeue_ = 0;
  telemetry::Profiler::KindId kind_should_mark_ = 0;
  using PortHook = void (net::PacketObserver::*)(net::SiteId, TimeNs, const Packet&,
                                                 std::size_t, std::uint64_t);
  void notify(PortHook hook, const Packet& pkt, std::size_t queue) {
    if (taps_.empty()) return;  // skip the occupancy lookup when nobody listens
    taps_.notify(hook, sim_.now(), pkt, queue, sched_->total_bytes());
  }
  PortStats stats_;
};

}  // namespace pmsb::switchlib
