// edp::core — the SUME Event Switch (paper §5, Figure 4).
//
// The full event-driven PISA device:
//
//   ports -> Event Merger -> P4 pipeline (parser / program / deparser)
//                -> Traffic Manager (output queues) -> port transmit
//
// with the event sources of Figure 4 feeding the merger: enqueue / dequeue
// / drop from the output queues, the timer block, the configurable packet
// generator, link status monitors, the control plane, and program-raised
// user events. Every program handler runs inside a pipeline slot allocated
// by the merger, so events genuinely consume (spare) pipeline bandwidth —
// the property the paper's line-rate argument rests on.
//
// The same class also models a *baseline PISA architecture* (paper
// Figures 1, §6): constructed with `event_architecture = false` it delivers
// only packet events to the program, refuses timers / generators / user
// events (counting each refused request), and leaves the control-plane
// channel as the only escape hatch — exactly the world the paper's
// comparisons are made against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <string>
#include <vector>

#include "core/aggregated_register.hpp"
#include "core/dispatch_plan.hpp"
#include "core/event.hpp"
#include "core/event_merger.hpp"
#include "core/event_program.hpp"
#include "core/packet_generator.hpp"
#include "core/timer_block.hpp"
#include "pisa/deparser.hpp"
#include "pisa/parser.hpp"
#include "sim/scheduler.hpp"
#include "tm/traffic_manager.hpp"

namespace edp::core {

/// Reserved port numbers in standard metadata.
inline constexpr std::uint16_t kPortGenerated = 0xfffd;  ///< pktgen origin
inline constexpr std::uint16_t kPortCpu = 0xfffe;        ///< CP packet-out
inline constexpr std::uint16_t kPortInvalid = 0xffff;

struct EventSwitchConfig {
  std::string name = "sw0";
  std::uint32_t switch_id = 0;
  /// Owning shard in a runtime::ParallelRuntime partition (0 in sequential
  /// runs). Purely a tracing/diagnostics tag: no switch behavior depends on
  /// it, which is what keeps sharded and sequential runs bit-identical.
  std::uint32_t shard_id = 0;
  std::uint16_t num_ports = 4;
  double port_rate_bps = 10e9;

  MergerConfig merger;  ///< pipeline clock + FIFO depths

  std::uint8_t queues_per_port = 1;
  bool use_pifo = false;
  tm_::QueueLimits queue_limits;
  tm_::SchedulerKind tm_scheduler = tm_::SchedulerKind::kRoundRobin;
  std::vector<std::uint32_t> dwrr_weights;
  tm_::BufferPool::Config buffer;

  sim::Time timer_resolution = sim::Time::micros(1);

  /// false = baseline PISA architecture (packet events only).
  bool event_architecture = true;
  /// PSA-style egress pipeline (on_egress between dequeue and transmit).
  bool egress_pipeline = false;
  /// Loop guard: a packet recirculated more than this many times is
  /// dropped (and counted), as real targets bound recirculation.
  std::uint8_t max_recirculations = 8;
};

/// Aggregate counters of one switch.
struct SwitchCounters {
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;   ///< std_meta.drop after ingress
  std::uint64_t bad_port_drops = 0;  ///< egress_port out of range
  std::uint64_t recirculated = 0;
  std::uint64_t recirc_loop_drops = 0;  ///< hit max_recirculations
  std::uint64_t generated = 0;
  std::uint64_t punts = 0;           ///< messages to the control plane
  std::uint64_t refused_ops = 0;     ///< facilities a baseline arch lacks
  /// Events observed at their source (before any delivery filtering).
  std::array<std::uint64_t, kNumEventKinds> observed{};
};

class EventSwitch final : public EventContext {
 public:
  EventSwitch(sim::Scheduler& sched, EventSwitchConfig config);

  // Closures inside the merger/TM capture `this`.
  EventSwitch(const EventSwitch&) = delete;
  EventSwitch& operator=(const EventSwitch&) = delete;

  // ---- wiring ---------------------------------------------------------------

  /// Attach the data-plane program (non-owning; the caller keeps it alive,
  /// typically to read its state after a run). Calls program->on_attach.
  void set_program(EventProgram* program);

  /// Connect port `port`'s transmit side to a completion-time consumer:
  /// called with each outgoing packet from a callback at the instant
  /// serialization completes. Replaces any consumer the port had.
  void connect_tx(std::uint16_t port, std::function<void(net::Packet)> tx);

  /// Connect port `port`'s transmit side to a departure-stamped consumer
  /// (a Link or a cut-link ring): called with each outgoing packet when
  /// serialization *starts*, together with its departure — the instant the
  /// last bit leaves. The consumer must act on the packet only from the
  /// departure on (a link decides up/down at it). Replaces any consumer
  /// the port had.
  void connect_link(std::uint16_t port,
                    std::function<void(net::Packet, sim::Time)> link);

  /// Deliver a packet to port `port`.
  void receive(std::uint16_t port, net::Packet packet);

  /// receive() for a link or ring delivery callback that ends with this
  /// call: the merger may run the slot the packet opens inline
  /// (EventMerger::submit_arrival). A caller that keeps working afterwards
  /// must use receive().
  void arrive(std::uint16_t port, net::Packet packet);

  /// Link layer notification; raises a LinkStatusChange event.
  void set_link_status(std::uint16_t port, bool up);

  /// Control-plane -> data-plane event (paper Table 1: Control-Plane
  /// Triggered). Available on both architectures? No: baseline PISA has no
  /// event support at all, so in baseline mode the payload is delivered by
  /// *packet-out emulation* only if `as_packet` facilities are used; this
  /// method counts as refused there.
  bool control_event(const ControlEventData& data);

  /// Control-plane packet-out: inject a packet into the ingress pipeline
  /// from the CPU port (available on every architecture — this is how a
  /// baseline CP emulates generation, per §6 Tofino discussion).
  void inject_from_control_plane(net::Packet packet);

  /// Data-plane -> control-plane messages (program punts).
  std::function<void(const ControlEventData&)> on_punt;

  /// Observer of every departure (port, bytes, the instant the last bit
  /// left), called once per transmitted packet when it is credited to
  /// counters(): at or after the departure, not necessarily in time order.
  /// Call credit_departures() before reading what it collected.
  std::function<void(const TransmitRecord&)> on_departure;

  /// Credit every departure at or before now() that no completion
  /// callback will credit (see counters()).
  void credit_departures() { credit_departed(); }

  /// Configure multicast group `group_id` (must be nonzero) to replicate
  /// to `ports`. A program selects it via std_meta.mcast_group; each
  /// replica is enqueued independently (own enqueue/dequeue events), as in
  /// a PSA packet replication engine. Excess ports are ignored.
  void set_multicast_group(std::uint16_t group_id,
                           std::vector<std::uint16_t> ports);

  /// Register program state for idle-cycle aggregation drains (§4).
  void register_aggregated(AggregatedRegister& reg);

  /// Install an optimizer-emitted dispatch plan (paper §4, Fig. 3: the
  /// merged physical pipeline). Fused TM events run their handler inline
  /// at the observation point; suppressed kinds skip Event construction
  /// and delivery. The default plan (all kQueued) is the seed behavior.
  /// Call after set_program, before traffic.
  void set_dispatch_plan(const DispatchPlan& plan);
  const DispatchPlan& dispatch_plan() const { return plan_; }

  /// Apply all pending aggregated deltas (end-of-run settling for tests).
  void settle();

  // ---- EventContext (facilities handlers may use) ----------------------------

  sim::Time now() const override { return sched_.now(); }
  std::uint64_t cycle() const override { return merger_.current_cycle(); }
  std::uint16_t num_ports() const override { return config_.num_ports; }
  std::uint32_t switch_id() const override { return config_.switch_id; }
  bool link_up(std::uint16_t port) const override;
  std::size_t queue_bytes(std::uint16_t port,
                          std::uint8_t qid) const override;
  bool inject_packet(net::Packet packet) override;
  bool send_packet(net::Packet packet, std::uint16_t port,
                   std::uint8_t qid) override;
  TimerId set_periodic_timer(sim::Time period, std::uint64_t cookie) override;
  TimerId set_oneshot_timer(sim::Time delay, std::uint64_t cookie) override;
  bool cancel_timer(TimerId id) override;
  GeneratorId add_generator(PacketGenerator::Config config) override;
  void trigger_generator(GeneratorId id, std::uint64_t n) override;
  bool set_generator_template(GeneratorId id, net::Packet tmpl) override;
  bool raise_user_event(const UserEventData& data) override;
  void notify_control_plane(const ControlEventData& msg) override;

  // ---- event delivery policy --------------------------------------------------

  /// Enable/disable delivery of one event kind to the program. Defaults
  /// match the SUME prototype: enqueue, dequeue, overflow, timer, link
  /// status, control and user events on; transmit and underflow off (they
  /// fire per packet / per poll and are opt-in).
  void enable_event(EventKind kind, bool enabled);
  bool event_enabled(EventKind kind) const;

  // ---- introspection ----------------------------------------------------------

  const EventSwitchConfig& config() const { return config_; }
  std::uint32_t shard_id() const { return config_.shard_id; }
  /// Credits every departure at or before now() first: a port hands its
  /// packet to a departure-stamped consumer when serialization starts and
  /// schedules no completion unless something needs one (see
  /// try_transmit), so counters() is where such a departure is counted.
  const SwitchCounters& counters() const {
    credit_departed();
    return counters_;
  }
  const EventMerger& merger() const { return merger_; }
  tm_::TrafficManager& traffic_manager() { return tm_; }
  const tm_::TrafficManager& traffic_manager() const { return tm_; }
  pisa::Parser& parser() { return parser_; }
  const TimerBlock& timer_block() const { return timers_; }

  /// Total pipeline cycles elapsed since the first slot (for utilization).
  std::uint64_t cycles_elapsed() const;

  /// Multi-line human-readable statistics dump (counters, merger stats,
  /// per-kind event delivery) for debugging and example output.
  std::string describe() const;

 private:
  struct PortState {
    bool link_up = true;
    /// The port's one consumer: completion-time (connect_tx) or
    /// departure-stamped (connect_link).
    std::function<void(net::Packet)> tx;
    std::function<void(net::Packet, sim::Time)> link;
    /// The last packet put on the wire: departs at `departs`, and is
    /// `owed` to the counters until credited. The port is busy while
    /// now() < departs, or while a completion is scheduled for it.
    sim::Time departs = sim::Time::zero();
    std::uint32_t bytes = 0;
    bool owed = false;
    bool completion = false;  ///< a completion callback fires at departs
  };

  /// One pipeline slot: parse/dispatch the packet, deliver events, route.
  void process_slot(SlotWork&& work);
  void dispatch_event(const Event& ev);
  void route(pisa::Phv&& phv);
  void stamp_arrival(std::uint16_t port, net::Packet& packet);
  void try_transmit(std::uint16_t port);
  /// Put `pkt` on the wire: stamp its departure and hand it over.
  void start_transmit(std::uint16_t port, net::Packet pkt);
  /// Schedule the port's completion callback at its departure; `handoff`
  /// carries the packet for a completion-time consumer.
  void schedule_completion(std::uint16_t port,
                           std::optional<net::Packet> handoff);
  /// The completion callback: hand-off, credit, transmit event, next packet.
  void complete_transmit(std::uint16_t port,
                         std::optional<net::Packet> handoff);
  /// Count the port's owed departure in counters_ (and on_departure).
  void credit(std::uint16_t port) const;
  /// credit() every port whose departure has passed and that has no
  /// completion scheduled (which would credit it itself).
  void credit_departed() const;
  void observe(EventKind kind) {
    ++counters_.observed[static_cast<std::size_t>(kind)];
  }
  /// Submit to the merger if this kind is enabled on this architecture.
  void submit_if_enabled(Event ev);

  sim::Scheduler& sched_;
  EventSwitchConfig config_;
  std::unordered_map<std::uint16_t, std::vector<std::uint16_t>> mcast_;
  EventMerger merger_;
  tm_::TrafficManager tm_;
  TimerBlock timers_;
  /// Same-wake timer events staged for one merger submit_events call
  /// (capacity retained across wakes).
  std::vector<Event> timer_burst_;
  PacketGenerator pktgen_;
  pisa::Parser parser_;
  pisa::Deparser deparser_;
  EventProgram* program_ = nullptr;
  // Mutable for counters(), which credits departures that have passed.
  mutable std::vector<PortState> ports_;
  std::vector<AggregatedRegister*> aggregated_;
  DispatchPlan plan_;
  std::array<bool, kNumEventKinds> deliver_{};
  mutable SwitchCounters counters_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t first_slot_cycle_ = 0;
  bool saw_slot_ = false;
};

}  // namespace edp::core
