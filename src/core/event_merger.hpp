// edp::core — the Event Merger (paper §5, Figure 4).
//
// "The Event Merger is responsible for gathering all new events and placing
// them into metadata that flows through the pipeline. If there are no
// ingress packets for the metadata to piggyback onto, the Event Merger
// generates an empty packet, attaches the event metadata and injects it
// into the P4 pipeline."
//
// The model is cycle-slotted: the P4 pipeline accepts one PHV per clock
// cycle. Each slot carries either an ingress packet (with up to one pending
// event of each kind piggybacked as metadata — the SUME metadata bus has a
// dedicated field per event type) or, when no packet is waiting, an empty
// carrier frame bearing the pending event metadata. Event FIFOs are
// bounded; overflow drops are counted per kind, which is precisely the
// capacity pressure §4/§5 discuss.
//
// The merger is event-driven for efficiency: slots are only simulated when
// there is work, and slot times stay aligned to the clock grid, so cycle
// indices are exact.
//
// Inline slots: where a slot's scheduler round trip is already implied by
// timing, the slot runs in place instead. A slot ends by running the next
// one inline, and a link or ring delivery (submit_arrival) runs the slot it
// opens inline, each time only if sim::Scheduler::try_advance says nothing
// else is due first — exactly when the scheduled callback would have been
// the next to fire. Slot times, cycles and contents never move; only the
// number of scheduler callbacks falls (docs/PERFORMANCE.md).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/event.hpp"
#include "net/packet.hpp"
#include "sim/object_pool.hpp"
#include "sim/ring_queue.hpp"
#include "sim/scheduler.hpp"

namespace edp::core {

/// How a packet entered the pipeline.
enum class PacketOrigin : std::uint8_t {
  kIngress,       ///< arrived on a front-panel port
  kRecirculated,  ///< resubmitted by the program
  kGenerated,     ///< produced by the packet generator
};

struct MergerConfig {
  sim::Time cycle_time = sim::Time::nanos(5);  ///< 200 MHz pipeline
  /// Sub-cycle phase of this switch's clock: slot k runs at
  /// `k * cycle_time + clock_phase`. Switches are independent clock
  /// domains; giving each a distinct phase (as unsynchronized hardware
  /// oscillators have) keeps two switches from ever processing events at
  /// the same picosecond — the one ordering case the parallel runtime's
  /// determinism contract excludes (docs/RUNTIME.md). Must be
  /// non-negative and smaller than cycle_time.
  sim::Time clock_phase = sim::Time::zero();
  std::size_t packet_fifo_depth = 256;         ///< ingress backlog (packets)
  std::size_t event_fifo_depth = 64;           ///< per event kind
  /// Events of one kind attachable to a single PHV (metadata bus width).
  std::size_t events_per_kind_per_slot = 1;
  /// Total events per slot across all kinds (the shared metadata budget).
  /// Default: no extra cap beyond the per-kind fields. When slots are
  /// scarce this budget is what the priority policy arbitrates.
  std::size_t events_per_slot = kNumEventKinds;
  /// Paper §4 future work: "how memory accesses are scheduled, depending
  /// on which events are the most important and urgent, and whether
  /// priorities are assigned by the programmer, the compiler, or the
  /// hardware." Here the *programmer* assigns a priority per event kind
  /// (higher = more urgent); under a constrained events_per_slot budget,
  /// pending events are granted metadata space in priority order.
  /// All-equal priorities reproduce the plain per-kind round robin.
  std::array<int, kNumEventKinds> priority{};
};

/// The work assigned to one pipeline slot.
struct SlotWork {
  std::uint64_t cycle = 0;          ///< absolute clock cycle index
  sim::Time time = sim::Time::zero();
  std::optional<net::Packet> packet;
  PacketOrigin origin = PacketOrigin::kIngress;
  std::vector<Event> events;        ///< piggybacked / carrier-borne events
  bool carrier = false;             ///< true when events ride an empty frame
};

/// Per-event-kind delivery statistics.
struct EventKindStats {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;          ///< FIFO overflow
  sim::Time wait_sum = sim::Time::zero();
  sim::Time wait_max = sim::Time::zero();

  sim::Time wait_mean() const {
    return delivered == 0 ? sim::Time::zero()
                          : sim::Time(wait_sum.ps() /
                                      static_cast<std::int64_t>(delivered));
  }
};

class EventMerger {
 public:
  EventMerger(sim::Scheduler& sched, MergerConfig config);

  /// Slot consumer (the EventSwitch's pipeline dispatch).
  std::function<void(SlotWork&&)> on_slot;  // hotpath-ok: installed once, invoked in place

  /// Submit a packet for pipeline processing. False (and counted) if the
  /// ingress backlog is full.
  bool submit_packet(net::Packet packet, PacketOrigin origin);

  /// submit_packet for a link or ring delivery callback that ends with
  /// this call: when the packet opens a slot and nothing else is due
  /// first, the slot runs inline (now() moves to the slot time) instead of
  /// being scheduled. A caller that keeps working afterwards must use
  /// submit_packet.
  bool submit_arrival(net::Packet packet);

  /// Submit a non-packet event. False (and counted) if that kind's FIFO is
  /// full — a genuinely dropped event, as in hardware.
  bool submit_event(Event event);

  /// Submit a burst of events with a single slot-pump at the end instead of
  /// one per event (the TimerBlock's coalesced same-tick expirations arrive
  /// here). Per-event FIFO admission is identical to submit_event — and so
  /// is the scheduled slot, since intermediate pumps are no-ops once the
  /// first event has a slot pending. Returns the number accepted.
  std::size_t submit_events(Event* events, std::size_t n);

  /// Return a consumed slot's event vector to the merger's pool so the next
  /// slot reuses its capacity instead of allocating. Consumers call this
  /// once they are done with the SlotWork they received via on_slot.
  void recycle(SlotWork&& work) {
    event_vectors_.release(std::move(work.events));
  }

  /// Allocator-traffic statistics for the slot event-vector pool.
  const sim::PoolStats& event_vector_pool_stats() const {
    return event_vectors_.stats();
  }

  // ---- cycle bookkeeping ----------------------------------------------------

  /// Clock cycle index corresponding to `t` on this merger's grid.
  std::uint64_t cycle_at(sim::Time t) const {
    const std::int64_t rel = t.ps() - config_.clock_phase.ps();
    return rel <= 0 ? 0
                    : static_cast<std::uint64_t>(rel /
                                                 config_.cycle_time.ps());
  }
  std::uint64_t current_cycle() const { return cycle_at(sched_.now()); }

  /// Idle cycles between the previous slot and the most recent one (spare
  /// pipeline bandwidth the switch may use for aggregation drains).
  std::uint64_t last_gap_cycles() const { return last_gap_cycles_; }

  // ---- statistics -----------------------------------------------------------

  const EventKindStats& kind_stats(EventKind kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t slots_total() const { return slots_total_; }
  std::uint64_t slots_with_packet() const { return slots_with_packet_; }
  std::uint64_t slots_carrier() const { return slots_carrier_; }
  std::uint64_t events_piggybacked() const { return events_piggybacked_; }
  std::uint64_t events_on_carrier() const { return events_on_carrier_; }
  std::uint64_t packet_backlog_drops() const { return packet_drops_; }
  std::size_t packet_backlog() const { return packets_.size(); }
  std::size_t event_backlog() const;

  const MergerConfig& config() const { return config_; }

 private:
  struct PendingPacket {
    net::Packet packet;
    PacketOrigin origin;
  };

  /// Ensure a slot callback is scheduled if there is work. Deferred while
  /// a slot body runs: the slot's tail pumps (or runs the next slot).
  void pump();
  /// The scheduled slot callback.
  void run_slot();
  /// Run the slot due at now(), then each next one inline while the
  /// scheduler allows; schedule the first one it does not. Call only as
  /// the last act of a callback, with work pending and no slot scheduled.
  void run_slots();
  /// One pipeline slot at now().
  void slot_body();
  /// The next slot's time: the later of the next free pipeline cycle and
  /// the grid point at/after now().
  sim::Time next_slot_time() const;
  bool has_work() const { return !packets_.empty() || pending_ranks_ != 0; }

  /// Push one packet into the ingress FIFO (false and counted if it is
  /// full); the caller is responsible for pumping.
  bool admit_packet(net::Packet&& packet, PacketOrigin origin);
  /// Push one event into its kind FIFO (stats + overflow drop); the caller
  /// is responsible for pumping.
  bool admit_event(Event&& event);

  sim::Scheduler& sched_;
  MergerConfig config_;
  /// Kind indices sorted by programmer-assigned priority (stable by kind
  /// index on ties) — fixed at construction, consulted every slot.
  std::array<std::size_t, kNumEventKinds> order_{};
  /// rank_[kind] = its position in order_.
  std::array<std::size_t, kNumEventKinds> rank_{};
  /// Bit r set iff fifos_[order_[r]] is non-empty: has_work() is one test
  /// and a slot's attach loop visits only non-empty kinds, in priority
  /// order.
  std::uint32_t pending_ranks_ = 0;
  static_assert(kNumEventKinds <= 32, "pending_ranks_ holds one bit a kind");
  sim::RingQueue<PendingPacket> packets_;
  std::array<sim::RingQueue<Event>, kNumEventKinds> fifos_;
  /// Recycled SlotWork::events vectors (filled by run_slot, returned by the
  /// consumer via recycle()); capacity is retained across slots.
  sim::ObjectPool<std::vector<Event>> event_vectors_;
  std::array<EventKindStats, kNumEventKinds> stats_{};

  sim::Time next_slot_time_ = sim::Time::zero();
  std::uint64_t last_slot_cycle_ = 0;
  bool first_slot_done_ = false;
  std::uint64_t last_gap_cycles_ = 0;
  bool slot_scheduled_ = false;
  bool in_slot_ = false;  ///< a slot body is running (pumps deferred)

  std::uint64_t slots_total_ = 0;
  std::uint64_t slots_with_packet_ = 0;
  std::uint64_t slots_carrier_ = 0;
  std::uint64_t events_piggybacked_ = 0;
  std::uint64_t events_on_carrier_ = 0;
  std::uint64_t packet_drops_ = 0;
};

}  // namespace edp::core
