// edp::core — the data-plane event model (paper Table 1).
//
// A data-plane event is "an architectural state change that triggers
// processing in the programming model". This file defines the full set of
// thirteen events the paper identifies, each with a typed metadata payload.
// Packet events carry a PHV through the pipeline; the remaining events
// carry small metadata records that the Event Merger places into pipeline
// slots (piggybacked on packets or on injected carrier frames).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <variant>

#include "sim/time.hpp"
#include "tm/traffic_manager.hpp"

namespace edp::core {

/// Table 1: the useful data-plane events.
enum class EventKind : std::uint8_t {
  kIngressPacket,      ///< packet arrived on a port
  kEgressPacket,       ///< packet leaving through the egress pipeline
  kRecirculatedPacket, ///< packet re-submitted to ingress by the program
  kGeneratedPacket,    ///< packet produced by the packet generator
  kPacketTransmitted,  ///< last bit of a packet left a port
  kEnqueue,            ///< packet admitted to a buffer queue
  kDequeue,            ///< packet served from a buffer queue
  kBufferOverflow,     ///< packet dropped at buffer admission
  kBufferUnderflow,    ///< port had nothing to serve
  kTimer,              ///< a configured timer expired
  kControlPlane,       ///< control-plane triggered event
  kLinkStatus,         ///< link went up or down
  kUser,               ///< program-raised event
};

inline constexpr std::size_t kNumEventKinds = 13;

std::string_view to_string(EventKind kind);

/// Timer expiration payload.
struct TimerEventData {
  std::uint32_t timer_id = 0;
  std::uint64_t cookie = 0;           ///< program-chosen value
  sim::Time scheduled_for = sim::Time::zero();
  sim::Time fired_at = sim::Time::zero();  ///< resolution-quantized fire time
};

/// Control-plane triggered payload (an opcode + arguments the program
/// interprets; this is how the CP pokes a running data-plane program).
struct ControlEventData {
  std::uint32_t opcode = 0;
  std::array<std::uint64_t, 4> args{};
};

/// Link status change payload.
struct LinkStatusEventData {
  std::uint16_t port = 0;
  bool up = true;
  sim::Time when = sim::Time::zero();
};

/// Program-raised user event payload.
struct UserEventData {
  std::uint32_t id = 0;
  std::array<std::uint64_t, 4> words{};
};

/// Packet fully serialized out of a port.
struct TransmitRecord {
  std::uint16_t port = 0;
  std::uint32_t pkt_len = 0;
  sim::Time when = sim::Time::zero();
};

/// A queued (non-packet) data-plane event: kind + typed payload + the time
/// the architecture observed it (for delivery-latency accounting).
struct Event {
  EventKind kind = EventKind::kUser;
  sim::Time created = sim::Time::zero();
  std::variant<std::monostate, tm_::EnqueueRecord, tm_::DequeueRecord,
               tm_::DropRecord, tm_::UnderflowRecord, TimerEventData,
               ControlEventData, LinkStatusEventData, UserEventData,
               TransmitRecord>
      data;

  static Event enqueue(tm_::EnqueueRecord r);
  static Event dequeue(tm_::DequeueRecord r);
  static Event overflow(tm_::DropRecord r);
  static Event underflow(tm_::UnderflowRecord r);
  static Event timer(TimerEventData d, sim::Time created);
  static Event control(ControlEventData d, sim::Time created);
  static Event link_status(LinkStatusEventData d);
  static Event user(UserEventData d, sim::Time created);
  static Event transmitted(TransmitRecord r);
};

}  // namespace edp::core
