// edp::topo — point-to-point links with failure injection.
//
// A link carries packets between two endpoints with a propagation delay.
// Serialization pacing belongs to the *sender* (switch port / host NIC), so
// the link models propagation and up/down state only. Failing a link drops
// packets that depart while it is down and notifies both endpoints' status
// callbacks — which is what raises LinkStatusChange events in attached
// switches (paper Table 1) and what the FRR / liveness experiments exercise.
//
// Senders are departure-stamped: they hand a packet over when its
// serialization starts, with its departure (the instant its last bit
// leaves). The link schedules one delivery callback at departure + delay
// and decides up/down *at the departure* from a short log of its recent
// state changes — so a failure during serialization still drops the packet
// and one after the departure does not, exactly as if the packet had been
// handed over at its departure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace edp::topo {

class Link {
 public:
  struct Config {
    sim::Time delay = sim::Time::micros(1);  ///< propagation, per direction
    bool up = true;
  };

  /// One attachment point of the link.
  struct End {
    std::function<void(net::Packet)> deliver;  ///< packet to the endpoint
    std::function<void(bool)> status;          ///< link state to the endpoint
  };

  Link(sim::Scheduler& sched, Config config)
      : sched_(sched), config_(config), up_(config.up) {}

  End& end_a() { return a_; }
  End& end_b() { return b_; }

  /// Called by endpoint A's transmitter with the packet's departure (>=
  /// now()); delivers to B at departure + delay if the link is up at the
  /// departure.
  void send_a_to_b(net::Packet p, sim::Time departure) {
    send(p, departure, /*to_b=*/true);
  }
  void send_b_to_a(net::Packet p, sim::Time departure) {
    send(p, departure, /*to_b=*/false);
  }

  bool up() const { return up_; }

  /// Change link state now; notifies both ends. In-flight packets (already
  /// propagating) still arrive; packets that depart while down are lost.
  void set_up(bool up);

  /// Schedule a failure / recovery.
  void fail_at(sim::Time t) {
    sched_.at(t, [this] { set_up(false); });
  }
  void recover_at(sim::Time t) {
    sched_.at(t, [this] { set_up(true); });
  }

  std::uint64_t delivered() const { return delivered_; }
  /// Packets lost to a down link, each counted at its would-be arrival,
  /// when the link decides.
  std::uint64_t dropped_down() const { return dropped_down_; }
  const Config& config() const { return config_; }

  /// State changes the log keeps within one propagation delay; a link
  /// that changes state more often than this decides the oldest
  /// departures as if the earliest changes had not happened.
  static constexpr std::size_t kLogCapacity = 16;

 private:
  struct Change {
    sim::Time at;
    bool up;  ///< state from `at` on
  };

  void send(net::Packet& p, sim::Time departure, bool to_b);
  /// State at `t` (a change at exactly `t` applies). Pre: t >= now() -
  /// delay, which every delivery callback's query meets.
  bool up_at(sim::Time t) const;

  sim::Scheduler& sched_;
  Config config_;
  bool up_;
  /// Ring of recent state changes, oldest first. Changes at or before
  /// now() - delay are forgotten: no pending delivery can ask about them.
  std::array<Change, kLogCapacity> log_{};
  std::size_t log_head_ = 0;
  std::size_t log_size_ = 0;
  End a_;
  End b_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_down_ = 0;
};

}  // namespace edp::topo
