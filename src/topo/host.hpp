// edp::topo — end hosts.
//
// A host is a NIC with an address, transmit pacing (so traffic generators
// can exceed the NIC rate without teleporting bytes), and a receive hook
// for applications (sinks, KV servers, monitors). Receive statistics are
// kept per UDP destination port, which is how the experiments separate
// concurrent flows and protocols.
//
// The NIC is a fixed-rate FIFO, so send() knows each packet's departure
// (the instant its last bit leaves) the moment it is queued: the packet
// goes straight to the departure-stamped consumer (a Link, or a cut-link
// ring), which acts on it from the departure on. No queue, no callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace edp::topo {

class Host {
 public:
  struct Config {
    std::string name = "h0";
    net::MacAddress mac;
    net::Ipv4Address ip;
    double nic_rate_bps = 10e9;
  };

  Host(sim::Scheduler& sched, Config config);

  const std::string& name() const { return config_.name; }
  net::MacAddress mac() const { return config_.mac; }
  net::Ipv4Address ip() const { return config_.ip; }

  /// Wire the NIC to a departure-stamped consumer (set by
  /// Network::connect_host): called from send() with the packet and its
  /// departure.
  void connect_tx(std::function<void(net::Packet, sim::Time)> tx) {
    tx_ = std::move(tx);
  }

  /// Transmit a packet, paced at the NIC rate: it departs one
  /// serialization time after the NIC finishes everything sent before it.
  void send(net::Packet packet);

  /// Entry point for packets arriving from the link.
  void receive(net::Packet packet);

  /// Application receive hook (runs after statistics are recorded).
  std::function<void(const net::Packet&)> on_receive;

  // ---- statistics -----------------------------------------------------------
  /// Packets handed to the NIC; each has left by tx_idle_at().
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  /// Packets received with the given UDP destination port.
  std::uint64_t rx_on_port(std::uint16_t udp_dst) const;
  /// The departure of the last packet sent: the NIC is busy until then.
  sim::Time tx_idle_at() const { return tx_idle_at_; }

 private:
  sim::Scheduler& sched_;
  Config config_;
  std::function<void(net::Packet, sim::Time)> tx_;
  sim::Time tx_idle_at_ = sim::Time::zero();

  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::unordered_map<std::uint16_t, std::uint64_t> rx_by_port_;
};

}  // namespace edp::topo
