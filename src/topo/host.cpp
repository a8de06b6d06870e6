#include "topo/host.hpp"

#include <algorithm>
#include <utility>

#include "net/flow.hpp"

namespace edp::topo {

Host::Host(sim::Scheduler& sched, Config config)
    : sched_(sched), config_(std::move(config)) {}

void Host::send(net::Packet packet) {
  const sim::Time start = std::max(sched_.now(), tx_idle_at_);
  tx_idle_at_ =
      start + sim::serialization_time(packet.size(), config_.nic_rate_bps);
  ++tx_packets_;
  if (tx_) {
    tx_(std::move(packet), tx_idle_at_);
  }
}

void Host::receive(net::Packet packet) {
  ++rx_packets_;
  rx_bytes_ += packet.size();
  // Track per-UDP-port arrivals for experiment accounting.
  const net::FiveTuple t = net::extract_five_tuple(packet);
  if (t.protocol == net::kIpProtoUdp) {
    ++rx_by_port_[t.dst_port];
  }
  if (on_receive) {
    on_receive(packet);
  }
}

std::uint64_t Host::rx_on_port(std::uint16_t udp_dst) const {
  const auto it = rx_by_port_.find(udp_dst);
  return it == rx_by_port_.end() ? 0 : it->second;
}

}  // namespace edp::topo
