// edp::net — fluent packet construction for hosts, generators, and tests.
#pragma once

#include <cstdint>

#include "net/headers.hpp"
#include "net/packet.hpp"

namespace edp::net {

/// Builds a well-formed packet layer by layer, filling lengths and
/// checksums at `build()` time. Layers must be added outermost-first.
///
///   Packet p = PacketBuilder()
///       .ethernet(src_mac, dst_mac)
///       .ipv4(src_ip, dst_ip, kIpProtoUdp)
///       .udp(1234, 80)
///       .payload(512)
///       .build();
class PacketBuilder {
 public:
  PacketBuilder();

  PacketBuilder& ethernet(MacAddress src, MacAddress dst,
                          std::uint16_t ether_type = kEtherTypeIpv4);
  PacketBuilder& vlan(std::uint16_t vid, std::uint8_t pcp = 0);
  PacketBuilder& ipv4(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                      std::uint8_t ttl = 64, std::uint8_t dscp = 0);
  PacketBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
  PacketBuilder& tcp(std::uint16_t src_port, std::uint16_t dst_port,
                     std::uint32_t seq = 0, std::uint8_t flags = 0x10);
  PacketBuilder& hula_probe(const HulaProbeHeader& h);
  PacketBuilder& liveness(const LivenessHeader& h);
  PacketBuilder& int_report(const IntReportHeader& h);
  PacketBuilder& kv(const KvHeader& h);

  /// Append `n` deterministic payload bytes.
  PacketBuilder& payload(std::size_t n);
  /// Pad the final packet to at least `n` bytes (min Ethernet frame = 60
  /// without FCS). Also reserves `n` bytes, so called before the layers it
  /// sizes the buffer once for all of them.
  PacketBuilder& pad_to(std::size_t n);

  /// Finalize: patch IPv4 total_length + checksum and UDP length, then
  /// return the packet. The builder is left empty.
  Packet build();

 private:
  /// Take the builder's buffer from the pool if it has none yet.
  void arm();
  /// Grow the packet by `bytes` zeros at the end and return the old size
  /// (the offset the new layer starts at).
  std::size_t extend(std::size_t bytes);

  Packet pkt_;
  bool armed_ = false;  ///< pkt_ holds a pooled buffer
  // Offsets of headers that need length/checksum back-patching; SIZE_MAX
  // when the layer is absent.
  std::size_t ipv4_off_;
  std::size_t udp_off_;
  std::size_t min_size_ = 0;
};

/// Convenience: a minimal UDP packet of `total_size` bytes on the wire.
Packet make_udp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::size_t total_size);

}  // namespace edp::net
