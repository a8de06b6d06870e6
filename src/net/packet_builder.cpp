#include "net/packet_builder.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

namespace edp::net {
namespace {

/// The payload ramp 0, 1, 2, ..., 255, copied a period at a time.
constexpr std::array<std::uint8_t, 256> kRamp = [] {
  std::array<std::uint8_t, 256> r{};
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(i);
  }
  return r;
}();

}  // namespace

PacketBuilder::PacketBuilder() : ipv4_off_(SIZE_MAX), udp_off_(SIZE_MAX) {}

void PacketBuilder::arm() {
  if (!armed_) {
    // A pooled zero-size buffer, so layer-by-layer growth runs in recycled
    // capacity instead of allocating per packet. Taken on first use rather
    // than at construction and after build(), so a one-shot builder takes
    // one buffer.
    pkt_ = Packet(std::size_t{0});
    armed_ = true;
  }
}

std::size_t PacketBuilder::extend(std::size_t bytes) {
  arm();
  const std::size_t off = pkt_.size();
  pkt_.pad_to(off + bytes);
  return off;
}

PacketBuilder& PacketBuilder::ethernet(MacAddress src, MacAddress dst,
                                       std::uint16_t ether_type) {
  const std::size_t off = extend(EthernetHeader::kSize);
  EthernetHeader h;
  h.src = src;
  h.dst = dst;
  h.ether_type = ether_type;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
  // The Ethernet layer must already be present; rewrite its ether_type to
  // VLAN and carry the original type into the tag.
  assert(pkt_.size() >= EthernetHeader::kSize);
  const std::uint16_t inner_type = pkt_.u16(12);
  pkt_.set_u16(12, kEtherTypeVlan);
  const std::size_t off = extend(VlanHeader::kSize);
  VlanHeader h;
  h.vid = vid;
  h.pcp = pcp;
  h.ether_type = inner_type;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::ipv4(Ipv4Address src, Ipv4Address dst,
                                   std::uint8_t protocol, std::uint8_t ttl,
                                   std::uint8_t dscp) {
  ipv4_off_ = extend(Ipv4Header::kSize);
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = protocol;
  h.ttl = ttl;
  h.dscp = dscp;
  h.encode(pkt_, ipv4_off_);
  return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  udp_off_ = extend(UdpHeader::kSize);
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.encode(pkt_, udp_off_);
  return *this;
}

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port,
                                  std::uint16_t dst_port, std::uint32_t seq,
                                  std::uint8_t flags) {
  const std::size_t off = extend(TcpHeader::kSize);
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.seq = seq;
  h.flags = flags;
  h.window = 0xffff;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::hula_probe(const HulaProbeHeader& h) {
  const std::size_t off = extend(HulaProbeHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::liveness(const LivenessHeader& h) {
  const std::size_t off = extend(LivenessHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::int_report(const IntReportHeader& h) {
  const std::size_t off = extend(IntReportHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::kv(const KvHeader& h) {
  const std::size_t off = extend(KvHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::size_t n) {
  // Append the 0, 1, 2, ... ramp from the table: no zero fill to overwrite
  // and no per-byte loop. Reserving first grows the buffer at most once.
  arm();
  pkt_.reserve(pkt_.size() + n);
  for (std::size_t left = n; left > 0;) {
    const std::size_t k = std::min(left, kRamp.size());
    pkt_.append(std::span<const std::uint8_t>(kRamp.data(), k));
    left -= k;
  }
  return *this;
}

PacketBuilder& PacketBuilder::pad_to(std::size_t n) {
  arm();
  pkt_.reserve(n);
  min_size_ = n;
  return *this;
}

Packet PacketBuilder::build() {
  arm();
  pkt_.pad_to(min_size_);
  if (ipv4_off_ != SIZE_MAX) {
    auto ip = Ipv4Header::decode(pkt_, ipv4_off_);
    ip.total_length =
        static_cast<std::uint16_t>(pkt_.size() - ipv4_off_);
    ip.update_checksum();
    ip.encode(pkt_, ipv4_off_);
  }
  if (udp_off_ != SIZE_MAX) {
    auto udp = UdpHeader::decode(pkt_, udp_off_);
    udp.length = static_cast<std::uint16_t>(pkt_.size() - udp_off_);
    udp.encode(pkt_, udp_off_);
  }
  armed_ = false;  // the next layer takes a fresh buffer
  ipv4_off_ = udp_off_ = SIZE_MAX;
  min_size_ = 0;
  return std::move(pkt_);
}

Packet make_udp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::size_t total_size) {
  constexpr std::size_t kHeaders =
      EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;
  const std::size_t payload =
      total_size > kHeaders ? total_size - kHeaders : 0;
  // pad_to() first: the buffer is sized once, before any layer.
  return PacketBuilder()
      .pad_to(total_size)
      .ethernet(MacAddress::from_u64(0x020000000001),
                MacAddress::from_u64(0x020000000002))
      .ipv4(src, dst, kIpProtoUdp)
      .udp(src_port, dst_port)
      .payload(payload)
      .build();
}

}  // namespace edp::net
