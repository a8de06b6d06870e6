#include "pisa/deparser.hpp"

#include <algorithm>

namespace edp::pisa {
namespace {

/// Wire bytes the valid headers of `phv` occupy.
std::size_t header_bytes(const Phv& phv) {
  std::size_t n = 0;
  n += phv.eth ? net::EthernetHeader::kSize : 0;
  n += phv.vlan ? net::VlanHeader::kSize : 0;
  n += phv.ipv4 ? net::Ipv4Header::kSize : 0;
  if (phv.tcp) {
    n += net::TcpHeader::kSize;
  } else if (phv.udp) {
    n += net::UdpHeader::kSize;
  }
  n += phv.hula ? net::HulaProbeHeader::kSize : 0;
  n += phv.liveness ? net::LivenessHeader::kSize : 0;
  n += phv.kv ? net::KvHeader::kSize : 0;
  n += phv.int_report ? net::IntReportHeader::kSize : 0;
  return n;
}

/// The one header-emit routine behind both deparse forms: encodes the valid
/// headers outermost-first over bytes [0, header_bytes(phv)) of `out`,
/// whose size is already the final wire size. The IPv4 total length and
/// checksum and the UDP length are computed from that size.
void emit_headers(const Phv& phv, net::Packet& out) {
  const std::size_t total = out.size();
  std::size_t off = 0;
  if (phv.eth) {
    auto eth = *phv.eth;
    // Keep the EtherType chain consistent with header validity.
    if (phv.vlan) {
      eth.ether_type = net::kEtherTypeVlan;
    }
    eth.encode(out, off);
    off += net::EthernetHeader::kSize;
  }
  if (phv.vlan) {
    phv.vlan->encode(out, off);
    off += net::VlanHeader::kSize;
  }
  if (phv.ipv4) {
    auto ip = *phv.ipv4;
    ip.total_length = static_cast<std::uint16_t>(total - off);
    ip.update_checksum();
    ip.encode(out, off);
    off += net::Ipv4Header::kSize;
  }
  if (phv.tcp) {
    phv.tcp->encode(out, off);
    off += net::TcpHeader::kSize;
  } else if (phv.udp) {
    auto udp = *phv.udp;
    udp.length = static_cast<std::uint16_t>(total - off);
    udp.encode(out, off);
    off += net::UdpHeader::kSize;
  }
  if (phv.hula) {
    phv.hula->encode(out, off);
    off += net::HulaProbeHeader::kSize;
  }
  if (phv.liveness) {
    phv.liveness->encode(out, off);
    off += net::LivenessHeader::kSize;
  }
  if (phv.kv) {
    phv.kv->encode(out, off);
    off += net::KvHeader::kSize;
  }
  if (phv.int_report) {
    phv.int_report->encode(out, off);
  }
}

}  // namespace

net::Packet Deparser::deparse(const Phv& phv) const {
  const std::size_t headers = header_bytes(phv);
  const auto src = phv.packet.bytes();
  const std::size_t tail =
      phv.payload_offset < src.size() ? src.size() - phv.payload_offset : 0;
  // One pooled buffer of the final size: the payload copy and the header
  // encode both write into recycled capacity.
  net::Packet out(headers + tail);
  std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(src.size() - tail),
              tail, out.bytes().begin() + static_cast<std::ptrdiff_t>(headers));
  emit_headers(phv, out);
  out.meta() = phv.packet.meta();
  return out;
}

net::Packet Deparser::deparse(Phv&& phv) const {
  if (phv.payload_offset > phv.packet.size() ||
      header_bytes(phv) != phv.payload_offset) {
    return deparse(static_cast<const Phv&>(phv));
  }
  emit_headers(phv, phv.packet);
  return std::move(phv.packet);
}

}  // namespace edp::pisa
