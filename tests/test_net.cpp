// Unit tests for edp::net — addresses, packets, header codecs, checksums,
// flow identification, and the packet builder.
#include <gtest/gtest.h>

#include <algorithm>

#include <utility>

#include "net/address.hpp"
#include "net/checksum.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/packet_builder.hpp"
#include "net/pcap.hpp"

namespace edp::net {
namespace {

// ---- addresses -------------------------------------------------------------

TEST(MacAddress, RoundTripU64) {
  const auto mac = MacAddress::from_u64(0x0123456789abULL);
  EXPECT_EQ(mac.to_u64(), 0x0123456789abULL);
  EXPECT_EQ(mac.to_string(), "01:23:45:67:89:ab");
}

TEST(MacAddress, ParseAndBroadcast) {
  EXPECT_EQ(MacAddress::parse("de:ad:be:ef:00:01").to_u64(),
            0xdeadbeef0001ULL);
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::from_u64(1).is_broadcast());
}

TEST(Ipv4Address, OctetsAndString) {
  const Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.value(), 0x0a010203U);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address::parse("192.168.0.1").value(), 0xc0a80001U);
}

TEST(Ipv4Address, PrefixMatching) {
  const Ipv4Address net(10, 1, 2, 0);
  EXPECT_TRUE(net.matches_prefix(Ipv4Address(10, 1, 2, 200), 24));
  EXPECT_FALSE(net.matches_prefix(Ipv4Address(10, 1, 3, 1), 24));
  EXPECT_TRUE(net.matches_prefix(Ipv4Address(10, 1, 3, 1), 16));
  EXPECT_TRUE(net.matches_prefix(Ipv4Address(99, 9, 9, 9), 0));
  EXPECT_TRUE(net.matches_prefix(net, 32));
}

// ---- packet bytes -----------------------------------------------------------

TEST(Packet, BigEndianAccessors) {
  Packet p(16);
  p.set_u16(0, 0x1234);
  p.set_u32(2, 0xdeadbeef);
  p.set_u64(6, 0x0102030405060708ULL);
  EXPECT_EQ(p.u8(0), 0x12);
  EXPECT_EQ(p.u8(1), 0x34);
  EXPECT_EQ(p.u16(0), 0x1234);
  EXPECT_EQ(p.u32(2), 0xdeadbeefU);
  EXPECT_EQ(p.u64(6), 0x0102030405060708ULL);
  // Wire layout is truly big-endian.
  EXPECT_EQ(p.u8(2), 0xde);
  EXPECT_EQ(p.u8(5), 0xef);
}

TEST(Packet, AppendPadStrip) {
  Packet p;
  const std::uint8_t data[] = {1, 2, 3};
  p.append(data);
  EXPECT_EQ(p.size(), 3u);
  p.pad_to(8);
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p.u8(7), 0);
  p.pad_to(4);  // never shrinks
  EXPECT_EQ(p.size(), 8u);
  p.strip_front(2);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.u8(0), 3);
  p.strip_front(100);
  EXPECT_TRUE(p.empty());
}

TEST(Packet, InsertZeros) {
  Packet p(4);
  p.set_u32(0, 0x01020304);
  p.insert_zeros(2, 2);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.u8(0), 1);
  EXPECT_EQ(p.u8(1), 2);
  EXPECT_EQ(p.u8(2), 0);
  EXPECT_EQ(p.u8(3), 0);
  EXPECT_EQ(p.u8(4), 3);
}

// ---- checksum ---------------------------------------------------------------

TEST(Checksum, Rfc1071Example) {
  // Classic example: checksum of {00 01 f2 03 f4 f5 f6 f7} = 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                               0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, VerifiesToZeroWithChecksumEmbedded) {
  Packet p(20);
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.protocol = kIpProtoUdp;
  h.total_length = 60;
  h.update_checksum();
  h.encode(p, 0);
  EXPECT_EQ(internet_checksum(p.bytes()), 0);
  EXPECT_TRUE(h.checksum_ok());
}

TEST(Checksum, OddLengthAndAccumulatorConsistency) {
  const std::uint8_t data[] = {0xab, 0xcd, 0xef};
  const std::uint16_t direct = internet_checksum(data);
  ChecksumAccumulator acc;
  acc.add(std::span<const std::uint8_t>(data, 1));
  acc.add(std::span<const std::uint8_t>(data + 1, 2));
  EXPECT_EQ(acc.finish(), direct);
}

TEST(Checksum, DetectsCorruption) {
  Packet p(20);
  Ipv4Header h;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  h.update_checksum();
  h.encode(p, 0);
  p.set_u8(12, p.u8(12) ^ 0x01);  // flip one bit of src
  EXPECT_NE(internet_checksum(p.bytes()), 0);
}

// ---- header codecs -----------------------------------------------------------

TEST(Headers, EthernetRoundTrip) {
  Packet p(EthernetHeader::kSize);
  EthernetHeader h;
  h.dst = MacAddress::from_u64(0x112233445566);
  h.src = MacAddress::from_u64(0xaabbccddeeff);
  h.ether_type = kEtherTypeIpv4;
  h.encode(p, 0);
  const auto d = EthernetHeader::decode(p, 0);
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.ether_type, h.ether_type);
}

TEST(Headers, VlanRoundTrip) {
  Packet p(VlanHeader::kSize);
  VlanHeader h;
  h.pcp = 5;
  h.dei = true;
  h.vid = 0xabc;
  h.ether_type = kEtherTypeIpv4;
  h.encode(p, 0);
  const auto d = VlanHeader::decode(p, 0);
  EXPECT_EQ(d.pcp, 5);
  EXPECT_TRUE(d.dei);
  EXPECT_EQ(d.vid, 0xabc);
  EXPECT_EQ(d.ether_type, kEtherTypeIpv4);
}

TEST(Headers, Ipv4RoundTrip) {
  Packet p(Ipv4Header::kSize);
  Ipv4Header h;
  h.dscp = 46;
  h.ecn = 2;
  h.total_length = 1500;
  h.identification = 0x5555;
  h.ttl = 17;
  h.protocol = kIpProtoTcp;
  h.src = Ipv4Address(172, 16, 0, 9);
  h.dst = Ipv4Address(172, 16, 1, 1);
  h.update_checksum();
  h.encode(p, 0);
  const auto d = Ipv4Header::decode(p, 0);
  EXPECT_EQ(d.dscp, 46);
  EXPECT_EQ(d.ecn, 2);
  EXPECT_EQ(d.total_length, 1500);
  EXPECT_EQ(d.identification, 0x5555);
  EXPECT_EQ(d.ttl, 17);
  EXPECT_EQ(d.protocol, kIpProtoTcp);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_TRUE(d.checksum_ok());
}

TEST(Headers, UdpTcpRoundTrip) {
  Packet p(TcpHeader::kSize);
  TcpHeader t;
  t.src_port = 4242;
  t.dst_port = 80;
  t.seq = 0xdeadbeef;
  t.ack = 0x01020304;
  t.flags = 0x12;  // SYN|ACK
  t.window = 0xffff;
  t.encode(p, 0);
  const auto td = TcpHeader::decode(p, 0);
  EXPECT_EQ(td.src_port, 4242);
  EXPECT_EQ(td.seq, 0xdeadbeefU);
  EXPECT_EQ(td.flags, 0x12);

  Packet q(UdpHeader::kSize);
  UdpHeader u;
  u.src_port = 1111;
  u.dst_port = kPortKvCache;
  u.length = 28;
  u.encode(q, 0);
  const auto ud = UdpHeader::decode(q, 0);
  EXPECT_EQ(ud.dst_port, kPortKvCache);
  EXPECT_EQ(ud.length, 28);
}

TEST(Headers, AppHeadersRoundTrip) {
  Packet p(HulaProbeHeader::kSize);
  HulaProbeHeader hp{7, 850, 123456789012ULL};
  hp.encode(p, 0);
  const auto hd = HulaProbeHeader::decode(p, 0);
  EXPECT_EQ(hd.tor_id, 7u);
  EXPECT_EQ(hd.path_util_permille, 850u);
  EXPECT_EQ(hd.origin_ts_ps, 123456789012ULL);

  Packet q(LivenessHeader::kSize);
  LivenessHeader lh;
  lh.kind = LivenessHeader::kReply;
  lh.seq = 99;
  lh.sender_id = 3;
  lh.ts_ps = 42;
  lh.encode(q, 0);
  const auto ld = LivenessHeader::decode(q, 0);
  EXPECT_EQ(ld.kind, LivenessHeader::kReply);
  EXPECT_EQ(ld.seq, 99);
  EXPECT_EQ(ld.sender_id, 3u);

  Packet r(IntReportHeader::kSize);
  IntReportHeader ih;
  ih.switch_id = 2;
  ih.queue_id = 1;
  ih.flags = IntReportHeader::kFlagAnomaly;
  ih.queue_depth_bytes = 65536;
  ih.active_flows = 12;
  ih.drops = 3;
  ih.ts_ps = 777;
  ih.encode(r, 0);
  const auto id = IntReportHeader::decode(r, 0);
  EXPECT_EQ(id.queue_depth_bytes, 65536u);
  EXPECT_EQ(id.flags, IntReportHeader::kFlagAnomaly);
  EXPECT_EQ(id.drops, 3u);

  Packet s(KvHeader::kSize);
  KvHeader kh;
  kh.op = KvHeader::kSet;
  kh.seq = 5;
  kh.key = 0x1122334455667788ULL;
  kh.value = 0x99aabbccddeeff00ULL;
  kh.encode(s, 0);
  const auto kd = KvHeader::decode(s, 0);
  EXPECT_EQ(kd.op, KvHeader::kSet);
  EXPECT_EQ(kd.key, kh.key);
  EXPECT_EQ(kd.value, kh.value);
}

// ---- flow identification --------------------------------------------------------

TEST(Flow, Crc32KnownVector) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xcbf43926U);  // standard CRC-32 check value
}

TEST(Flow, FnvDiffersBySeed) {
  const std::uint8_t data[] = {1, 2, 3};
  EXPECT_NE(fnv1a(data, 1), fnv1a(data, 2));
}

TEST(Flow, SrcDstHashIsDirectional) {
  const Ipv4Address a(10, 0, 0, 1), b(10, 0, 0, 2);
  EXPECT_NE(flow_id_src_dst(a, b), flow_id_src_dst(b, a));
  EXPECT_EQ(flow_id_src_dst(a, b), flow_id_src_dst(a, b));
}

TEST(Flow, ExtractFiveTupleFromUdpPacket) {
  const Packet p = make_udp_packet(Ipv4Address(10, 0, 0, 1),
                                   Ipv4Address(10, 0, 1, 2), 5555, 8888, 200);
  const FiveTuple t = extract_five_tuple(p);
  EXPECT_EQ(t.src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(t.dst, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(t.src_port, 5555);
  EXPECT_EQ(t.dst_port, 8888);
  EXPECT_EQ(t.protocol, kIpProtoUdp);
}

TEST(Flow, ExtractFiveTupleNonIpIsZero) {
  Packet p(64);
  EthernetHeader eth;
  eth.ether_type = kEtherTypeLiveness;
  eth.encode(p, 0);
  const FiveTuple t = extract_five_tuple(p);
  EXPECT_EQ(t.src.value(), 0u);
  EXPECT_EQ(t.protocol, 0);
}

TEST(Flow, ExtractFiveTupleThroughVlan) {
  Packet p = PacketBuilder()
                 .ethernet(MacAddress::from_u64(1), MacAddress::from_u64(2))
                 .vlan(100)
                 .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                       kIpProtoUdp)
                 .udp(10, 20)
                 .build();
  const FiveTuple t = extract_five_tuple(p);
  EXPECT_EQ(t.src, Ipv4Address(1, 1, 1, 1));
  EXPECT_EQ(t.dst_port, 20);
}

// ---- builder ----------------------------------------------------------------

TEST(PacketBuilder, BuildsConsistentUdpPacket) {
  const Packet p = make_udp_packet(Ipv4Address(10, 0, 0, 1),
                                   Ipv4Address(10, 0, 0, 2), 1, 2, 500);
  EXPECT_EQ(p.size(), 500u);
  const auto eth = EthernetHeader::decode(p, 0);
  EXPECT_EQ(eth.ether_type, kEtherTypeIpv4);
  const auto ip = Ipv4Header::decode(p, EthernetHeader::kSize);
  EXPECT_TRUE(ip.checksum_ok());
  EXPECT_EQ(ip.total_length, 500 - EthernetHeader::kSize);
  const auto udp =
      UdpHeader::decode(p, EthernetHeader::kSize + Ipv4Header::kSize);
  EXPECT_EQ(udp.length,
            500 - EthernetHeader::kSize - Ipv4Header::kSize);
}

TEST(PacketBuilder, MakeUdpPacketEqualsLayeredBuild) {
  // payload() copies its ramp from a table; the reference writes it one
  // byte at a time into a header-only build padded to the same size, at
  // every size including those below the 42-byte header stack (which round
  // up to it). One builder is reused throughout, so a builder re-armed
  // after build() must produce the same bytes as a fresh one.
  constexpr std::size_t kHeaders =
      EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;
  const Ipv4Address src(10, 1, 2, 3);
  const Ipv4Address dst(10, 4, 5, 6);
  PacketBuilder reused;
  for (std::size_t size = 0; size <= 3000; ++size) {
    const Packet fast = make_udp_packet(src, dst, 4242, 20000, size);
    Packet layered = reused
                         .ethernet(MacAddress::from_u64(0x020000000001),
                                   MacAddress::from_u64(0x020000000002))
                         .ipv4(src, dst, kIpProtoUdp)
                         .udp(4242, 20000)
                         .pad_to(size)
                         .build();
    for (std::size_t i = kHeaders; i < layered.size(); ++i) {
      layered.set_u8(i, static_cast<std::uint8_t>(i - kHeaders));
    }
    ASSERT_TRUE(std::equal(fast.bytes().begin(), fast.bytes().end(),
                           layered.bytes().begin(), layered.bytes().end()))
        << "size " << size;
  }
}

TEST(PacketBuilder, PadToMinimumFrame) {
  const Packet p = PacketBuilder()
                       .ethernet(MacAddress::from_u64(1),
                                 MacAddress::from_u64(2), kEtherTypeHula)
                       .hula_probe(HulaProbeHeader{})
                       .pad_to(64)
                       .build();
  EXPECT_EQ(p.size(), 64u);
}

TEST(PacketBuilder, ReusableAfterBuild) {
  PacketBuilder b;
  const Packet p1 = b.ethernet(MacAddress::from_u64(1),
                               MacAddress::from_u64(2))
                        .payload(10)
                        .build();
  const Packet p2 = b.ethernet(MacAddress::from_u64(3),
                               MacAddress::from_u64(4))
                        .payload(20)
                        .build();
  EXPECT_EQ(p1.size(), EthernetHeader::kSize + 10);
  EXPECT_EQ(p2.size(), EthernetHeader::kSize + 20);
}

// ---- pcap writer --------------------------------------------------------------

TEST(PcapWriter, WritesValidHeaderAndRecords) {
  const std::string path = ::testing::TempDir() + "/edp_test.pcap";
  {
    PcapWriter pcap(path);
    ASSERT_TRUE(pcap.ok());
    pcap.write(make_udp_packet(Ipv4Address(1, 1, 1, 1),
                               Ipv4Address(2, 2, 2, 2), 1, 2, 100),
               sim::Time::micros(1'500'000));  // t = 1.5 s
    pcap.write(make_udp_packet(Ipv4Address(1, 1, 1, 1),
                               Ipv4Address(2, 2, 2, 2), 1, 2, 200),
               sim::Time::micros(1'500'010));
    EXPECT_EQ(pcap.packets_written(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::uint32_t magic = 0;
  ASSERT_EQ(std::fread(&magic, 4, 1, f), 1u);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  std::fseek(f, 24, SEEK_SET);  // skip the 24-byte global header
  std::uint32_t rec[4];
  ASSERT_EQ(std::fread(rec, 4, 4, f), 4u);
  EXPECT_EQ(rec[0], 1u);         // seconds
  EXPECT_EQ(rec[1], 500'000u);   // microseconds
  EXPECT_EQ(rec[2], 100u);       // captured length
  EXPECT_EQ(rec[3], 100u);       // original length
  // The first record's bytes are the packet itself.
  std::uint8_t first_byte = 0;
  ASSERT_EQ(std::fread(&first_byte, 1, 1, f), 1u);
  EXPECT_EQ(first_byte, 0x02);  // dst MAC first octet from make_udp_packet
  // Second record header sits right after the 100 payload bytes.
  std::fseek(f, 24 + 16 + 100, SEEK_SET);
  ASSERT_EQ(std::fread(rec, 4, 4, f), 4u);
  EXPECT_EQ(rec[2], 200u);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(PcapWriter, UnwritablePathReportsNotOk) {
  PcapWriter pcap("/nonexistent_dir_zz/x.pcap");
  EXPECT_FALSE(pcap.ok());
  // Writing through a failed writer must be a safe no-op.
  pcap.write(net::Packet(64), sim::Time::zero());
  EXPECT_EQ(pcap.packets_written(), 0u);
}

// ---- packet buffer pool -----------------------------------------------------

TEST(PacketBufferPool, RecyclesBuffersAcrossPacketLifetimes) {
  // Warm the pool: these buffers return to the freelist at scope exit.
  { net::Packet warm(1000); }
  const sim::PoolStats before = packet_buffer_pool_stats();
  for (int i = 0; i < 100; ++i) {
    net::Packet p(1000);
    EXPECT_EQ(p.size(), 1000u);
  }
  const sim::PoolStats after = packet_buffer_pool_stats();
  EXPECT_EQ(after.acquired - before.acquired, 100u);
  // Steady state: every sized construction was served from the freelist.
  EXPECT_EQ(after.allocated, before.allocated);
  EXPECT_EQ(after.reused - before.reused, 100u);
  EXPECT_EQ(after.released - before.released, 100u);
}

TEST(PacketBufferPool, RecycledBuffersAreZeroFilled) {
  {
    net::Packet p(64);
    for (std::size_t i = 0; i < 64; ++i) {
      p.set_u8(i, 0xAB);
    }
  }
  // The recycled buffer must come back as if freshly zero-constructed.
  net::Packet q(64);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(q.u8(i), 0u) << "recycled byte leaked at offset " << i;
  }
}

TEST(PacketBufferPool, CopyDuplicatesMoveSteals) {
  net::Packet p(100);
  p.set_u8(0, 0x42);
  net::Packet copy = p;
  EXPECT_EQ(copy.u8(0), 0x42);
  copy.set_u8(0, 0x43);
  EXPECT_EQ(p.u8(0), 0x42);  // copies do not share the buffer
  net::Packet stolen = std::move(p);
  EXPECT_EQ(stolen.u8(0), 0x42);
  EXPECT_EQ(stolen.size(), 100u);
}

TEST(PacketBuilder, VlanRewritesEtherTypeChain) {
  const Packet p = PacketBuilder()
                       .ethernet(MacAddress::from_u64(1),
                                 MacAddress::from_u64(2))
                       .vlan(42)
                       .ipv4(Ipv4Address(1, 1, 1, 1),
                             Ipv4Address(2, 2, 2, 2), kIpProtoUdp)
                       .udp(1, 2)
                       .build();
  EXPECT_EQ(EthernetHeader::decode(p, 0).ether_type, kEtherTypeVlan);
  EXPECT_EQ(VlanHeader::decode(p, EthernetHeader::kSize).ether_type,
            kEtherTypeIpv4);
  EXPECT_EQ(VlanHeader::decode(p, EthernetHeader::kSize).vid, 42);
}

}  // namespace
}  // namespace edp::net
