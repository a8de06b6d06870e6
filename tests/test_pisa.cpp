// Unit tests for edp::pisa — parser, deparser, tables, registers, counters,
// meters, pipeline.
#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "pisa/counter.hpp"
#include "pisa/deparser.hpp"
#include "pisa/meter.hpp"
#include "pisa/parser.hpp"
#include "pisa/pipeline.hpp"
#include "pisa/register.hpp"
#include "pisa/table.hpp"

namespace edp::pisa {
namespace {

using net::Ipv4Address;
using net::MacAddress;

net::Packet udp_packet(std::uint16_t dst_port = 2000,
                       std::size_t size = 200) {
  return net::make_udp_packet(Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 1, 1), 1000, dst_port,
                              size);
}

// ---- parser -------------------------------------------------------------------

TEST(Parser, ParsesEthernetIpv4Udp) {
  const Parser parser = Parser::standard();
  Phv phv = parser.parse(udp_packet());
  ASSERT_FALSE(phv.parse_error);
  ASSERT_TRUE(phv.eth.has_value());
  ASSERT_TRUE(phv.ipv4.has_value());
  ASSERT_TRUE(phv.udp.has_value());
  EXPECT_FALSE(phv.tcp.has_value());
  EXPECT_EQ(phv.ipv4->src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(phv.udp->dst_port, 2000);
  EXPECT_EQ(phv.std_meta.packet_length, 200u);
  EXPECT_EQ(phv.payload_offset, net::EthernetHeader::kSize +
                                    net::Ipv4Header::kSize +
                                    net::UdpHeader::kSize);
}

TEST(Parser, ParsesKvOverWellKnownPort) {
  net::KvHeader kv;
  kv.op = net::KvHeader::kGet;
  kv.key = 77;
  const net::Packet p =
      net::PacketBuilder()
          .ethernet(MacAddress::from_u64(1), MacAddress::from_u64(2))
          .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                net::kIpProtoUdp)
          .udp(5000, net::kPortKvCache)
          .kv(kv)
          .build();
  const Phv phv = Parser::standard().parse(p);
  ASSERT_TRUE(phv.kv.has_value());
  EXPECT_EQ(phv.kv->key, 77u);
}

TEST(Parser, ParsesHulaAndLiveness) {
  net::HulaProbeHeader probe{3, 500, 9};
  const net::Packet hp =
      net::PacketBuilder()
          .ethernet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                    net::kEtherTypeHula)
          .hula_probe(probe)
          .pad_to(64)
          .build();
  const Phv hphv = Parser::standard().parse(hp);
  ASSERT_TRUE(hphv.hula.has_value());
  EXPECT_EQ(hphv.hula->tor_id, 3u);

  net::LivenessHeader echo;
  echo.kind = net::LivenessHeader::kRequest;
  const net::Packet lp =
      net::PacketBuilder()
          .ethernet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                    net::kEtherTypeLiveness)
          .liveness(echo)
          .pad_to(64)
          .build();
  const Phv lphv = Parser::standard().parse(lp);
  ASSERT_TRUE(lphv.liveness.has_value());
  EXPECT_EQ(lphv.liveness->kind, net::LivenessHeader::kRequest);
}

TEST(Parser, TruncatedPacketIsRejected) {
  net::Packet p(10);  // shorter than an Ethernet header
  EXPECT_TRUE(Parser::standard().parse(std::move(p)).parse_error);

  // Ethernet claims IPv4 but the packet ends after 14 bytes.
  net::Packet q(net::EthernetHeader::kSize);
  net::EthernetHeader eth;
  eth.ether_type = net::kEtherTypeIpv4;
  eth.encode(q, 0);
  EXPECT_TRUE(Parser::standard().parse(std::move(q)).parse_error);
}

TEST(Parser, UnknownEtherTypeAcceptsAtL2) {
  net::Packet p(64);
  net::EthernetHeader eth;
  eth.ether_type = 0x9999;
  eth.encode(p, 0);
  const Phv phv = Parser::standard().parse(std::move(p));
  EXPECT_FALSE(phv.parse_error);
  EXPECT_TRUE(phv.eth.has_value());
  EXPECT_FALSE(phv.ipv4.has_value());
  EXPECT_EQ(phv.payload_offset, net::EthernetHeader::kSize);
}

TEST(Parser, CustomStateCanBeAdded) {
  Parser parser = Parser::standard();
  // Replace the ethernet state for a fictitious ethertype path.
  bool custom_hit = false;
  parser.add_state("start", [&](Phv&, std::size_t off) {
    custom_hit = true;
    return ParseStep{"ethernet", off};
  });
  parser.parse(udp_packet());
  EXPECT_TRUE(custom_hit);
}

/// One packet of every shape the standard parse graph distinguishes,
/// including the truncated ones it rejects.
std::vector<net::Packet> shape_corpus() {
  const auto mac = [](std::uint64_t v) { return MacAddress::from_u64(v); };
  std::vector<net::Packet> corpus;
  corpus.push_back(udp_packet());  // plain UDP
  corpus.push_back(net::PacketBuilder()  // TCP
                       .ethernet(mac(1), mac(2))
                       .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             net::kIpProtoTcp)
                       .tcp(1234, 80)
                       .payload(40)
                       .build());
  net::KvHeader kv;
  kv.op = net::KvHeader::kGet;
  kv.key = 42;
  corpus.push_back(net::PacketBuilder()  // KV, well-known port as *source*
                       .ethernet(mac(1), mac(2))
                       .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             net::kIpProtoUdp)
                       .udp(net::kPortKvCache, 7777)
                       .kv(kv)
                       .build());
  corpus.push_back(net::PacketBuilder()  // INT report
                       .ethernet(mac(1), mac(2))
                       .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             net::kIpProtoUdp)
                       .udp(3333, net::kPortIntReport)
                       .int_report(net::IntReportHeader{})
                       .build());
  corpus.push_back(net::PacketBuilder()  // VLAN-tagged IPv4/UDP
                       .ethernet(mac(1), mac(2))
                       .vlan(100)
                       .ipv4(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             net::kIpProtoUdp)
                       .udp(1000, 2000)
                       .payload(20)
                       .build());
  corpus.push_back(net::PacketBuilder()  // HULA probe
                       .ethernet(mac(1), mac(2), net::kEtherTypeHula)
                       .hula_probe(net::HulaProbeHeader{3, 500, 9})
                       .pad_to(64)
                       .build());
  net::LivenessHeader echo;
  echo.kind = net::LivenessHeader::kRequest;
  corpus.push_back(net::PacketBuilder()  // liveness echo
                       .ethernet(mac(1), mac(2), net::kEtherTypeLiveness)
                       .liveness(echo)
                       .pad_to(64)
                       .build());
  {
    net::Packet carrier(64);  // event-metadata carrier frame
    net::EthernetHeader eth;
    eth.ether_type = net::kEtherTypeCarrier;
    eth.encode(carrier, 0);
    corpus.push_back(std::move(carrier));
  }
  {
    net::Packet other(64);  // unknown EtherType: accept at L2
    net::EthernetHeader eth;
    eth.ether_type = 0x9999;
    eth.encode(other, 0);
    corpus.push_back(std::move(other));
  }
  corpus.push_back(net::Packet(10));  // truncated before Ethernet
  {
    net::Packet q(net::EthernetHeader::kSize);  // truncated after Ethernet
    net::EthernetHeader eth;
    eth.ether_type = net::kEtherTypeIpv4;
    eth.encode(q, 0);
    corpus.push_back(std::move(q));
  }
  {
    // IPv4 claims UDP but the packet ends mid-UDP-header.
    net::Packet q = net::PacketBuilder()
                        .ethernet(mac(1), mac(2))
                        .ipv4(Ipv4Address(1, 1, 1, 1),
                              Ipv4Address(2, 2, 2, 2), net::kIpProtoUdp)
                        .build();
    corpus.push_back(std::move(q));
  }
  return corpus;
}

TEST(Parser, FastPathMatchesGeneric) {
  // The compiled parse_standard() fast path must be observationally
  // identical to the generic name-dispatched walk of the standard() graph.
  // Re-registering any state drops a parser to the generic dispatcher, so
  // build the generic twin by re-adding a verbatim "start" state, then run
  // both parsers over one packet of every shape the graph distinguishes.
  const Parser fast = Parser::standard();
  Parser generic = Parser::standard();
  generic.add_state("start", [](Phv&, std::size_t off) {
    return ParseStep{"ethernet", off};
  });

  const std::vector<net::Packet> corpus = shape_corpus();

  const Deparser deparser;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE("corpus packet " + std::to_string(i));
    const Phv a = fast.parse(net::Packet(corpus[i]));
    const Phv b = generic.parse(net::Packet(corpus[i]));
    EXPECT_EQ(a.parse_error, b.parse_error);
    EXPECT_EQ(a.payload_offset, b.payload_offset);
    EXPECT_EQ(a.eth.has_value(), b.eth.has_value());
    EXPECT_EQ(a.vlan.has_value(), b.vlan.has_value());
    EXPECT_EQ(a.ipv4.has_value(), b.ipv4.has_value());
    EXPECT_EQ(a.tcp.has_value(), b.tcp.has_value());
    EXPECT_EQ(a.udp.has_value(), b.udp.has_value());
    EXPECT_EQ(a.kv.has_value(), b.kv.has_value());
    EXPECT_EQ(a.int_report.has_value(), b.int_report.has_value());
    EXPECT_EQ(a.hula.has_value(), b.hula.has_value());
    EXPECT_EQ(a.liveness.has_value(), b.liveness.has_value());
    // Deparsing re-encodes every extracted field: byte equality means the
    // two parsers decoded identical header contents.
    const net::Packet da = deparser.deparse(a);
    const net::Packet db = deparser.deparse(b);
    ASSERT_EQ(da.size(), db.size());
    EXPECT_TRUE(std::equal(da.bytes().begin(), da.bytes().end(),
                           db.bytes().begin()));
  }
}

TEST(Parser, MetadataFromPacketMeta) {
  net::Packet p = udp_packet();
  p.meta().ingress_port = 3;
  p.meta().arrival = sim::Time::micros(9);
  const Phv phv = Parser::standard().parse(std::move(p));
  EXPECT_EQ(phv.std_meta.ingress_port, 3);
  EXPECT_EQ(phv.std_meta.ingress_timestamp, sim::Time::micros(9));
}

// ---- deparser -----------------------------------------------------------------

TEST(Deparser, RoundTripIsIdentity) {
  const net::Packet original = udp_packet(2000, 300);
  Phv phv = Parser::standard().parse(original);
  const net::Packet out = Deparser().deparse(phv);
  ASSERT_EQ(out.size(), original.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out.u8(i), original.u8(i)) << "byte " << i;
  }
}

TEST(Deparser, FieldRewriteIsReflected) {
  Phv phv = Parser::standard().parse(udp_packet());
  phv.ipv4->ttl = 1;
  phv.ipv4->dst = Ipv4Address(99, 99, 99, 99);
  const net::Packet out = Deparser().deparse(phv);
  const auto ip = net::Ipv4Header::decode(out, net::EthernetHeader::kSize);
  EXPECT_EQ(ip.ttl, 1);
  EXPECT_EQ(ip.dst, Ipv4Address(99, 99, 99, 99));
  EXPECT_TRUE(ip.checksum_ok());  // checksum recomputed on deparse
}

TEST(Deparser, HeaderInvalidationRemovesBytes) {
  Phv phv = Parser::standard().parse(udp_packet(2000, 200));
  phv.udp.reset();  // drop the UDP header (decap-style)
  const net::Packet out = Deparser().deparse(phv);
  EXPECT_EQ(out.size(), 200u - net::UdpHeader::kSize);
}

/// Header validity plus payload offset: what decides whether a PHV still
/// fits the buffer it was parsed from.
std::vector<std::size_t> layout_of(const Phv& phv) {
  return {phv.eth.has_value(),  phv.vlan.has_value(),
          phv.ipv4.has_value(), phv.tcp.has_value(),
          phv.udp.has_value(),  phv.hula.has_value(),
          phv.liveness.has_value(), phv.kv.has_value(),
          phv.int_report.has_value(), phv.payload_offset};
}

TEST(Deparser, InPlaceEmitMatchesCopyingDeparse) {
  // The consuming deparse must emit exactly what the copying one does —
  // bytes and intrinsic metadata — over every packet shape and the header
  // rewrites programs make: field rewrites keep the layout (in place),
  // validity flips and an ndp-trim truncation change it (copy fallback).
  struct Rewrite {
    const char* name;
    void (*apply)(Phv&);
  };
  const Rewrite rewrites[] = {
      {"none", [](Phv&) {}},
      {"ecn-ttl-dscp",
       [](Phv& phv) {
         if (phv.ipv4) {
           phv.ipv4->ecn = 3;
           phv.ipv4->ttl = static_cast<std::uint8_t>(phv.ipv4->ttl - 1);
           phv.ipv4->dscp = 0x2e;
         }
       }},
      {"udp-ports-and-macs",
       [](Phv& phv) {
         if (phv.udp) {
           phv.udp->dst_port = 4242;
         }
         if (phv.eth) {
           std::swap(phv.eth->src, phv.eth->dst);
         }
       }},
      {"vlan-flip",
       [](Phv& phv) {
         if (phv.vlan) {
           phv.eth->ether_type = phv.vlan->ether_type;
           phv.vlan.reset();
         } else if (phv.eth) {
           net::VlanHeader tag;
           tag.vid = 7;
           tag.ether_type = phv.eth->ether_type;
           phv.vlan = tag;
         }
       }},
      {"ndp-trim",
       [](Phv& phv) {
         phv.payload_offset = phv.packet.size();
         if (phv.ipv4) {
           phv.ipv4->ecn = 3;
         }
       }},
  };

  const Parser parser = Parser::standard();
  const Deparser deparser;
  const std::vector<net::Packet> corpus = shape_corpus();
  std::size_t in_place = 0, fallback = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (const Rewrite& rw : rewrites) {
      SCOPED_TRACE("corpus packet " + std::to_string(i) + ", " + rw.name);
      net::Packet input(corpus[i]);
      input.meta().arrival = sim::Time::nanos(17);
      input.meta().ingress_port = 3;
      input.meta().trace_id = 99;
      input.meta().recirc_count = 1;
      Phv phv = parser.parse(std::move(input));
      if (phv.parse_error) {
        continue;  // the switch drops these before any deparse
      }
      const std::vector<std::size_t> parsed_layout = layout_of(phv);
      rw.apply(phv);
      const bool layout_kept = layout_of(phv) == parsed_layout;

      const net::Packet expected = deparser.deparse(phv);
      const std::uint8_t* buffer = phv.packet.bytes().data();
      const net::Packet actual = deparser.deparse(std::move(phv));

      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_TRUE(std::equal(actual.bytes().begin(), actual.bytes().end(),
                             expected.bytes().begin()));
      EXPECT_EQ(actual.meta().arrival, expected.meta().arrival);
      EXPECT_EQ(actual.meta().ingress_port, expected.meta().ingress_port);
      EXPECT_EQ(actual.meta().trace_id, expected.meta().trace_id);
      EXPECT_EQ(actual.meta().recirc_count, expected.meta().recirc_count);
      // In place means the very buffer the packet was parsed into.
      EXPECT_EQ(actual.bytes().data() == buffer, layout_kept);
      ++(layout_kept ? in_place : fallback);
    }
  }
  EXPECT_GT(in_place, 0u);
  EXPECT_GT(fallback, 0u);
}

// ---- tables -------------------------------------------------------------------

std::vector<std::uint64_t> key_of(std::uint64_t v) { return {v}; }

TEST(MatchActionTable, ExactMatchHitAndMiss) {
  MatchActionTable t("t", {MatchField{MatchKind::kExact, 32, "f"}}, 4);
  int hits = 0;
  TableEntry e;
  e.key = {KeyField{42, 0, ~0ULL}};
  e.action_name = "hit";
  e.action = [&hits](Phv&, const ActionData&) { ++hits; };
  ASSERT_TRUE(t.insert(std::move(e)));

  Phv phv;
  EXPECT_TRUE(t.apply(phv, [](const Phv&) { return key_of(42); }));
  EXPECT_FALSE(t.apply(phv, [](const Phv&) { return key_of(43); }));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(t.lookups(), 2u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(MatchActionTable, DefaultActionOnMiss) {
  MatchActionTable t("t", {MatchField{MatchKind::kExact, 32, "f"}});
  bool default_ran = false;
  t.set_default_action("d", [&](Phv&, const ActionData&) {
    default_ran = true;
  });
  Phv phv;
  t.apply(phv, [](const Phv&) { return key_of(1); });
  EXPECT_TRUE(default_ran);
}

TEST(MatchActionTable, CapacityEnforcedAndDuplicateRejected) {
  MatchActionTable t("t", {MatchField{MatchKind::kExact, 32, "f"}}, 2);
  TableEntry e1;
  e1.key = {KeyField{1, 0, ~0ULL}};
  TableEntry dup;
  dup.key = {KeyField{1, 0, ~0ULL}};
  TableEntry e2;
  e2.key = {KeyField{2, 0, ~0ULL}};
  TableEntry e3;
  e3.key = {KeyField{3, 0, ~0ULL}};
  EXPECT_TRUE(t.insert(std::move(e1)));
  EXPECT_FALSE(t.insert(std::move(dup)));
  EXPECT_TRUE(t.insert(std::move(e2)));
  EXPECT_FALSE(t.insert(std::move(e3)));  // full
  EXPECT_EQ(t.size(), 2u);
}

TEST(MatchActionTable, LongestPrefixWins) {
  MatchActionTable t("lpm", {MatchField{MatchKind::kLpm, 32, "dst"}});
  std::uint64_t chosen = 0;
  const auto mk = [&](std::uint32_t prefix, int len, std::uint64_t tag) {
    TableEntry e;
    e.key = {KeyField{prefix, len, ~0ULL}};
    e.data.args = {tag};
    e.action = [&chosen](Phv&, const ActionData& d) { chosen = d.arg(0); };
    ASSERT_TRUE(t.insert(std::move(e)));
  };
  mk(0x0a000000, 8, 8);    // 10/8
  mk(0x0a010000, 16, 16);  // 10.1/16
  mk(0x0a010200, 24, 24);  // 10.1.2/24

  Phv phv;
  t.apply(phv, [](const Phv&) { return key_of(0x0a010203); });
  EXPECT_EQ(chosen, 24u);
  t.apply(phv, [](const Phv&) { return key_of(0x0a01ff01); });
  EXPECT_EQ(chosen, 16u);
  t.apply(phv, [](const Phv&) { return key_of(0x0aff0001); });
  EXPECT_EQ(chosen, 8u);
  EXPECT_FALSE(t.apply(phv, [](const Phv&) { return key_of(0x0b000001); }));
}

TEST(MatchActionTable, TernaryPriority) {
  MatchActionTable t("acl", {MatchField{MatchKind::kTernary, 32, "dst"}});
  std::uint64_t chosen = 0;
  const auto mk = [&](std::uint64_t value, std::uint64_t mask,
                      std::int32_t prio, std::uint64_t tag) {
    TableEntry e;
    e.key = {KeyField{value, 0, mask}};
    e.priority = prio;
    e.data.args = {tag};
    e.action = [&chosen](Phv&, const ActionData& d) { chosen = d.arg(0); };
    ASSERT_TRUE(t.insert(std::move(e)));
  };
  mk(0x0a000000, 0xff000000, 1, 100);   // 10.*.*.*
  mk(0x0a000005, 0xff0000ff, 50, 200);  // 10.*.*.5 (more specific bits)

  Phv phv;
  t.apply(phv, [](const Phv&) { return key_of(0x0a000005); });
  EXPECT_EQ(chosen, 200u);
  t.apply(phv, [](const Phv&) { return key_of(0x0a000006); });
  EXPECT_EQ(chosen, 100u);
}

TEST(MatchActionTable, EraseRebuildsIndex) {
  MatchActionTable t("t", {MatchField{MatchKind::kExact, 32, "f"}}, 8);
  for (std::uint64_t v = 0; v < 4; ++v) {
    TableEntry e;
    e.key = {KeyField{v, 0, ~0ULL}};
    ASSERT_TRUE(t.insert(std::move(e)));
  }
  EXPECT_EQ(t.erase({KeyField{2, 0, ~0ULL}}), 1u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.lookup(key_of(2)).hit);
  EXPECT_TRUE(t.lookup(key_of(3)).hit);
  // Reinsertion of the erased key now succeeds.
  TableEntry e;
  e.key = {KeyField{2, 0, ~0ULL}};
  EXPECT_TRUE(t.insert(std::move(e)));
}

TEST(MatchActionTable, EntryHitCounters) {
  MatchActionTable t("t", {MatchField{MatchKind::kExact, 32, "f"}});
  TableEntry e;
  e.key = {KeyField{9, 0, ~0ULL}};
  ASSERT_TRUE(t.insert(std::move(e)));
  for (int i = 0; i < 5; ++i) {
    t.lookup(key_of(9));
  }
  EXPECT_EQ(t.lookup(key_of(9)).entry->hits, 6u);
}

// ---- registers ------------------------------------------------------------------

TEST(Register, ReadWriteAndWrapIndexing) {
  Register<std::uint32_t> r("r", 8);
  r.write(3, 77);
  EXPECT_EQ(r.read(3), 77u);
  EXPECT_EQ(r.read(11), 77u);  // 11 % 8 == 3
  r.write(11, 78);
  EXPECT_EQ(r.read(3), 78u);
  EXPECT_EQ(r.bytes(), 8 * sizeof(std::uint32_t));
}

TEST(Register, RmwIsAtomicValueUpdate) {
  Register<std::int64_t> r("r", 4);
  r.rmw(1, [](std::int64_t v) { return v + 10; });
  r.rmw(1, [](std::int64_t v) { return v * 3; });
  EXPECT_EQ(r.read(1), 30);
  EXPECT_EQ(r.reads(), 3u);
  EXPECT_EQ(r.writes(), 2u);
}

TEST(PortUsage, SinglePortContention) {
  PortUsage p(1);
  EXPECT_TRUE(p.try_acquire(100));
  EXPECT_FALSE(p.available(100));
  EXPECT_FALSE(p.try_acquire(100));  // second access, same cycle
  EXPECT_EQ(p.contention(), 1u);
  EXPECT_TRUE(p.try_acquire(101));  // new cycle
  EXPECT_EQ(p.acquired(), 2u);
}

TEST(PortUsage, MultiPort) {
  PortUsage p(3);
  EXPECT_TRUE(p.try_acquire(5));
  EXPECT_TRUE(p.try_acquire(5));
  EXPECT_TRUE(p.try_acquire(5));
  EXPECT_FALSE(p.try_acquire(5));
  EXPECT_EQ(p.contention(), 1u);
}

// ---- counters / meters -------------------------------------------------------------

TEST(Counter, CountsPacketsAndBytes) {
  Counter c("c", 4);
  c.count(0, 100);
  c.count(0, 200);
  c.count(1, 50);
  EXPECT_EQ(c.cell(0).packets, 2u);
  EXPECT_EQ(c.cell(0).bytes, 300u);
  EXPECT_EQ(c.total().packets, 3u);
  EXPECT_EQ(c.total().bytes, 350u);
  c.reset();
  EXPECT_EQ(c.total().packets, 0u);
}

TEST(Meter, GreenWithinCommittedRate) {
  Meter::Config cfg;
  cfg.cir_bytes_per_sec = 1e6;
  cfg.cbs_bytes = 1500;
  cfg.ebs_bytes = 3000;
  Meter m("m", 1, cfg);
  // First packet fits the committed burst.
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kGreen);
  // Immediately metering far more than cbs+ebs -> red.
  EXPECT_EQ(m.execute(0, 4000, sim::Time::zero()), MeterColor::kRed);
}

TEST(Meter, YellowFromExcessBucket) {
  Meter::Config cfg;
  cfg.cir_bytes_per_sec = 1e6;
  cfg.cbs_bytes = 1000;
  cfg.ebs_bytes = 2000;
  Meter m("m", 1, cfg);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kGreen);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kYellow);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kYellow);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kRed);
}

TEST(Meter, RefillsOverTime) {
  Meter::Config cfg;
  cfg.cir_bytes_per_sec = 1e6;  // 1 MB/s
  cfg.cbs_bytes = 1000;
  cfg.ebs_bytes = 0;
  Meter m("m", 1, cfg);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kGreen);
  EXPECT_EQ(m.execute(0, 1000, sim::Time::zero()), MeterColor::kRed);
  // 1 ms at 1 MB/s = 1000 bytes refilled.
  EXPECT_EQ(m.execute(0, 1000, sim::Time::millis(1)), MeterColor::kGreen);
}

TEST(Meter, CellsAreIndependent) {
  Meter::Config cfg;
  cfg.cir_bytes_per_sec = 1e6;
  cfg.cbs_bytes = 500;
  cfg.ebs_bytes = 0;
  Meter m("m", 4, cfg);
  EXPECT_EQ(m.execute(0, 500, sim::Time::zero()), MeterColor::kGreen);
  EXPECT_EQ(m.execute(1, 500, sim::Time::zero()), MeterColor::kGreen);
  EXPECT_EQ(m.execute(0, 500, sim::Time::zero()), MeterColor::kRed);
}

// ---- pipeline ---------------------------------------------------------------------

TEST(Pipeline, StagesRunInOrder) {
  Pipeline pipe("ingress");
  std::vector<int> order;
  pipe.add_stage("a", [&](Phv&) { order.push_back(1); });
  pipe.add_stage("b", [&](Phv&) { order.push_back(2); });
  Phv phv;
  pipe.process(phv);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(pipe.phvs_processed(), 1u);
  EXPECT_EQ(pipe.depth(), 2u);
}

TEST(Pipeline, DroppedPhvStillTraversesByDefault) {
  Pipeline pipe("ingress");
  int later = 0;
  pipe.add_stage("drop", [](Phv& p) { p.std_meta.drop = true; });
  pipe.add_stage("after", [&](Phv&) { ++later; });
  Phv phv;
  pipe.process(phv);
  EXPECT_EQ(later, 1);  // hardware PHVs traverse all stages
}

TEST(Pipeline, StopOnDropMode) {
  Pipeline pipe("ingress", /*stop_on_drop=*/true);
  int later = 0;
  pipe.add_stage("drop", [](Phv& p) { p.std_meta.drop = true; });
  pipe.add_stage("after", [&](Phv&) { ++later; });
  Phv phv;
  pipe.process(phv);
  EXPECT_EQ(later, 0);
}

}  // namespace
}  // namespace edp::pisa
