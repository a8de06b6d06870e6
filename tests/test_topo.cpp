// Unit tests for edp::topo — links, hosts, traffic generators, network
// wiring, control-plane agent, and the L3 routing program.
#include <gtest/gtest.h>

#include "net/flow.hpp"
#include "net/packet_builder.hpp"
#include "topo/control_plane.hpp"
#include "topo/host.hpp"
#include "topo/link.hpp"
#include "topo/network.hpp"
#include "topo/routing.hpp"
#include "topo/traffic_gen.hpp"

namespace edp::topo {
namespace {

using net::Ipv4Address;
using net::MacAddress;

// ---- link ---------------------------------------------------------------------

TEST(Link, DeliversAfterPropagationDelay) {
  sim::Scheduler sched;
  Link link(sched, Link::Config{sim::Time::micros(3), true});
  std::vector<sim::Time> arrivals;
  link.end_b().deliver = [&](net::Packet) { arrivals.push_back(sched.now()); };
  sched.at(sim::Time::micros(10),
           [&] { link.send_a_to_b(net::Packet(64), sched.now()); });
  sched.run(100);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], sim::Time::micros(13));
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(Link, DownLinkDropsAndNotifies) {
  sim::Scheduler sched;
  Link link(sched, Link::Config{sim::Time::micros(1), true});
  int delivered = 0;
  std::vector<bool> status_a, status_b;
  link.end_b().deliver = [&](net::Packet) { ++delivered; };
  link.end_a().status = [&](bool up) { status_a.push_back(up); };
  link.end_b().status = [&](bool up) { status_b.push_back(up); };

  link.set_up(false);
  link.set_up(false);  // duplicate: no second notification
  link.send_a_to_b(net::Packet(64), sched.now());
  sched.run(100);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.dropped_down(), 1u);
  ASSERT_EQ(status_a.size(), 1u);
  EXPECT_FALSE(status_a[0]);
  EXPECT_EQ(status_b.size(), 1u);

  link.set_up(true);
  link.send_a_to_b(net::Packet(64), sched.now());
  sched.run(100);
  EXPECT_EQ(delivered, 1);
}

TEST(Link, ScheduledFailureAndRecovery) {
  sim::Scheduler sched;
  Link link(sched, Link::Config{});
  link.fail_at(sim::Time::micros(100));
  link.recover_at(sim::Time::micros(200));
  sched.run_until(sim::Time::micros(150));
  EXPECT_FALSE(link.up());
  sched.run_until(sim::Time::micros(250));
  EXPECT_TRUE(link.up());
}

TEST(Link, InFlightPacketSurvivesFailure) {
  sim::Scheduler sched;
  Link link(sched, Link::Config{sim::Time::micros(10), true});
  int delivered = 0;
  link.end_b().deliver = [&](net::Packet) { ++delivered; };
  link.send_a_to_b(net::Packet(64), sched.now());  // arrives at t=10us
  link.fail_at(sim::Time::micros(5));
  sched.run(100);
  EXPECT_EQ(delivered, 1);  // already propagating
}

TEST(Link, DecidesAtTheDeparture) {
  // Departure-stamped sends: the link is up or down *at the departure*,
  // whatever it was when the sender handed the packet over.
  sim::Scheduler sched;
  Link link(sched, Link::Config{sim::Time::micros(1), true});
  std::vector<sim::Time> arrivals;
  link.end_b().deliver = [&](net::Packet) { arrivals.push_back(sched.now()); };
  link.send_a_to_b(net::Packet(64), sim::Time::micros(4));   // before the fail
  link.send_a_to_b(net::Packet(64), sim::Time::micros(10));  // while down
  link.send_a_to_b(net::Packet(64), sim::Time::micros(25));  // after recovery
  link.fail_at(sim::Time::micros(5));
  link.recover_at(sim::Time::micros(20));
  sched.run(100);
  EXPECT_EQ(arrivals, (std::vector<sim::Time>{sim::Time::micros(5),
                                              sim::Time::micros(26)}));
  EXPECT_EQ(link.delivered(), 2u);
  EXPECT_EQ(link.dropped_down(), 1u);

  // Down and back up within one serialization: up at the departure.
  link.fail_at(sim::Time::micros(30));
  link.recover_at(sim::Time::micros(32));
  sched.at(sim::Time::micros(29), [&] {
    link.send_a_to_b(net::Packet(64), sim::Time::micros(35));
  });
  sched.run(100);
  EXPECT_EQ(arrivals.back(), sim::Time::micros(36));
  EXPECT_EQ(link.dropped_down(), 1u);
}

// ---- host ---------------------------------------------------------------------

Host::Config host_cfg(const char* name, std::uint32_t ip_last) {
  Host::Config c;
  c.name = name;
  c.mac = MacAddress::from_u64(0x020000000000ULL + ip_last);
  c.ip = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(ip_last));
  c.nic_rate_bps = 1e9;  // 1 Gb/s for visible pacing
  return c;
}

TEST(Host, PacesTransmissionAtNicRate) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  std::vector<sim::Time> tx_times;
  h.connect_tx(
      [&](net::Packet, sim::Time departure) { tx_times.push_back(departure); });
  h.send(net::Packet(1250));  // 10 us at 1 Gb/s
  h.send(net::Packet(1250));
  EXPECT_EQ(h.tx_idle_at(), sim::Time::micros(20));  // second queued behind
  sched.run(100);
  ASSERT_EQ(tx_times.size(), 2u);
  EXPECT_EQ(tx_times[0], sim::Time::micros(10));
  EXPECT_EQ(tx_times[1], sim::Time::micros(20));
  EXPECT_EQ(h.tx_packets(), 2u);
}

TEST(Host, ReceiveStatsPerUdpPort) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  int app_calls = 0;
  h.on_receive = [&](const net::Packet&) { ++app_calls; };
  h.receive(net::make_udp_packet(Ipv4Address(1, 1, 1, 1), h.ip(), 5, 80, 100));
  h.receive(net::make_udp_packet(Ipv4Address(1, 1, 1, 1), h.ip(), 5, 80, 100));
  h.receive(net::make_udp_packet(Ipv4Address(1, 1, 1, 1), h.ip(), 5, 443, 100));
  EXPECT_EQ(h.rx_packets(), 3u);
  EXPECT_EQ(h.rx_bytes(), 300u);
  EXPECT_EQ(h.rx_on_port(80), 2u);
  EXPECT_EQ(h.rx_on_port(443), 1u);
  EXPECT_EQ(h.rx_on_port(9999), 0u);
  EXPECT_EQ(app_calls, 3);
}

// ---- traffic generators ------------------------------------------------------------

TEST(CbrGenerator, EmitsAtConfiguredRate) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  h.connect_tx([](net::Packet, sim::Time) {});
  CbrGenerator::Config cfg;
  cfg.flow.packet_size = 1250;
  cfg.rate_bps = 100e6;  // 1250B @ 100 Mb/s = 100 us spacing
  cfg.stop = sim::Time::millis(1);
  CbrGenerator gen(sched, h, cfg);
  gen.start();
  sched.run_until(sim::Time::millis(2));
  EXPECT_EQ(gen.sent(), 10u);  // t=0..900us
}

TEST(PoissonGenerator, MeanRateApproximatelyHonored) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  h.connect_tx([](net::Packet, sim::Time) {});
  PoissonGenerator::Config cfg;
  cfg.flow.packet_size = 1250;
  cfg.mean_rate_bps = 1e9;  // mean spacing 10 us
  cfg.stop = sim::Time::millis(100);
  cfg.seed = 99;
  PoissonGenerator gen(sched, h, cfg);
  gen.start();
  sched.run_until(sim::Time::millis(110));
  // ~10000 packets expected over 100 ms.
  EXPECT_NEAR(static_cast<double>(gen.sent()), 10'000.0, 500.0);
}

TEST(BurstGenerator, BurstsWithGaps) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  std::vector<sim::Time> tx;
  h.connect_tx([&](net::Packet, sim::Time departure) { tx.push_back(departure); });
  BurstGenerator::Config cfg;
  cfg.flow.packet_size = 125;  // 1 us at 1 Gb/s NIC
  cfg.burst_rate_bps = 1e9;
  cfg.burst_packets = 5;
  cfg.gap = sim::Time::micros(100);
  cfg.stop = sim::Time::micros(250);
  BurstGenerator gen(sched, h, cfg);
  gen.start();
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(gen.bursts(), 3u);  // t=0, ~105, ~210
  EXPECT_EQ(gen.sent(), 15u);
}

TEST(TraceReplay, ParsesCsvAndReplaysAtExactTimes) {
  const std::string csv =
      "# time_us,src,dst,sport,dport,size\n"
      "0,10.0.0.1,10.0.1.1,1000,2000,500\n"
      "\n"
      "12.5,10.0.0.2,10.0.1.1,1001,2000,64\n"
      "100,10.0.0.1,10.0.1.2,1000,2001,1500\n";
  std::size_t errors = 0;
  const auto trace = TraceReplayGenerator::parse_csv(csv, &errors);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(trace[1].at, sim::Time::from_seconds(12.5e-6));
  EXPECT_EQ(trace[1].flow.src, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(trace[2].flow.packet_size, 1500u);

  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  std::vector<std::pair<sim::Time, std::size_t>> sent;
  h.connect_tx([&](net::Packet p, sim::Time departure) {
    sent.push_back({departure, p.size()});
  });
  TraceReplayGenerator gen(sched, h, trace);
  gen.start();
  sched.run(1000);
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(gen.sent(), 3u);
  // Replay times = trace times + NIC serialization (1 Gb/s host NIC).
  EXPECT_EQ(sent[0].second, 500u);
  EXPECT_EQ(sent[0].first, sim::serialization_time(500, 1e9));
  EXPECT_EQ(sent[2].second, 1500u);
}

TEST(TraceReplay, MalformedLinesAreCountedNotReplayed) {
  const std::string csv =
      "0,10.0.0.1,10.0.1.1,1000,2000,500\n"
      "5,not_an_ip,10.0.1.1,1,2,100\n"     // bad src
      "5,10.0.0.1,10.0.1.1,999999,2,100\n"  // bad port
      "5,10.0.0.1,10.0.1.1,1,2,0\n"         // bad size
      "garbage line\n";
  std::size_t errors = 0;
  const auto trace = TraceReplayGenerator::parse_csv(csv, &errors);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(errors, 4u);
}

TEST(ZipfGenerator, CountsMatchEmissionsAndSkew) {
  sim::Scheduler sched;
  Host h(sched, host_cfg("h", 1));
  h.connect_tx([](net::Packet, sim::Time) {});
  ZipfGenerator::Config cfg;
  cfg.num_flows = 50;
  cfg.skew = 1.3;
  cfg.rate_bps = 1e9;
  cfg.packet_size = 125;
  cfg.dst = Ipv4Address(10, 0, 9, 9);
  cfg.stop = sim::Time::millis(10);
  ZipfGenerator gen(sched, h, cfg);
  gen.start();
  sched.run_until(sim::Time::millis(20));
  std::uint64_t total = 0;
  for (const auto c : gen.true_counts()) {
    total += c;
  }
  EXPECT_EQ(total, gen.sent());
  EXPECT_GT(gen.sent(), 5000u);
  EXPECT_GT(gen.true_counts()[0], gen.true_counts()[20]);
}

// ---- network wiring -----------------------------------------------------------------

TEST(Network, HostSwitchHostForwarding) {
  sim::Scheduler sched;
  Network net(sched);

  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  const std::size_t s = net.add_switch(scfg);
  const std::size_t h0 = net.add_host(host_cfg("h0", 1));
  const std::size_t h1 = net.add_host(host_cfg("h1", 2));
  net.connect_host(h0, s, 0, Link::Config{sim::Time::micros(1), true});
  net.connect_host(h1, s, 1, Link::Config{sim::Time::micros(1), true});

  L3Program prog;
  prog.add_route(Ipv4Address(10, 0, 0, 2), 32, 1);
  net.sw(s).set_program(&prog);

  net.host(h0).send(net::make_udp_packet(net.host(h0).ip(),
                                         net.host(h1).ip(), 1, 2, 200));
  net.run_until(sim::Time::millis(1));
  EXPECT_EQ(net.host(h1).rx_packets(), 1u);
  EXPECT_EQ(net.sw(s).counters().tx_packets, 1u);
}

TEST(Network, SwitchToSwitchLinkStatusPropagates) {
  sim::Scheduler sched;
  Network net(sched);
  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  const std::size_t a = net.add_switch(scfg);
  const std::size_t b = net.add_switch(scfg);
  const std::size_t l = net.connect_switches(a, 1, b, 1);

  net.link(l).fail_at(sim::Time::micros(10));
  net.run_until(sim::Time::micros(20));
  EXPECT_FALSE(net.sw(a).link_up(1));
  EXPECT_FALSE(net.sw(b).link_up(1));
  EXPECT_TRUE(net.sw(a).link_up(0));
}

TEST(Network, HostLinkFailingDuringSerializationDropsThePacket) {
  // h0's NIC (1 Gb/s) sends A (departs 10 us) then B (queued behind A,
  // departs 20 us). The link fails at 12 us: A is already propagating and
  // arrives; B departs onto a dead link and is lost.
  sim::Scheduler sched;
  Network net(sched);
  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  const std::size_t s = net.add_switch(scfg);
  const std::size_t h0 = net.add_host(host_cfg("h0", 1));
  const std::size_t l =
      net.connect_host(h0, s, 0, Link::Config{sim::Time::micros(5), true});
  for (int i = 0; i < 2; ++i) {
    net.host(h0).send(net::make_udp_packet(net.host(h0).ip(),
                                           Ipv4Address(10, 0, 0, 9), 1, 2,
                                           1250));
  }
  net.link(l).fail_at(sim::Time::micros(12));
  net.run_until(sim::Time::millis(1));
  EXPECT_EQ(net.sw(s).counters().rx_packets, 1u);
  EXPECT_EQ(net.link(l).delivered(), 1u);
  EXPECT_EQ(net.link(l).dropped_down(), 1u);
  EXPECT_EQ(net.host(h0).tx_packets(), 2u);
}

TEST(Network, SwitchLinkFailingDuringSerializationDropsThePacket) {
  // h0 -> s -> h1, all at 1 Gb/s with 1 us links: the 1250 B packet reaches
  // s at 11 us and leaves its port 1 from 11 us to 21 us. A failure of the
  // s-h1 link mid-serialization loses it; one after the departure does not
  // (the packet is already propagating).
  const auto run = [](sim::Time fail_at) {
    sim::Scheduler sched;
    Network net(sched);
    core::EventSwitchConfig scfg;
    scfg.num_ports = 2;
    scfg.port_rate_bps = 1e9;
    const std::size_t s = net.add_switch(scfg);
    const std::size_t h0 = net.add_host(host_cfg("h0", 1));
    const std::size_t h1 = net.add_host(host_cfg("h1", 2));
    net.connect_host(h0, s, 0, Link::Config{sim::Time::micros(1), true});
    const std::size_t l1 =
        net.connect_host(h1, s, 1, Link::Config{sim::Time::micros(1), true});
    L3Program prog;
    prog.add_route(net.host(h1).ip(), 32, 1);
    net.sw(s).set_program(&prog);
    std::vector<sim::Time> departures;
    net.sw(s).on_departure = [&](const core::TransmitRecord& r) {
      departures.push_back(r.when);
    };
    net.host(h0).send(net::make_udp_packet(net.host(h0).ip(),
                                           net.host(h1).ip(), 1, 2, 1250));
    net.link(l1).fail_at(fail_at);
    net.run_until(sim::Time::millis(1));
    // The port transmitted the packet either way.
    EXPECT_EQ(net.sw(s).counters().tx_packets, 1u);
    EXPECT_EQ(departures, (std::vector<sim::Time>{sim::Time::micros(21)}));
    EXPECT_EQ(net.link(l1).dropped_down() + net.host(h1).rx_packets(), 1u);
    return net.host(h1).rx_packets();
  };
  EXPECT_EQ(run(sim::Time::micros(15)), 0u);   // during serialization
  EXPECT_EQ(run(sim::Time::nanos(21'500)), 1u);  // while propagating
}

TEST(Network, HeapOnlySchedulerMakesTheSameInlineDecisions) {
  // try_advance() answers from the pending set alone, so a run on the
  // heap-only tier inlines exactly the same slots: same callback count,
  // same arrival times.
  const auto run = [](bool use_wheel) {
    sim::Scheduler sched{sim::SchedulerOptions{use_wheel}};
    Network net(sched);
    core::EventSwitchConfig scfg;
    scfg.num_ports = 2;
    const std::size_t s = net.add_switch(scfg);
    const std::size_t h0 = net.add_host(host_cfg("h0", 1));
    const std::size_t h1 = net.add_host(host_cfg("h1", 2));
    net.connect_host(h0, s, 0, Link::Config{sim::Time::nanos(700), true});
    net.connect_host(h1, s, 1, Link::Config{sim::Time::micros(3), true});
    L3Program prog;
    prog.add_route(net.host(h1).ip(), 32, 1);
    net.sw(s).set_program(&prog);
    std::vector<sim::Time> arrivals;
    net.host(h1).on_receive = [&](const net::Packet&) {
      arrivals.push_back(sched.now());
    };
    for (int i = 0; i < 200; ++i) {
      sched.at(sim::Time::nanos(97 * i), [&net, h0, h1, i] {
        net.host(h0).send(net::make_udp_packet(
            net.host(h0).ip(), net.host(h1).ip(), 1, 2, 64 + 7 * i));
      });
    }
    sched.run();
    return std::pair{sched.executed(), arrivals};
  };
  const auto wheel = run(true);
  const auto heap_only = run(false);
  EXPECT_EQ(wheel.second.size(), 200u);
  EXPECT_EQ(wheel, heap_only);
}

TEST(Network, PcapTapCapturesBothDirections) {
  sim::Scheduler sched;
  Network net(sched);
  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  const std::size_t s = net.add_switch(scfg);
  const std::size_t h0 = net.add_host(host_cfg("h0", 1));
  const std::size_t h1 = net.add_host(host_cfg("h1", 2));
  const std::size_t l0 = net.connect_host(h0, s, 0);
  net.connect_host(h1, s, 1);
  L3Program prog;
  prog.add_route(net.host(h0).ip(), 32, 0);
  prog.add_route(net.host(h1).ip(), 32, 1);
  net.sw(s).set_program(&prog);

  const std::string path = ::testing::TempDir() + "/edp_tap.pcap";
  ASSERT_TRUE(net.attach_pcap(l0, path));
  EXPECT_FALSE(net.attach_pcap(l0, "/nonexistent_dir_zz/x.pcap"));

  // h0 -> h1 (outbound over l0) and h1 -> h0 (inbound over l0).
  net.host(h0).send(net::make_udp_packet(net.host(h0).ip(),
                                         net.host(h1).ip(), 1, 2, 100));
  net.host(h1).send(net::make_udp_packet(net.host(h1).ip(),
                                         net.host(h0).ip(), 3, 4, 200));
  net.run_until(sim::Time::millis(1));
  EXPECT_EQ(net.host(h1).rx_packets(), 1u);
  EXPECT_EQ(net.host(h0).rx_packets(), 1u);

  // The tap saw both directions of l0: h0's outbound data packet and the
  // return packet delivered to h0.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  // global header 24 + 2 records (16+100) + (16+200).
  EXPECT_EQ(size, 24 + 16 + 100 + 16 + 200);
  std::remove(path.c_str());
}

// ---- control plane -----------------------------------------------------------------

TEST(ControlPlaneAgent, PuntPaysChannelLatency) {
  sim::Scheduler sched;
  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  core::EventSwitch sw(sched, scfg);
  ControlPlaneAgent cp(sched,
                       {sim::Time::micros(500), sim::Time::micros(50)});
  std::vector<sim::Time> handled;
  cp.attach(sw, [&](const core::ControlEventData&) {
    handled.push_back(sched.now());
  });
  sched.at(sim::Time::micros(100), [&] {
    sw.notify_control_plane(core::ControlEventData{});
  });
  sched.run(100);
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_EQ(handled[0], sim::Time::micros(650));
  EXPECT_EQ(cp.messages_from_switch(), 1u);
}

TEST(ControlPlaneAgent, InjectionDelayedByChannel) {
  sim::Scheduler sched;
  core::EventSwitchConfig scfg;
  scfg.num_ports = 2;
  core::EventSwitch sw(sched, scfg);
  ControlPlaneAgent cp(sched, {sim::Time::micros(200), sim::Time::zero()});
  cp.inject_packet(sw, net::Packet(64));
  EXPECT_EQ(sw.counters().rx_packets, 0u);
  sched.run_until(sim::Time::micros(300));
  EXPECT_EQ(sw.counters().rx_packets, 1u);
  EXPECT_EQ(cp.packets_injected(), 1u);
}

TEST(ControlPlaneAgent, PeriodicCpTask) {
  sim::Scheduler sched;
  ControlPlaneAgent cp(sched, {});
  int runs = 0;
  auto task = cp.every(sim::Time::millis(1), [&] { ++runs; });
  sched.run_until(sim::Time::millis(10));
  EXPECT_EQ(runs, 10);
  task->stop();
}

// ---- routing program ----------------------------------------------------------------

TEST(L3Program, LpmForwardingAndMissDrop) {
  sim::Scheduler sched;
  core::EventSwitchConfig scfg;
  scfg.num_ports = 4;
  core::EventSwitch sw(sched, scfg);
  L3Program prog;
  prog.add_route(Ipv4Address(10, 1, 0, 0), 16, 2);
  prog.add_route(Ipv4Address(10, 1, 2, 0), 24, 3);
  sw.set_program(&prog);
  int tx2 = 0, tx3 = 0;
  sw.connect_tx(2, [&](net::Packet) { ++tx2; });
  sw.connect_tx(3, [&](net::Packet) { ++tx3; });

  sw.receive(0, net::make_udp_packet(Ipv4Address(9, 9, 9, 9),
                                     Ipv4Address(10, 1, 2, 5), 1, 2, 100));
  sw.receive(0, net::make_udp_packet(Ipv4Address(9, 9, 9, 9),
                                     Ipv4Address(10, 1, 9, 5), 1, 2, 100));
  sw.receive(0, net::make_udp_packet(Ipv4Address(9, 9, 9, 9),
                                     Ipv4Address(172, 16, 0, 1), 1, 2, 100));
  sched.run(10'000);
  EXPECT_EQ(tx3, 1);  // /24 wins
  EXPECT_EQ(tx2, 1);  // /16 fallback
  EXPECT_EQ(sw.counters().program_drops, 1u);  // default drop on miss
}

TEST(EcmpPick, DeterministicPerFlowAndSpreads) {
  pisa::Phv a;
  a.ipv4 = net::Ipv4Header{};
  a.ipv4->src = Ipv4Address(10, 0, 0, 1);
  a.ipv4->dst = Ipv4Address(10, 0, 0, 2);
  a.udp = net::UdpHeader{};
  a.udp->src_port = 100;
  a.udp->dst_port = 200;
  EXPECT_EQ(ecmp_pick(a, 4), ecmp_pick(a, 4));

  // Different flows must not all map to one port.
  std::set<std::uint16_t> picks;
  for (std::uint16_t p = 0; p < 64; ++p) {
    pisa::Phv b = a;
    b.udp->src_port = p;
    picks.insert(ecmp_pick(b, 4));
  }
  EXPECT_GT(picks.size(), 1u);
  EXPECT_EQ(ecmp_pick(a, 0), 0);
}

}  // namespace
}  // namespace edp::topo
