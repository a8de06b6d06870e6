// Tests for edp::workload — the trace-driven scenario engine.
//
// Covers the four layers: distribution sanity (the canonical DC mixes
// really are heavy-tailed and hit their analytic means), scenario lowering
// (registry EventRates consumption, the edge loop-breaker), replay
// determinism (the seed x shard digest matrix the engine's contract
// promises), and the fuzzer (a seeded always-failing oracle must be found,
// shrunk to the minimal case, and reported with a stable reproducer).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/event_switch.hpp"
#include "net/packet.hpp"
#include "net/packet_builder.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "workload/distributions.hpp"
#include "workload/fuzzer.hpp"
#include "workload/replay.hpp"
#include "workload/scenario.hpp"

namespace edp::workload {
namespace {

// ---- flow-size distributions ------------------------------------------------

TEST(FlowSizeCdf, RejectsMalformedKnots) {
  // Last knot must close the CDF at cum == 1.
  EXPECT_THROW(FlowSizeCdf({{1000, 0.5}, {2000, 0.9}}), std::invalid_argument);
  // Both fields must be strictly increasing.
  EXPECT_THROW(FlowSizeCdf({{2000, 0.5}, {1000, 1.0}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf({{1000, 0.8}, {2000, 0.4}}), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf({}), std::invalid_argument);
}

TEST(FlowSizeCdf, FixedIsDegenerate) {
  FlowSizeCdf cdf = FlowSizeCdf::fixed(4096);
  sim::Random rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cdf.sample(rng), 4096u);
  }
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 4096.0);
}

// Empirical mean over many samples must converge to the analytic
// `mean_bytes()` — the value the engine uses to convert offered load into
// an arrival rate, so a mismatch would silently mis-load every scenario.
void check_mean_convergence(const FlowSizeCdf& cdf) {
  sim::Random rng(42);
  constexpr int kSamples = 200'000;
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(cdf.sample(rng));
  }
  const double empirical = sum / kSamples;
  const double analytic = cdf.mean_bytes();
  EXPECT_NEAR(empirical / analytic, 1.0, 0.05);
}

TEST(FlowSizeCdf, WebSearchMeanConverges) {
  check_mean_convergence(FlowSizeCdf::web_search());
}

TEST(FlowSizeCdf, HadoopMeanConverges) {
  check_mean_convergence(FlowSizeCdf::hadoop());
}

TEST(FlowSizeCdf, WebSearchIsHeavyTailed) {
  const FlowSizeCdf& cdf = FlowSizeCdf::web_search();
  // Mice dominate the flow count: the median is far below the mean, and
  // the p99 flow dwarfs both — the defining shape of the DCTCP mix.
  EXPECT_LT(cdf.quantile(0.5) * 4, cdf.mean_bytes());
  EXPECT_GT(cdf.quantile(0.99), cdf.mean_bytes() * 4);
}

TEST(FlowSizeCdf, CapLowersMeanButNotBelowBody) {
  const FlowSizeCdf& cdf = FlowSizeCdf::web_search();
  const double uncapped = cdf.mean_bytes();
  const double capped = cdf.mean_bytes(64 * 1024);
  EXPECT_LT(capped, uncapped);       // the elephant tail was clipped
  EXPECT_GT(capped, cdf.quantile(0.5));  // the body is untouched
  // Sampling respects the same cap the analytic mean uses.
  sim::Random rng(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(cdf.sample(rng), 1u);
  }
}

// ---- arrival processes ------------------------------------------------------

TEST(ArrivalSampler, PoissonHitsConfiguredRate) {
  ArrivalSampler::Config c;
  c.kind = ArrivalSampler::Kind::kPoisson;
  c.flows_per_sec = 50'000;
  ArrivalSampler sampler(c);
  EXPECT_DOUBLE_EQ(sampler.effective_rate(), 50'000.0);
  sim::Random rng(11);
  sim::Time total = sim::Time::zero();
  constexpr int kGaps = 100'000;
  for (int i = 0; i < kGaps; ++i) {
    const sim::Time gap = sampler.next_gap(rng);
    EXPECT_GT(gap, sim::Time::zero());
    total = total + gap;
  }
  const double rate = kGaps / total.as_seconds();
  EXPECT_NEAR(rate / 50'000.0, 1.0, 0.05);
}

TEST(ArrivalSampler, OnOffLongRunRateIsDutyCycled) {
  ArrivalSampler::Config c;
  c.kind = ArrivalSampler::Kind::kOnOff;
  c.flows_per_sec = 100'000;
  c.on_mean = sim::Time::millis(1);
  c.off_mean = sim::Time::millis(4);
  ArrivalSampler sampler(c);
  // 1 ms ON every 5 ms -> 20% duty cycle.
  EXPECT_NEAR(sampler.effective_rate(), 20'000.0, 1e-6);
  sim::Random rng(13);
  sim::Time total = sim::Time::zero();
  constexpr int kGaps = 50'000;
  for (int i = 0; i < kGaps; ++i) {
    total = total + sampler.next_gap(rng);
  }
  const double rate = kGaps / total.as_seconds();
  EXPECT_NEAR(rate / sampler.effective_rate(), 1.0, 0.15);
}

// ---- scenario lowering ------------------------------------------------------

TEST(ApplyRates, AdoptsPacketBytesAndCapsLoad) {
  ScenarioSpec spec;
  spec.flows = 10'000;
  spec.load = 0.5;

  analysis::EventRates rates;
  rates.avg_packet_bytes = 1500;
  // A budget far below what 50% of 10 Gb/s offers: load must come down.
  rates.set(analysis::Handler::kIngress, 1e5);
  const ScenarioSpec scaled = apply_rates(spec, rates);
  EXPECT_EQ(scaled.packet_bytes, 1500u);
  EXPECT_LT(scaled.load, spec.load);

  // A generous budget never *raises* the offered load.
  analysis::EventRates roomy;
  roomy.set(analysis::Handler::kIngress, 1e12);
  EXPECT_DOUBLE_EQ(apply_rates(spec, roomy).load, spec.load);

  // No annotations -> identity.
  const ScenarioSpec same = apply_rates(spec, analysis::EventRates{});
  EXPECT_EQ(same.packet_bytes, spec.packet_bytes);
  EXPECT_DOUBLE_EQ(same.load, spec.load);
}

TEST(BuildTopology, ShapeMatchesSpec) {
  ScenarioSpec spec;
  spec.edges = 3;
  spec.hosts_per_edge = 2;
  topo::Spec topo;
  const TopologyMap map = build_topology(spec, topo);
  EXPECT_EQ(topo.num_switches(), 1 + spec.edges);
  EXPECT_EQ(topo.num_hosts(), 2 + spec.num_sources());  // sink + aux + sources
  // host links (sink, aux, sources) + one uplink per edge.
  EXPECT_EQ(topo.num_links(), 2 + spec.num_sources() + spec.edges);
  EXPECT_EQ(map.source_hosts.size(), spec.num_sources());
  EXPECT_EQ(map.source_ips.size(), spec.num_sources());
  // Source addresses are distinct and inside 10/8 but outside the sink /24.
  std::set<std::uint32_t> ips;
  for (const net::Ipv4Address& ip : map.source_ips) {
    ips.insert(ip.value());
    EXPECT_TRUE(net::Ipv4Address(10, 0, 0, 0).matches_prefix(ip, 8));
    EXPECT_FALSE(net::Ipv4Address(10, 0, 0, 0).matches_prefix(ip, 24));
  }
  EXPECT_EQ(ips.size(), spec.num_sources());
}

TEST(EdgeProgram, LoopBreakerDropsUplinkBounce) {
  sim::Scheduler sched;
  core::EventSwitchConfig cfg;
  cfg.name = "edge";
  cfg.num_ports = 3;  // hosts on 0..1, uplink on 2
  core::EventSwitch sw(sched, cfg);
  EdgeProgram prog(/*uplink_port=*/2);
  prog.add_route(net::Ipv4Address(10, 0, 0, 0), 8, 2);
  prog.add_route(net::Ipv4Address(10, 1, 1, 1), 32, 0);
  sw.set_program(&prog);
  int tx_host = 0, tx_uplink = 0;
  sw.connect_tx(0, [&](net::Packet) { ++tx_host; });
  sw.connect_tx(2, [&](net::Packet) { ++tx_uplink; });

  const net::Ipv4Address local(10, 1, 1, 1);
  const net::Ipv4Address remote(10, 0, 0, 1);
  // Host -> uplink: forwarded.
  sw.receive(0, net::make_udp_packet(local, remote, 1, 2, 100));
  // Uplink -> local host: forwarded down.
  sw.receive(2, net::make_udp_packet(remote, local, 1, 2, 100));
  // Uplink -> non-local 10/8: would bounce straight back up; the
  // structural loop-breaker must drop it instead.
  sw.receive(2, net::make_udp_packet(remote, net::Ipv4Address(10, 2, 2, 2),
                                     1, 2, 100));
  sched.run(100'000);
  EXPECT_EQ(tx_uplink, 1);
  EXPECT_EQ(tx_host, 1);
  EXPECT_EQ(prog.uplink_drops(), 1u);
}

TEST(ScenarioSpec, ReproCoversEveryReplayDimension) {
  ScenarioSpec spec;
  spec.seed = 77;
  spec.sizes = SizeMix::kFixed;
  spec.fixed_flow_bytes = 9000;
  spec.arrivals = ArrivalSampler::Kind::kOnOff;
  spec.incast_degree = 3;
  spec.burst_packets = 16;
  LinkFlap flap;
  flap.target = LinkFlap::Target::kAux;
  flap.down_at = sim::Time::micros(100);
  flap.up_at = sim::Time::micros(250);
  spec.flaps.push_back(flap);
  const std::string repro = spec.repro();
  for (const char* token :
       {"--mix fixed", "--arrivals onoff", "--seed 77", "--fixed-bytes 9000",
        "--on-us", "--off-us", "--incast 3", "--incast-period-us",
        "--bursts 16", "--burst-period-us", "--flap aux:0:100:250",
        "--load", "--packet-bytes"}) {
    EXPECT_NE(repro.find(token), std::string::npos) << "missing " << token;
  }
}

// ---- replay engine ----------------------------------------------------------

ScenarioSpec small_storm(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "test-storm";
  spec.seed = seed;
  spec.edges = 2;
  spec.hosts_per_edge = 2;
  spec.flows = 600;
  spec.incast_degree = 2;
  spec.burst_packets = 8;
  LinkFlap flap;
  flap.target = LinkFlap::Target::kAux;
  flap.down_at = sim::Time::micros(50);
  flap.up_at = sim::Time::micros(150);
  spec.flaps.push_back(flap);
  return spec;
}

TEST(Replay, DigestMatrixSeedByShards) {
  const apps::RegisteredProgram* app = find_program("cms-monitor");
  ASSERT_NE(app, nullptr);
  std::set<std::uint64_t> per_seed_digests;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const ScenarioSpec spec = small_storm(seed);
    std::optional<std::uint64_t> digest;
    for (std::size_t shards : {1, 2, 4}) {
      ReplayOptions opt;
      opt.shards = shards;
      const ScenarioOutcome out = replay(spec, *app, opt);
      EXPECT_GT(out.flows_started, 0u);
      EXPECT_GT(out.sink_rx_packets, 0u);
      if (!digest) {
        digest = out.digest;
      } else {
        EXPECT_EQ(out.digest, *digest)
            << "seed " << seed << " diverged at " << shards << " shards";
      }
    }
    per_seed_digests.insert(*digest);
  }
  // Different seeds replay different traffic.
  EXPECT_EQ(per_seed_digests.size(), 5u);
}

// The storm of benchmark/storm.cpp (storm_seq / storm_4shard).
ScenarioSpec benchmark_storm(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "bench-storm";
  spec.seed = seed;
  spec.edges = 4;
  spec.hosts_per_edge = 2;
  spec.sizes = SizeMix::kWebSearch;
  spec.arrivals = ArrivalSampler::Kind::kPoisson;
  spec.load = 0.4;
  spec.flows = 5000;
  spec.incast_degree = 4;
  spec.burst_packets = 16;
  return spec;
}

// The timing digest folds (time, bytes, port) of every sink receive and
// every DUT departure. These values were recorded while every transmit
// still ended in its own scheduler callback; any change to how the kernel
// gets a packet from one hop to the next must reproduce them exactly, at
// every shard count.
void expect_timing_digests(const char* app_name,
                           ScenarioSpec (*make)(std::uint64_t),
                           const std::array<std::uint64_t, 5>& pinned) {
  const apps::RegisteredProgram* app = find_program(app_name);
  ASSERT_NE(app, nullptr);
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    for (std::size_t shards : {1, 2, 4}) {
      ReplayOptions opt;
      opt.shards = shards;
      const ScenarioOutcome out = replay(make(seed), *app, opt);
      EXPECT_EQ(out.timing_digest, pinned[seed - 1])
          << "seed " << seed << " at " << shards
          << " shards: 0x" << std::hex << out.timing_digest;
    }
  }
}

TEST(Replay, TimingDigestPinnedSmallStorm) {
  expect_timing_digests("cms-monitor", small_storm,
                        {0xe092e059e17d8518ULL, 0x4bbb6edcc80647fbULL,
                         0xc8c89ff52c727e0bULL, 0x0b6c243d2494b0a7ULL,
                         0xdd6927d8f5faaf4dULL});
}

TEST(Replay, TimingDigestPinnedBenchmarkStorm) {
  expect_timing_digests("ecn-marking", benchmark_storm,
                        {0xecce50ccfd9685c3ULL, 0x828f2f694cf75e98ULL,
                         0x37abc7df7060e2d3ULL, 0x6e8b72e9c5ace2c5ULL,
                         0xf5b4f1de2d695036ULL});
}

// liveness runs a 500 us check timer beside a 500 us probe generator for
// ~70 ms of simulated time (~140 timer fires), so timer-block wakes tie
// with generator events on the same timestamp: this pins the order the
// timer block and the scheduler resolve those ties in.
TEST(Replay, TimingDigestPinnedLiveness) {
  expect_timing_digests("liveness", small_storm,
                        {0xc89ad2dba335ef8fULL, 0xf071763bd2328f6dULL,
                         0xf071763bd2328f6dULL, 0xf071763bd2328f6dULL,
                         0x053e7884ab8b05f0ULL});
}

TEST(Replay, SteadyStateLoopDoesNotAllocate) {
  const apps::RegisteredProgram* app = find_program("ecn-marking");
  ASSERT_NE(app, nullptr);
  ScenarioSpec spec = small_storm(1);
  spec.flows = 1200;
  ReplayOptions opt;
  opt.shards = 2;
  const std::uint64_t dropped = net::packet_buffer_pool_stats().dropped;
  const ScenarioOutcome out = replay(spec, *app, opt);
  EXPECT_TRUE(steady_state_allocation_free(out))
      << out.allocations_per_event << " heap allocations per event";
  // One buffer per packet, source to sink: every buffer the pool hands out
  // comes back once, so the pool never overflows its bound and drops one.
  EXPECT_EQ(net::packet_buffer_pool_stats().dropped - dropped, 0u);
}

TEST(Replay, EveryRegisteredAppSurvivesAStorm) {
  ScenarioSpec spec = small_storm(5);
  spec.flows = 200;
  for (const auto& app : apps::program_registry()) {
    const ScenarioOutcome out = replay(spec, app, ReplayOptions{});
    EXPECT_EQ(out.flows_started, out.flows_completed) << app.name;
    EXPECT_GT(out.packets_sent, 0u) << app.name;
    // Forwarding apps must actually deliver to the sink (the aux flap in
    // small_storm never touches the sink path).
    if (app_routes_to_sink(app)) {
      EXPECT_GT(out.sink_rx_packets, 0u) << app.name;
    }
  }
}

TEST(Replay, FrrGetsRoutesInjected) {
  const apps::RegisteredProgram* frr = find_program("fast-reroute");
  ASSERT_NE(frr, nullptr);
  EXPECT_TRUE(app_routes_to_sink(*frr));
  ScenarioSpec spec = small_storm(9);
  spec.flows = 300;
  spec.flaps.clear();
  const ScenarioOutcome out = replay(spec, *frr, ReplayOptions{});
  EXPECT_EQ(out.sink_rx_packets, out.dut_tx_packets);
  EXPECT_GT(out.sink_rx_packets, 0u);
  EXPECT_EQ(out.dut_program_drops, 0u);
}

TEST(Replay, RoutingProbeSeparatesForwardersFromTelemetry) {
  const apps::RegisteredProgram* l3 = find_program("cms-monitor");
  const apps::RegisteredProgram* tor = find_program("hula-spine");
  ASSERT_NE(l3, nullptr);
  ASSERT_NE(tor, nullptr);
  EXPECT_TRUE(app_routes_to_sink(*l3));
  EXPECT_FALSE(app_routes_to_sink(*tor));
}

// ---- fuzzer -----------------------------------------------------------------

TEST(Fuzzer, GenerateIsDeterministicPerIndex) {
  FuzzConfig config;
  config.seed = 99;
  ScenarioFuzzer a(config);
  ScenarioFuzzer b(config);
  for (std::size_t i = 0; i < 10; ++i) {
    auto [sa, app_a] = a.generate(i);
    auto [sb, app_b] = b.generate(i);
    EXPECT_EQ(app_a, app_b);
    EXPECT_EQ(sa.seed, sb.seed);
    EXPECT_EQ(sa.repro(), sb.repro());
  }
}

TEST(Fuzzer, ShrinksInjectedFailureToMinimalCase) {
  FuzzConfig config;
  config.seed = 4;
  config.runs = 1;
  config.flows = 400;
  config.apps = {"cms-monitor"};
  // A deliberately-too-strong oracle: every scenario "fails", so the
  // shrinker must be able to strip every dimension and still reproduce.
  config.extra_invariants.push_back(
      [](const ScenarioSpec&, const ScenarioOutcome&,
         const ScenarioOutcome&) -> std::optional<std::string> {
        return "injected: always fails";
      });
  ScenarioFuzzer fuzzer(config);
  const FuzzReport report = fuzzer.run(/*max_failures=*/1);
  ASSERT_EQ(report.failures, 1u);
  ASSERT_EQ(report.shrunk.size(), 1u);
  const FuzzFailure& f = report.shrunk[0];
  EXPECT_EQ(f.what, "injected: always fails");
  EXPECT_GT(f.shrink_steps, 0u);
  // Fully shrinkable failure -> fully shrunk scenario.
  EXPECT_EQ(f.scenario.flows, 1u);
  EXPECT_EQ(f.scenario.edges, 1u);
  EXPECT_EQ(f.scenario.hosts_per_edge, 1u);
  EXPECT_TRUE(f.scenario.flaps.empty());
  EXPECT_EQ(f.scenario.incast_degree, 0u);
  EXPECT_EQ(f.scenario.burst_packets, 0u);
  EXPECT_NE(f.repro.find("edp_scen run --app cms-monitor"),
            std::string::npos);
}

TEST(Fuzzer, CleanCampaignReportsNoFailures) {
  FuzzConfig config;
  config.seed = 12;
  config.runs = 3;
  config.flows = 400;
  config.apps = {"ecn-marking"};
  ScenarioFuzzer fuzzer(config);
  const FuzzReport report = fuzzer.run();
  EXPECT_EQ(report.runs, 3u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_TRUE(report.shrunk.empty());
}

}  // namespace
}  // namespace edp::workload
