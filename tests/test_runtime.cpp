// runtime/ tests: the SPSC cross-shard ring, shard planning over a Spec,
// and the headline property of the parallel runtime — bit-identical results
// versus the sequential scheduler for every (seed, shard count) pair.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "runtime/parallel_runtime.hpp"
#include "runtime/spsc_ring.hpp"
#include "topo/network.hpp"
#include "topo/routing.hpp"
#include "topo/spec.hpp"
#include "topo/traffic_gen.hpp"

namespace edp {
namespace {

using net::Ipv4Address;
using net::MacAddress;

// ---- SpscRing --------------------------------------------------------------------

TEST(SpscRing, PushPopFifoOrder) {
  runtime::SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(int(i)));
  }
  EXPECT_FALSE(ring.try_push(99));  // full at capacity
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));  // empty
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  runtime::SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  runtime::SpscRing<int> one(1);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(SpscRing, WrapAroundManyTimes) {
  runtime::SpscRing<int> ring(4);
  int v = -1;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(ring.try_push(int(round)));
    EXPECT_TRUE(ring.try_push(int(round + 1000000)));
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, round);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, round + 1000000);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, MoveOnlyPayload) {
  runtime::SpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 7);
}

TEST(SpscRing, TwoThreadStress) {
  runtime::SpscRing<int> ring(64);
  constexpr int kCount = 20000;
  // Yield on full/empty so the test also passes quickly on one core.
  std::thread producer([&ring] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push(int(i))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  int v = -1;
  while (expected < kCount) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PopBurstDrainsFifoWithOnePublish) {
  runtime::SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.try_push(int(i)));
  }
  int out[16];
  // Burst smaller than occupancy: takes exactly `max`, oldest first.
  EXPECT_EQ(ring.pop_burst(out, 4), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], i);
  }
  // Burst larger than occupancy: takes what's there.
  EXPECT_EQ(ring.pop_burst(out, 16), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i], i + 4);
  }
  EXPECT_EQ(ring.pop_burst(out, 16), 0u);  // empty
  EXPECT_TRUE(ring.empty());
  // The freed slots are reusable (head really was published).
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(ring.try_push(int(i)));
  }
  EXPECT_FALSE(ring.try_push(99));
}

TEST(SpscRing, PopBurstTwoThreadStress) {
  runtime::SpscRing<int> ring(64);
  constexpr int kCount = 20000;
  std::thread producer([&ring] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push(int(i))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int burst[32];
  int expected = 0;
  while (expected < kCount) {
    const std::size_t n = ring.pop_burst(burst, 32);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(burst[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ---- topology under test --------------------------------------------------------

topo::Host::Config host_cfg(const std::string& name, Ipv4Address ip) {
  topo::Host::Config c;
  c.name = name;
  c.mac = MacAddress::from_u64(0x020000000000ULL + ip.value());
  c.ip = ip;
  return c;
}

core::EventSwitchConfig sw_cfg(const std::string& name, std::uint16_t ports) {
  core::EventSwitchConfig c;
  c.name = name;
  c.num_ports = ports;
  c.port_rate_bps = 10e9;
  return c;
}

constexpr std::size_t kLeaves = 4;
constexpr std::size_t kSpines = 2;

// Leaf-spine fabric: leaf l = switch l (port 0 host, port 1+s spine s),
// spine s = switch kLeaves+s (port l -> leaf l), host l on leaf l with
// ip 10.0.l.1. Host links 1us, fabric links 2us (the lookahead).
topo::Spec make_spec() {
  topo::Spec spec;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    spec.add_switch(sw_cfg("leaf" + std::to_string(l),
                           static_cast<std::uint16_t>(1 + kSpines)));
  }
  for (std::size_t s = 0; s < kSpines; ++s) {
    spec.add_switch(sw_cfg("spine" + std::to_string(s),
                           static_cast<std::uint16_t>(kLeaves)));
  }
  topo::Link::Config host_link;
  host_link.delay = sim::Time::micros(1);
  topo::Link::Config fabric_link;
  fabric_link.delay = sim::Time::micros(2);
  for (std::size_t l = 0; l < kLeaves; ++l) {
    const auto h = spec.add_host(host_cfg(
        "h" + std::to_string(l),
        Ipv4Address(10, 0, static_cast<std::uint8_t>(l), 1)));
    spec.connect_host(h, l, 0, host_link);
  }
  for (std::size_t l = 0; l < kLeaves; ++l) {
    for (std::size_t s = 0; s < kSpines; ++s) {
      spec.connect_switches(l, static_cast<std::uint16_t>(1 + s), kLeaves + s,
                            static_cast<std::uint16_t>(l), fabric_link);
    }
  }
  return spec;
}

// One L3Program per switch; uplink spine chosen by destination leaf parity
// so paths are deterministic without ECMP.
std::vector<std::unique_ptr<topo::L3Program>> make_programs() {
  std::vector<std::unique_ptr<topo::L3Program>> progs;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    auto p = std::make_unique<topo::L3Program>();
    for (std::size_t m = 0; m < kLeaves; ++m) {
      const Ipv4Address prefix(10, 0, static_cast<std::uint8_t>(m), 0);
      if (m == l) {
        p->add_route(prefix, 24, 0);
      } else {
        p->add_route(prefix, 24, static_cast<std::uint16_t>(1 + (m % kSpines)));
      }
    }
    progs.push_back(std::move(p));
  }
  for (std::size_t s = 0; s < kSpines; ++s) {
    auto p = std::make_unique<topo::L3Program>();
    for (std::size_t m = 0; m < kLeaves; ++m) {
      p->add_route(Ipv4Address(10, 0, static_cast<std::uint8_t>(m), 0), 24,
                   static_cast<std::uint16_t>(m));
    }
    progs.push_back(std::move(p));
  }
  return progs;
}

topo::PoissonGenerator::Config gen_cfg(std::uint64_t seed, std::size_t host,
                                       Ipv4Address src, Ipv4Address dst,
                                       double rate_bps) {
  topo::PoissonGenerator::Config c;
  c.flow.src = src;
  c.flow.dst = dst;
  c.flow.src_port = static_cast<std::uint16_t>(10000 + host);
  c.flow.dst_port = static_cast<std::uint16_t>(20000 + host);
  c.flow.packet_size = 1000;
  c.mean_rate_bps = rate_bps;
  c.start = sim::Time::zero();
  c.stop = sim::Time::millis(4);
  c.seed = seed * 1000 + host;
  return c;
}

constexpr auto kRunSpan = sim::Time::millis(6);

// FNV-1a over every observable the workload can perturb: switch counters,
// per-kind event observations, host rx/tx statistics.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void mix_switch(const core::EventSwitch& sw) {
    const auto& c = sw.counters();
    for (std::uint64_t v :
         {c.rx_packets, c.tx_packets, c.tx_bytes, c.parse_drops,
          c.program_drops, c.bad_port_drops, c.recirculated,
          c.recirc_loop_drops, c.generated, c.punts, c.refused_ops}) {
      mix(v);
    }
    for (std::uint64_t v : c.observed) {
      mix(v);
    }
  }
  void mix_host(const topo::Host& host, std::size_t sender) {
    mix(host.tx_packets());
    mix(host.rx_packets());
    mix(host.rx_bytes());
    // Host (sender+1) receives sender's flow on dst_port 20000+sender.
    mix(host.rx_on_port(static_cast<std::uint16_t>(20000 + sender)));
  }
};

struct RunStats {
  std::uint64_t digest = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t overflows = 0;
};

std::uint64_t run_sequential(std::uint64_t seed, double rate_bps = 200e6) {
  sim::Scheduler sched;
  topo::Network net(sched);
  const topo::Spec spec = make_spec();
  spec.instantiate(net);
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    net.sw(i).set_program(progs[i].get());
  }
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    const auto dst = net.host((h + 1) % spec.num_hosts()).ip();
    gens.push_back(std::make_unique<topo::PoissonGenerator>(
        sched, net.host(h), gen_cfg(seed, h, net.host(h).ip(), dst, rate_bps)));
    gens.back()->start();
  }
  net.run_until(kRunSpan);
  Digest d;
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    d.mix_switch(net.sw(i));
  }
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    d.mix_host(net.host((h + 1) % spec.num_hosts()), h);
  }
  return d.h;
}

/// The index block split: switch i goes to shard i * shards / num_switches,
/// hosts follow their first switch. A fixed plan to compare the greedy
/// planner against.
topo::ShardPlan block_plan(const topo::Spec& spec, std::size_t shards) {
  std::vector<std::size_t> assign(spec.num_switches());
  for (std::size_t i = 0; i < assign.size(); ++i) {
    assign[i] = i * shards / spec.num_switches();
  }
  return topo::plan_shards(spec, shards, std::move(assign));
}

RunStats run_parallel(std::uint64_t seed, std::size_t shards,
                      runtime::RuntimeOptions options = {},
                      bool split_run = false, double rate_bps = 200e6,
                      bool block_split = false) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec,
                              block_split ? block_plan(spec, shards)
                                          : topo::plan_shards(spec, shards),
                              options);
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    const auto dst = rt.host((h + 1) % spec.num_hosts()).ip();
    gens.push_back(std::make_unique<topo::PoissonGenerator>(
        rt.scheduler_of_host(h), rt.host(h),
        gen_cfg(seed, h, rt.host(h).ip(), dst, rate_bps)));
    gens.back()->start();
  }
  if (split_run) {
    rt.run_until(kRunSpan / 3);
    rt.run_until(kRunSpan);
  } else {
    rt.run_until(kRunSpan);
  }
  Digest d;
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    d.mix_switch(rt.sw(i));
  }
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    d.mix_host(rt.host((h + 1) % spec.num_hosts()), h);
  }
  return RunStats{d.h, rt.cross_shard_messages(), rt.overflow_messages()};
}

// ---- shard planning --------------------------------------------------------------

TEST(ShardPlan, ContiguousBlockPartitionAndCutDetection) {
  const topo::Spec spec = make_spec();
  const auto plan = block_plan(spec, 2);
  ASSERT_EQ(plan.switch_shard.size(), kLeaves + kSpines);
  // Block partition: first half of the switch list -> shard 0.
  EXPECT_EQ(plan.switch_shard.front(), 0u);
  EXPECT_EQ(plan.switch_shard.back(), 1u);
  // Hosts follow their leaf.
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    EXPECT_EQ(plan.host_shard[h], plan.switch_shard[h]);
  }
  // Every leaf<->spine link whose ends differ is a cut; lookahead is the
  // fabric delay.
  EXPECT_FALSE(plan.cut_links.empty());
  ASSERT_TRUE(plan.lookahead.has_value());
  EXPECT_EQ(*plan.lookahead, sim::Time::micros(2));
  for (std::size_t c : plan.cut_links) {
    const auto& ls = spec.link_spec(c);
    EXPECT_FALSE(ls.host_side);  // host links are never cut under auto-plan
  }
}

TEST(ShardPlan, GreedyPlannerCutsNoMoreThanContiguous) {
  const topo::Spec spec = make_spec();
  for (std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const auto greedy = topo::plan_shards(spec, shards);
    const auto block = block_plan(spec, shards);
    EXPECT_LE(greedy.cut_links.size(), block.cut_links.size())
        << shards << " shards";
    EXPECT_LE(greedy.cut_fraction, block.cut_fraction);
    EXPECT_EQ(greedy.num_shards, shards);
    EXPECT_EQ(greedy.empty_shards, 0u);
    // Deterministic: replanning yields the identical assignment.
    const auto again = topo::plan_shards(spec, shards);
    EXPECT_EQ(again.switch_shard, greedy.switch_shard);
    EXPECT_EQ(again.host_shard, greedy.host_shard);
  }
}

TEST(ShardPlan, PairLookaheadMatrixAndCutFraction) {
  const topo::Spec spec = make_spec();
  const auto plan = topo::plan_shards(spec, 2);
  ASSERT_EQ(plan.pair_lookahead_ps.size(), 4u);
  // All cut links are 2us fabric links, both directions of the pair.
  ASSERT_TRUE(plan.pair_lookahead(0, 1).has_value());
  ASSERT_TRUE(plan.pair_lookahead(1, 0).has_value());
  EXPECT_EQ(*plan.pair_lookahead(0, 1), sim::Time::micros(2));
  EXPECT_EQ(*plan.pair_lookahead(1, 0), sim::Time::micros(2));
  // Self-pairs never carry a channel.
  EXPECT_FALSE(plan.pair_lookahead(0, 0).has_value());
  EXPECT_FALSE(plan.pair_lookahead(1, 1).has_value());
  // The matrix min equals the legacy global lookahead.
  EXPECT_EQ(*plan.lookahead, sim::Time::micros(2));
  EXPECT_DOUBLE_EQ(plan.cut_fraction,
                   static_cast<double>(plan.cut_links.size()) /
                       static_cast<double>(spec.num_links()));
  EXPECT_GT(plan.cut_fraction, 0.0);
}

TEST(ShardPlan, ExplicitAssignmentAndNoCuts) {
  const topo::Spec spec = make_spec();
  // Everything in shard 0 of 2: no cut links, no lookahead bound, and the
  // unused shard id is surfaced as an empty shard.
  std::vector<std::size_t> all_zero(spec.num_switches(), 0);
  const auto plan = topo::plan_shards(spec, 2, all_zero);
  EXPECT_TRUE(plan.cut_links.empty());
  EXPECT_FALSE(plan.lookahead.has_value());
  EXPECT_EQ(plan.empty_shards, 1u);
  EXPECT_EQ(plan.cut_fraction, 0.0);
  for (std::int64_t cell : plan.pair_lookahead_ps) {
    EXPECT_EQ(cell, topo::ShardPlan::kNoChannel);
  }
}

// Regression for the degenerate-split bug: asking for more shards than
// switches used to produce empty shards whose worker threads barriered
// every window without ever executing an event. The planner now clamps and
// records the clamp in the plan.
TEST(ShardPlan, ClampsShardsToSwitchCountAndStaysCorrect) {
  // 3-switch line: h0 - sw0 - sw1 - sw2 - h1, fabric links 2us.
  topo::Spec spec;
  spec.add_switch(sw_cfg("sw0", 2));
  spec.add_switch(sw_cfg("sw1", 2));
  spec.add_switch(sw_cfg("sw2", 2));
  topo::Link::Config host_link;
  host_link.delay = sim::Time::micros(1);
  topo::Link::Config fabric_link;
  fabric_link.delay = sim::Time::micros(2);
  spec.connect_host(spec.add_host(host_cfg("h0", Ipv4Address(10, 0, 0, 1))), 0,
                    0, host_link);
  spec.connect_host(spec.add_host(host_cfg("h1", Ipv4Address(10, 0, 2, 1))), 2,
                    0, host_link);
  spec.connect_switches(0, 1, 1, 0, fabric_link);
  spec.connect_switches(1, 1, 2, 1, fabric_link);

  const auto plan = topo::plan_shards(spec, 4);
  EXPECT_EQ(plan.num_shards, 3u);  // clamped: one switch per shard max
  EXPECT_EQ(plan.requested_shards, 4u);
  EXPECT_EQ(plan.empty_shards, 0u);

  // The clamped plan still runs and matches the sequential reference.
  auto programs = [] {
    std::vector<std::unique_ptr<topo::L3Program>> progs;
    for (std::size_t i = 0; i < 3; ++i) {
      auto p = std::make_unique<topo::L3Program>();
      // Line routing: sw0/sw1 reach h0 via port 0 and h1 via port 1; sw2
      // has its host on port 0 and its uplink on port 1.
      p->add_route(Ipv4Address(10, 0, 0, 0), 24, i == 2 ? 1 : 0);
      p->add_route(Ipv4Address(10, 0, 2, 0), 24, i == 2 ? 0 : 1);
      progs.push_back(std::move(p));
    }
    return progs;
  };
  const auto run = [&](auto&& body) {
    topo::CbrGenerator::Config gc;
    gc.flow.src = Ipv4Address(10, 0, 0, 1);
    gc.flow.dst = Ipv4Address(10, 0, 2, 1);
    gc.flow.packet_size = 500;
    gc.rate_bps = 50e6;
    gc.stop = sim::Time::millis(1);
    return body(gc);
  };
  const std::uint64_t seq_digest = run([&](auto gc) {
    sim::Scheduler sched;
    topo::Network net(sched);
    spec.instantiate(net);
    auto progs = programs();
    for (std::size_t i = 0; i < 3; ++i) {
      net.sw(i).set_program(progs[i].get());
    }
    topo::CbrGenerator gen(sched, net.host(0), gc);
    gen.start();
    net.run_until(sim::Time::millis(2));
    EXPECT_GT(net.host(1).rx_packets(), 0u);
    Digest d;
    for (std::size_t i = 0; i < 3; ++i) {
      d.mix_switch(net.sw(i));
    }
    d.mix(net.host(1).rx_packets());
    return d.h;
  });
  const std::uint64_t par_digest = run([&](auto gc) {
    runtime::ParallelRuntime rt(spec, plan);
    auto progs = programs();
    for (std::size_t i = 0; i < 3; ++i) {
      rt.sw(i).set_program(progs[i].get());
    }
    topo::CbrGenerator gen(rt.scheduler_of_host(0), rt.host(0), gc);
    gen.start();
    rt.run_until(sim::Time::millis(2));
    Digest d;
    for (std::size_t i = 0; i < 3; ++i) {
      d.mix_switch(rt.sw(i));
    }
    d.mix(rt.host(1).rx_packets());
    return d.h;
  });
  EXPECT_EQ(par_digest, seq_digest);
}

TEST(ShardPlan, SingleShardHasNoCuts) {
  const topo::Spec spec = make_spec();
  const auto plan = topo::plan_shards(spec, 1);
  EXPECT_TRUE(plan.cut_links.empty());
  EXPECT_FALSE(plan.lookahead.has_value());
}

// ---- parallel runtime ------------------------------------------------------------

TEST(ParallelRuntime, CrossShardTrafficIsDelivered) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, 2));
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  // Host 0 (shard 0) -> host 3 (shard 1): every packet crosses the cut.
  topo::CbrGenerator::Config gc;
  gc.flow.src = rt.host(0).ip();
  gc.flow.dst = rt.host(3).ip();
  gc.flow.packet_size = 500;
  gc.rate_bps = 100e6;
  gc.stop = sim::Time::millis(2);
  topo::CbrGenerator gen(rt.scheduler_of_host(0), rt.host(0), gc);
  gen.start();

  rt.run_until(sim::Time::millis(4));
  EXPECT_GT(gen.sent(), 40u);
  EXPECT_EQ(rt.host(3).rx_packets(), gen.sent());
  EXPECT_GE(rt.cross_shard_messages(), gen.sent());
  // Adaptive windows: the busy phase still needs hundreds of rounds (the
  // flow keeps both shards' next-event times within one lookahead).
  EXPECT_GT(rt.windows(), 100u);
}

TEST(ParallelRuntime, DeterminismAcrossSeedsAndShardCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t reference = run_sequential(seed);
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const RunStats par = run_parallel(seed, shards);
      EXPECT_EQ(par.digest, reference)
          << "seed " << seed << ", " << shards << " shards";
      if (shards > 1) {
        EXPECT_GT(par.cross_shard, 0u);
      }
    }
  }
}

TEST(ParallelRuntime, RepeatedRunUntilMatchesSingleRun) {
  const RunStats one_shot = run_parallel(7, 2);
  const RunStats split = run_parallel(7, 2, {}, /*split_run=*/true);
  EXPECT_EQ(split.digest, one_shot.digest);
  EXPECT_EQ(one_shot.digest, run_sequential(7));
}

// The scenario-engine pattern under the persistent pool: resuming a paused
// run must be invisible in the results, for every seed and shard count.
// The pool's round counter (ring parity) and the in-flight channel minima
// persist across run_until calls; a bug in either shows up here as a
// digest mismatch.
TEST(ParallelRuntime, SplitRunsMatchAcrossSeedsAndShardCounts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const RunStats one_shot = run_parallel(seed, shards);
      const RunStats split =
          run_parallel(seed, shards, {}, /*split_run=*/true);
      EXPECT_EQ(split.digest, one_shot.digest)
          << "seed " << seed << ", " << shards << " shards";
    }
  }
}

// A fixed block split must match the sequential reference too (same
// events, different partition), proving determinism is plan-independent.
TEST(ParallelRuntime, ContiguousPlanMatchesSequential) {
  for (std::uint64_t seed : {std::uint64_t{2}, std::uint64_t{5}}) {
    const std::uint64_t reference = run_sequential(seed);
    for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const RunStats par = run_parallel(seed, shards, {}, false, 200e6,
                                        /*block_split=*/true);
      EXPECT_EQ(par.digest, reference)
          << "seed " << seed << ", " << shards << " shards";
    }
  }
}

TEST(ParallelRuntime, RingOverflowFallbackStaysDeterministic) {
  runtime::RuntimeOptions tiny;
  tiny.ring_capacity = 1;  // force the overflow path
  const double heavy = 2e9;  // enough load that >1 packet crosses per window
  const RunStats par =
      run_parallel(3, 2, tiny, /*split_run=*/false, heavy);
  EXPECT_GT(par.overflows, 0u);
  EXPECT_EQ(par.digest, run_sequential(3, heavy));
}

// Overflow stress with real concurrency: four pool threads (max_workers
// overrides the core count), capacity-1 rings, heavy load. Run under TSan
// in CI, this is the witness that the unlocked overflow vectors are
// phase-separated by the round barrier — producers append only while the
// consumer side is parked on the opposite parity.
TEST(ParallelRuntime, RingOverflowStressUnderFourWorkers) {
  runtime::RuntimeOptions opt;
  opt.ring_capacity = 1;
  opt.max_workers = 4;
  const double heavy = 2e9;
  const RunStats par = run_parallel(9, 4, opt, /*split_run=*/true, heavy);
  EXPECT_GT(par.overflows, 0u);
  EXPECT_EQ(par.digest, run_sequential(9, heavy));
}

// Idle-window skipping: once traffic stops (4ms) the shards publish empty
// next-event times and the window fixpoint jumps straight to the deadline
// instead of barriering once per 2us lookahead. 96ms of idle tail under
// the old runtime would cost 48000 windows on its own.
TEST(ParallelRuntime, IdleWindowsAreSkipped) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, 2));
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    const auto dst = rt.host((h + 1) % spec.num_hosts()).ip();
    gens.push_back(std::make_unique<topo::PoissonGenerator>(
        rt.scheduler_of_host(h), rt.host(h),
        gen_cfg(11, h, rt.host(h).ip(), dst, 200e6)));
    gens.back()->start();
  }
  rt.run_until(sim::Time::millis(100));
  // Active phase is 4ms; under the old fixed-window runtime the full run
  // would cost 100ms / 2us = 50000 windows. The adaptive windows must not
  // pay for the quiet 96ms.
  EXPECT_LT(rt.windows(), 10000u);
  EXPECT_GT(rt.windows(), 100u);  // the busy phase still synchronizes
}

// One shard has no channels, so every run_until that advances time is
// exactly one round of the shared round loop, and a deadline at or before
// now() does nothing.
TEST(ParallelRuntime, SingleShardRunsOneRoundPerCall) {
  const std::uint64_t seed = 4;
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, 1));
  ASSERT_EQ(rt.num_shards(), 1u);
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    const auto dst = rt.host((h + 1) % spec.num_hosts()).ip();
    gens.push_back(std::make_unique<topo::PoissonGenerator>(
        rt.scheduler_of_host(h), rt.host(h),
        gen_cfg(seed, h, rt.host(h).ip(), dst, 200e6)));
    gens.back()->start();
  }
  constexpr std::int64_t kCalls = 7;
  for (std::int64_t k = 1; k <= kCalls; ++k) {
    const sim::Time deadline = kRunSpan * k / kCalls;
    rt.run_until(deadline);
    EXPECT_EQ(rt.now(), deadline);
    EXPECT_EQ(rt.windows(), static_cast<std::uint64_t>(k));
    // No-ops: the current time, and a time already past.
    rt.run_until(deadline);
    rt.run_until(deadline / 2);
    EXPECT_EQ(rt.now(), deadline);
    EXPECT_EQ(rt.windows(), static_cast<std::uint64_t>(k));
  }
  Digest d;
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    d.mix_switch(rt.sw(i));
  }
  for (std::size_t h = 0; h < spec.num_hosts(); ++h) {
    d.mix_host(rt.host((h + 1) % spec.num_hosts()), h);
  }
  EXPECT_EQ(d.h, run_sequential(seed));
}

TEST(ParallelRuntime, ShardIdTagIsApplied) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, 2));
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    EXPECT_EQ(rt.sw(i).shard_id(), rt.shard_of_switch(i));
  }
}

}  // namespace
}  // namespace edp
