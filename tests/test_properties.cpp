// Property-based suites: invariants checked over randomized inputs and
// parameter sweeps (TEST_P), seeded for reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "core/aggregated_register.hpp"
#include "core/event_switch.hpp"
#include "core/timer_block.hpp"
#include "pisa/meter.hpp"
#include "stats/sliding_window.hpp"
#include "topo/host.hpp"
#include "topo/reliable.hpp"
#include "net/checksum.hpp"
#include "net/packet_builder.hpp"
#include "pisa/deparser.hpp"
#include "pisa/parser.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/count_min_sketch.hpp"
#include "tm/buffer_pool.hpp"
#include "tm/pifo.hpp"
#include "tm/scheduler.hpp"

namespace edp {
namespace {

// ---- P1: aggregated register equivalence -------------------------------------------
//
// For ANY interleaving of packet RMWs, enqueue/dequeue aggregation ops and
// partial drains, once fully drained the main register equals a ground
// truth accumulator; and at every instant true_value() equals the ground
// truth (aggregation never loses or invents updates).

class AggregationEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AggregationEquivalence, AnyInterleavingConverges) {
  sim::Random rng(GetParam());
  constexpr std::size_t kSize = 32;
  core::AggregatedRegister reg("r", kSize);
  std::vector<std::int64_t> truth(kSize, 0);

  std::uint64_t cycle = 0;
  for (int op = 0; op < 5000; ++op) {
    ++cycle;
    const std::size_t idx = rng.uniform(kSize);
    const auto delta =
        static_cast<std::int64_t>(rng.uniform_range(-500, 500));
    switch (rng.uniform(5)) {
      case 0:  // packet RMW on main
        reg.packet_add(idx, delta, cycle);
        truth[idx] += delta;
        break;
      case 1:  // enqueue event
        reg.enqueue_add(idx, delta, cycle);
        truth[idx] += delta;
        break;
      case 2:  // dequeue event
        reg.dequeue_add(idx, delta, cycle);
        truth[idx] += delta;
        break;
      case 3:  // idle cycle: drain a little
        reg.drain(cycle, 1 + rng.uniform(3));
        break;
      case 4: {  // packet read: must never exceed |truth| bound sanity
        (void)reg.packet_read(idx, cycle);
        break;
      }
    }
    // Invariant: the combined view is always exact.
    ASSERT_EQ(reg.true_value(idx), truth[idx]) << "op " << op;
  }
  reg.drain_all(cycle + 1);
  for (std::size_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(reg.main_value(i), truth[i]) << "index " << i;
  }
  EXPECT_EQ(reg.backlog(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationEquivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Staleness bound: if every cycle with an event is followed by at least one
// drain-capable idle cycle (drain rate >= event rate), backlog stays O(1)
// and staleness is bounded by a small constant.
TEST(AggregationStaleness, BoundedWhenDrainKeepsUp) {
  core::AggregatedRegister reg("r", 64);
  std::uint64_t cycle = 0;
  for (int i = 0; i < 10'000; ++i) {
    ++cycle;
    reg.enqueue_add(static_cast<std::size_t>(i) % 64, 10, cycle);
    ++cycle;                // idle cycle
    reg.drain(cycle, 1);    // drain bandwidth >= event bandwidth
  }
  EXPECT_LE(reg.backlog_max(), 2u);
  EXPECT_LE(reg.staleness_max(), 4u);
}

TEST(AggregationStaleness, UnboundedWhenNoIdleCycles) {
  core::AggregatedRegister reg("r", 4096);
  std::uint64_t cycle = 0;
  // Events on distinct indices every cycle, never a drain opportunity —
  // the saturated-pipeline case of §4.
  for (int i = 0; i < 2000; ++i) {
    ++cycle;
    reg.enqueue_add(static_cast<std::size_t>(i), 1, cycle);
  }
  EXPECT_EQ(reg.backlog(), 2000u);
  EXPECT_EQ(reg.oldest_age(cycle), 1999u);  // grows without bound
}

// ---- P2: PIFO ordering ----------------------------------------------------------------

class PifoOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PifoOrdering, DequeueSequenceIsSortedStable) {
  sim::Random rng(GetParam());
  tm_::PifoQueue q(tm_::QueueLimits{100'000, 100'000'000});
  struct Pushed {
    std::uint64_t rank;
    std::uint64_t seq;
  };
  std::vector<Pushed> pushed;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    tm_::QueuedPacket qp;
    qp.packet = net::Packet(64);
    qp.rank = rng.uniform(50);  // few ranks -> many ties
    qp.deq_meta[0] = i;         // remember the push order
    pushed.push_back({qp.rank, i});
    q.push(std::move(qp));
  }
  std::uint64_t prev_rank = 0;
  std::map<std::uint64_t, std::uint64_t> last_seq_of_rank;
  while (!q.empty()) {
    const auto qp = q.pop();
    ASSERT_TRUE(qp.has_value());
    ASSERT_GE(qp->rank, prev_rank) << "rank order violated";
    prev_rank = qp->rank;
    // Stability: within one rank, pops follow push order.
    const std::uint64_t seq = qp->deq_meta[0];
    auto it = last_seq_of_rank.find(qp->rank);
    if (it != last_seq_of_rank.end()) {
      ASSERT_GT(seq, it->second) << "FIFO tie-break violated";
    }
    last_seq_of_rank[qp->rank] = seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PifoOrdering,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---- P3: CMS error bound ---------------------------------------------------------------

class CmsErrorBound
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CmsErrorBound, EstimateWithinEpsilonN) {
  const auto [epsilon, delta] = GetParam();
  auto cms = stats::CountMinSketch::from_error_bounds(epsilon, delta,
                                                      /*seed=*/0xfeed);
  sim::Random rng(1234);
  sim::ZipfSampler zipf(2000, 1.1);
  std::vector<std::uint64_t> truth(2000, 0);
  constexpr std::uint64_t kN = 200'000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    cms.update(key);
    ++truth[key];
  }
  std::size_t violations = 0;
  for (std::uint64_t k = 0; k < truth.size(); ++k) {
    const std::uint64_t est = cms.estimate(k);
    ASSERT_GE(est, truth[k]);  // one-sided guarantee is absolute
    if (est > truth[k] + static_cast<std::uint64_t>(epsilon *
                                                    static_cast<double>(kN))) {
      ++violations;
    }
  }
  // P(violation) <= delta per key; allow 3x slack on the empirical rate.
  EXPECT_LE(static_cast<double>(violations),
            3.0 * delta * static_cast<double>(truth.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, CmsErrorBound,
    ::testing::Values(std::make_pair(0.01, 0.05), std::make_pair(0.005, 0.01),
                      std::make_pair(0.02, 0.1)));

// ---- P4: parser/deparser round trip -------------------------------------------------------

class ParserRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserRoundTrip, RandomPacketsSurviveUnchanged) {
  sim::Random rng(GetParam());
  const pisa::Parser parser = pisa::Parser::standard();
  const pisa::Deparser deparser;
  for (int i = 0; i < 200; ++i) {
    // Random protocol pick and random field values.
    const net::Ipv4Address src(static_cast<std::uint32_t>(rng.next_u64()));
    const net::Ipv4Address dst(static_cast<std::uint32_t>(rng.next_u64()));
    const auto sp = static_cast<std::uint16_t>(rng.uniform(65536));
    const auto dp = static_cast<std::uint16_t>(1 + rng.uniform(9000));
    const std::size_t size = 64 + rng.uniform(1400);
    net::Packet pkt;
    switch (rng.uniform(3)) {
      case 0:
        pkt = net::make_udp_packet(src, dst, sp, dp, size);
        break;
      case 1:
        pkt = net::PacketBuilder()
                  .ethernet(net::MacAddress::from_u64(rng.next_u64()),
                            net::MacAddress::from_u64(rng.next_u64()))
                  .ipv4(src, dst, net::kIpProtoTcp)
                  .tcp(sp, dp, static_cast<std::uint32_t>(rng.next_u64()))
                  .payload(size)
                  .build();
        break;
      case 2:
        pkt = net::PacketBuilder()
                  .ethernet(net::MacAddress::from_u64(rng.next_u64()),
                            net::MacAddress::from_u64(rng.next_u64()))
                  .vlan(static_cast<std::uint16_t>(rng.uniform(4096)))
                  .ipv4(src, dst, net::kIpProtoUdp)
                  .udp(sp, dp)
                  .payload(size)
                  .build();
        break;
    }
    const pisa::Phv phv = parser.parse(pkt);
    ASSERT_FALSE(phv.parse_error);
    const net::Packet out = deparser.deparse(phv);
    ASSERT_EQ(out.size(), pkt.size());
    for (std::size_t b = 0; b < out.size(); ++b) {
      ASSERT_EQ(out.u8(b), pkt.u8(b)) << "iteration " << i << " byte " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTrip,
                         ::testing::Values(101u, 202u, 303u));

// ---- P5: checksum detects any single bit flip ------------------------------------------------

TEST(ChecksumProperty, AnySingleBitFlipDetected) {
  net::Packet p(net::Ipv4Header::kSize);
  net::Ipv4Header h;
  h.src = net::Ipv4Address(10, 1, 2, 3);
  h.dst = net::Ipv4Address(172, 16, 254, 7);
  h.protocol = net::kIpProtoTcp;
  h.total_length = 1400;
  h.ttl = 63;
  h.update_checksum();
  h.encode(p, 0);
  ASSERT_EQ(net::internet_checksum(p.bytes()), 0);
  for (std::size_t byte = 0; byte < p.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Packet q = p;
      q.set_u8(byte, static_cast<std::uint8_t>(q.u8(byte) ^ (1u << bit)));
      ASSERT_NE(net::internet_checksum(q.bytes()), 0)
          << "flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

// ---- P6: timer block fires every live timer on its tick, once, in arm order ---------
//
// Random set_periodic / set_oneshot / cancel over delays of 1 to 2e6 ticks,
// checked against a model: every live timer fires exactly on its
// ceil-quantized tick (periodic ones once per period, re-armed from the
// scheduled tick), timers due on one tick arrive as one burst in arm
// order, and cancelled timers never fire.

class TimerBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerBlockProperty, AllTimersFireOnceInOrder) {
  constexpr std::int64_t kRes = 1'000'000;  // 1 us, in ps
  sim::Random rng(GetParam());
  sim::Scheduler sched;
  core::TimerBlock timers(sched, sim::Time::picos(kRes));

  struct Want {
    std::uint64_t tick;  ///< next due tick
    sim::Time period;    ///< zero => one-shot
    std::uint64_t seq;   ///< arm order of the pending arm
  };
  std::map<core::TimerId, Want> live;
  std::map<std::uint64_t, std::size_t> due;  // tick -> live timers due then
  std::uint64_t seq = 0;
  std::uint64_t last_tick = 0;
  std::uint64_t fires = 0;
  std::size_t max_burst = 0;
  const auto ceil_tick = [](sim::Time t) {
    return static_cast<std::uint64_t>((t.ps() + kRes - 1) / kRes);
  };
  const auto at_tick = [](std::uint64_t tick) {
    return sim::Time::picos(static_cast<std::int64_t>(tick) * kRes);
  };
  const auto arm = [&](core::TimerId id, std::uint64_t tick,
                       sim::Time period) {
    tick = std::max(tick, last_tick + 1);
    live[id] = Want{tick, period, seq++};
    ++due[tick];
  };
  const auto disarm = [&](std::uint64_t tick) {
    if (--due[tick] == 0) {
      due.erase(tick);
    }
  };

  timers.on_expire = [&](const core::TimerEventData* d, std::size_t n) {
    ASSERT_EQ(sched.now().ps() % kRes, 0) << "wake off the tick grid";
    const auto tick = static_cast<std::uint64_t>(sched.now().ps() / kRes);
    ASSERT_GT(tick, last_tick) << "two bursts on one tick";
    ASSERT_FALSE(due.empty());
    ASSERT_EQ(due.begin()->first, tick) << "a due timer was skipped";
    ASSERT_EQ(due.begin()->second, n) << "burst at tick " << tick;
    last_tick = tick;
    max_burst = std::max(max_burst, n);
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = live.find(d[i].timer_id);
      ASSERT_NE(it, live.end()) << "timer " << d[i].timer_id
                                << " fired while not pending";
      Want& w = it->second;
      ASSERT_EQ(w.tick, tick);
      EXPECT_EQ(d[i].scheduled_for, at_tick(tick));
      EXPECT_EQ(d[i].fired_at, sched.now());
      EXPECT_EQ(d[i].cookie, std::uint64_t{d[i].timer_id} * 3);
      ASSERT_TRUE(i == 0 || prev_seq < w.seq) << "burst not in arm order";
      prev_seq = w.seq;
      ++fires;
      disarm(tick);
      if (w.period > sim::Time::zero()) {
        arm(it->first, ceil_tick(d[i].scheduled_for + w.period), w.period);
      } else {
        live.erase(it);
      }
    }
  };

  // Delays over three decades of ticks, off the tick grid by up to a tick.
  const auto draw_ticks = [&]() -> std::int64_t {
    switch (rng.uniform(3)) {
      case 0:
        return 1 + static_cast<std::int64_t>(rng.uniform(250));
      case 1:
        return 256 + static_cast<std::int64_t>(rng.uniform(65'000));
      default:
        return 65'536 + static_cast<std::int64_t>(rng.uniform(2'000'000));
    }
  };
  std::vector<core::TimerId> ids;  // every id ever issued
  std::size_t cancels = 0;
  std::function<void(int)> step = [&](int left) {
    const sim::Time now = sched.now();
    const std::uint64_t op = rng.uniform(10);
    if (op < 5) {
      sim::Time delay = sim::Time::picos(
          draw_ticks() * kRes - static_cast<std::int64_t>(rng.uniform(kRes)));
      if (op == 0 && !live.empty()) {
        // Land exactly on another pending timer's tick.
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(live.size())));
        delay = at_tick(it->second.tick) - now;
      }
      const core::TimerId id =
          timers.set_oneshot(delay, (ids.size() + 1) * 3);
      ASSERT_EQ(id, ids.size() + 1) << "ids are issued 1, 2, 3, ...";
      ids.push_back(id);
      arm(id, ceil_tick(now + delay), sim::Time::zero());
    } else if (op < 7) {
      // Periods of at least 50 ticks keep the fire count bounded.
      const sim::Time period = sim::Time::picos(
          std::max<std::int64_t>(draw_ticks(), 50) * kRes +
          static_cast<std::int64_t>(rng.uniform(kRes)));
      const core::TimerId id =
          timers.set_periodic(period, (ids.size() + 1) * 3);
      ASSERT_EQ(id, ids.size() + 1) << "ids are issued 1, 2, 3, ...";
      ids.push_back(id);
      arm(id, ceil_tick(now + period), period);
    } else if (!ids.empty()) {
      const core::TimerId id = ids[rng.uniform(ids.size())];
      const auto it = live.find(id);
      ASSERT_EQ(timers.cancel(id), it != live.end()) << "cancel " << id;
      if (it != live.end()) {
        disarm(it->second.tick);
        live.erase(it);
        ++cancels;
      }
    }
    if (left > 0) {
      sched.after(sim::Time::picos(
                      static_cast<std::int64_t>(rng.uniform(3'000)) * kRes +
                      static_cast<std::int64_t>(rng.uniform(kRes))),
                  [&step, left] { step(left - 1); });
    }
  };
  sched.at(sim::Time::zero(), [&step] { step(500); });
  sched.run_until(at_tick(1'000'000));
  // Stop the periodic timers, then let every one-shot come due.
  for (const auto& [id, w] : std::map<core::TimerId, Want>(live)) {
    if (w.period > sim::Time::zero()) {
      ASSERT_TRUE(timers.cancel(id));
      disarm(w.tick);
      live.erase(id);
    }
  }
  sched.run_until(at_tick(4'000'000));
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(timers.pending(), 0u);
  EXPECT_EQ(timers.fired(), fires);
  EXPECT_GT(cancels, 0u);
  EXPECT_GT(max_burst, 1u) << "no same-tick burst exercised";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerBlockProperty,
                         ::testing::Values(7u, 77u, 777u));

// ---- P7: DWRR long-run fairness across weight vectors ----------------------------------------

class DwrrFairness
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(DwrrFairness, ServedBytesProportionalToWeights) {
  const std::vector<std::uint32_t> weights = GetParam();
  const std::size_t n = weights.size();
  std::vector<std::unique_ptr<tm_::PacketQueue>> qs;
  for (std::size_t i = 0; i < n; ++i) {
    qs.push_back(std::make_unique<tm_::FifoQueue>(
        tm_::QueueLimits{100'000, 1'000'000'000}));
  }
  sim::Random rng(5);
  // Varied packet sizes to stress byte (not packet) fairness.
  std::vector<std::vector<std::size_t>> sizes(n);
  for (std::size_t q = 0; q < n; ++q) {
    for (int i = 0; i < 20'000; ++i) {
      const std::size_t sz = 64 + rng.uniform(1436);
      sizes[q].push_back(sz);
      tm_::QueuedPacket qp;
      qp.packet = net::Packet(sz);
      qs[q]->push(std::move(qp));
    }
  }
  tm_::DwrrScheduler dwrr(n, weights, 1500);
  std::vector<std::uint64_t> bytes(n, 0);
  // Serve well below any single queue's backlog so every queue stays
  // non-empty throughout (an emptied queue would skew the shares).
  for (int round = 0; round < 15'000; ++round) {
    const int q = dwrr.select(qs);
    ASSERT_GE(q, 0);
    const auto qi = static_cast<std::size_t>(q);
    const auto qp = qs[qi]->pop();
    ASSERT_TRUE(qp.has_value());
    dwrr.on_dequeued(q, qp->packet.size());
    bytes[qi] += qp->packet.size();
  }
  // Compare byte shares to weight shares within 5%.
  const double total_bytes = [&] {
    double t = 0;
    for (const auto b : bytes) {
      t += static_cast<double>(b);
    }
    return t;
  }();
  double total_weight = 0;
  for (const auto w : weights) {
    total_weight += w;
  }
  for (std::size_t q = 0; q < n; ++q) {
    const double share = static_cast<double>(bytes[q]) / total_bytes;
    const double want = weights[q] / total_weight;
    EXPECT_NEAR(share, want, 0.05) << "queue " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightVectors, DwrrFairness,
    ::testing::Values(std::vector<std::uint32_t>{1, 1},
                      std::vector<std::uint32_t>{3, 1},
                      std::vector<std::uint32_t>{1, 2, 4},
                      std::vector<std::uint32_t>{5, 3, 1, 1}));

// ---- P8: scheduler total order --------------------------------------------------------------

TEST(SchedulerProperty, ExecutionRespectsTimeThenFifoOrder) {
  sim::Random rng(9);
  sim::Scheduler sched;
  struct Obs {
    sim::Time when;
    int id;
  };
  std::vector<Obs> fired;
  std::vector<std::pair<sim::Time, int>> scheduled;
  for (int i = 0; i < 2000; ++i) {
    const sim::Time t = sim::Time::micros(
        static_cast<std::int64_t>(rng.uniform(100)));  // many collisions
    scheduled.push_back({t, i});
    sched.at(t, [&fired, &sched, i] {
      fired.push_back({sched.now(), i});
    });
  }
  sched.run();
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].when, fired[i].when);
    if (fired[i - 1].when == fired[i].when) {
      // FIFO among equal times == ascending creation index.
      ASSERT_LT(fired[i - 1].id, fired[i].id);
    }
  }
}

// ---- P10: meter long-run conformance ----------------------------------------------------

class MeterConformance : public ::testing::TestWithParam<double> {};

TEST_P(MeterConformance, GreenBytesBoundedByCirPlusBursts) {
  const double cir = GetParam();  // bytes/sec
  pisa::Meter::Config cfg;
  cfg.cir_bytes_per_sec = cir;
  cfg.cbs_bytes = 4000;
  cfg.ebs_bytes = 4000;
  pisa::Meter meter("m", 1, cfg);
  sim::Random rng(77);
  // Offer ~4x the committed rate in randomly sized/spaced packets.
  sim::Time now = sim::Time::zero();
  std::uint64_t green_bytes = 0;
  std::uint64_t yellow_bytes = 0;
  const sim::Time horizon = sim::Time::seconds(2);
  while (now < horizon) {
    const std::uint64_t bytes = 64 + rng.uniform(1436);
    const auto color = meter.execute(0, bytes, now);
    if (color == pisa::MeterColor::kGreen) {
      green_bytes += bytes;
    } else if (color == pisa::MeterColor::kYellow) {
      yellow_bytes += bytes;
    }
    const double mean_gap_s =
        static_cast<double>(bytes) / (4.0 * cir);  // 4x overload
    now += sim::Time::from_seconds(rng.exponential(mean_gap_s));
  }
  // Long-run green+yellow throughput can never exceed CIR plus the two
  // burst allowances (tokens spill from committed into excess, so the
  // bound covers both buckets together).
  const double budget = cir * horizon.as_seconds() +
                        static_cast<double>(cfg.cbs_bytes + cfg.ebs_bytes);
  EXPECT_LE(static_cast<double>(green_bytes + yellow_bytes), budget);
  // And the meter is not vacuous: most of the budget is actually granted.
  EXPECT_GE(static_cast<double>(green_bytes + yellow_bytes), 0.8 * budget);
}

INSTANTIATE_TEST_SUITE_P(Rates, MeterConformance,
                         ::testing::Values(1.25e5, 1.25e6, 1.25e7));

// ---- P11: windowed aggregate equals a brute-force reference ------------------------------

TEST(WindowedAggregateProperty, MatchesBruteForceReference) {
  sim::Random rng(21);
  constexpr std::size_t kBuckets = 6;
  stats::WindowedAggregate w(kBuckets, sim::Time::micros(10));
  // Reference: per-epoch totals; window sum = last kBuckets epochs.
  std::vector<std::uint64_t> epoch_sums{0};
  std::vector<std::uint64_t> epoch_maxes{0};
  for (int step = 0; step < 5000; ++step) {
    if (rng.chance(0.2)) {
      w.advance();
      epoch_sums.push_back(0);
      epoch_maxes.push_back(0);
    } else {
      const std::uint64_t v = rng.uniform(1000);
      w.observe(v);
      epoch_sums.back() += v;
      epoch_maxes.back() = std::max(epoch_maxes.back(), v);
    }
    std::uint64_t want_sum = 0;
    std::uint64_t want_max = 0;
    const std::size_t n = epoch_sums.size();
    for (std::size_t i = n > kBuckets ? n - kBuckets : 0; i < n; ++i) {
      want_sum += epoch_sums[i];
      want_max = std::max(want_max, epoch_maxes[i]);
    }
    ASSERT_EQ(w.window_sum(), want_sum) << "step " << step;
    ASSERT_EQ(w.window_max(), want_max) << "step " << step;
  }
}

// ---- P12: timer block long-run rate ---------------------------------------------------------

class TimerRate : public ::testing::TestWithParam<int> {};

TEST_P(TimerRate, PeriodicFiresAtExactLongRunRate) {
  const int period_us = GetParam();
  sim::Scheduler sched;
  core::TimerBlock timers(sched, sim::Time::micros(1));
  std::uint64_t fires = 0;
  sim::Time last = sim::Time::zero();
  sim::Time max_gap = sim::Time::zero();
  timers.on_expire = [&](const core::TimerEventData* d, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ++fires;
      if (last > sim::Time::zero()) {
        max_gap = std::max(max_gap, d[i].fired_at - last);
      }
      last = d[i].fired_at;
    }
  };
  timers.set_periodic(sim::Time::micros(period_us), 1);
  const sim::Time horizon = sim::Time::millis(500);
  sched.run_until(horizon);
  const auto expected = static_cast<std::uint64_t>(
      horizon.ps() / sim::Time::micros(period_us).ps());
  // Exact long-run rate (re-armed from the scheduled time, never drifts).
  EXPECT_GE(fires + 1, expected);
  EXPECT_LE(fires, expected + 1);
  // No fire-to-fire gap ever exceeds period + resolution quantization.
  EXPECT_LE(max_gap, sim::Time::micros(period_us) + sim::Time::micros(1));
}

INSTANTIATE_TEST_SUITE_P(Periods, TimerRate,
                         ::testing::Values(3, 17, 100, 977));

// ---- P13: reliable delivery under random loss -----------------------------------------------

class ReliableLoss : public ::testing::TestWithParam<double> {};

TEST_P(ReliableLoss, ExactInOrderDeliveryAtAnyLossRate) {
  const double loss = GetParam();
  sim::Scheduler sched;
  topo::Host::Config hc;
  hc.name = "tx";
  hc.ip = net::Ipv4Address(10, 0, 0, 1);
  topo::Host tx(sched, hc);
  hc.name = "rx";
  hc.ip = net::Ipv4Address(10, 0, 0, 2);
  topo::Host rx(sched, hc);
  sim::Random drop_rng(static_cast<std::uint64_t>(loss * 1000) + 5);
  // Lossy wire in both directions with 10us delay.
  tx.connect_tx([&](net::Packet p, sim::Time departure) {
    if (drop_rng.chance(loss)) {
      return;
    }
    sched.at(departure + sim::Time::micros(10),
             [&rx, q = std::move(p)]() mutable { rx.receive(std::move(q)); });
  });
  rx.connect_tx([&](net::Packet p, sim::Time departure) {
    if (drop_rng.chance(loss)) {
      return;
    }
    sched.at(departure + sim::Time::micros(10),
             [&tx, q = std::move(p)]() mutable { tx.receive(std::move(q)); });
  });

  topo::ReliableConfig rc;
  rc.local = tx.ip();
  rc.peer = rx.ip();
  rc.total_segments = 200;
  rc.window = 8;
  rc.rto = sim::Time::millis(1);
  topo::ReliableSender sender(sched, tx, rc);
  topo::ReliableReceiver receiver(rx, rc);
  tx.on_receive = [&](const net::Packet& p) { sender.handle(p); };
  rx.on_receive = [&](const net::Packet& p) { receiver.handle(p); };
  sender.start();
  sched.run_until(sim::Time::seconds(30));

  EXPECT_TRUE(sender.done()) << "loss " << loss;
  EXPECT_EQ(receiver.delivered(), 200u);
  if (loss > 0) {
    EXPECT_GT(sender.retransmissions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, ReliableLoss,
                         ::testing::Values(0.0, 0.01, 0.1, 0.3));

// ---- P14: whole-switch packet conservation ----------------------------------------------------
//
// For ANY random traffic pattern, every received packet is accounted for:
// transmitted, dropped (with a recorded reason), or still queued somewhere
// inside the device. No packet is ever silently created or destroyed.

class SwitchConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchConservation, EveryPacketAccountedFor) {
  sim::Random rng(GetParam());
  sim::Scheduler sched;
  core::EventSwitchConfig cfg;
  cfg.num_ports = 3;
  cfg.port_rate_bps = 1e8;  // slow ports: queues build and overflow
  cfg.queue_limits.max_packets = 32;
  cfg.queue_limits.max_bytes = 20'000;
  core::EventSwitch sw(sched, cfg);

  // Random per-packet behavior: forward to a random port (sometimes an
  // invalid one), occasionally drop or recirculate.
  class ChaosProgram : public core::EventProgram {
   public:
    explicit ChaosProgram(std::uint64_t seed) : rng_(seed) {}
    void on_ingress(pisa::Phv& phv, core::EventContext&) override {
      route(phv);
    }
    void on_recirculate(pisa::Phv& phv, core::EventContext&) override {
      route(phv);
    }
    void route(pisa::Phv& phv) {
      const auto dice = rng_.uniform(100);
      if (dice < 5) {
        phv.std_meta.drop = true;
      } else if (dice < 10) {
        phv.std_meta.recirculate = true;
      } else if (dice < 14) {
        phv.std_meta.egress_port = 77;  // bad port
      } else {
        phv.std_meta.egress_port =
            static_cast<std::uint16_t>(1 + rng_.uniform(2));
      }
    }
    sim::Random rng_;
  } prog(GetParam() * 13 + 1);
  sw.set_program(&prog);
  std::uint64_t tx_seen = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx_seen; });
  sw.connect_tx(2, [&](net::Packet) { ++tx_seen; });

  // Random arrival process: bursts and pauses, mixed sizes.
  sim::Time t = sim::Time::zero();
  std::uint64_t offered = 0;
  while (t < sim::Time::millis(5)) {
    const std::size_t size = 64 + rng.uniform(1436);
    sched.at(t, [&sw, size, &rng] {
      const net::Ipv4Address src(
          0x0a000000U + static_cast<std::uint32_t>(rng.uniform(16)));
      sw.receive(0, net::make_udp_packet(src, net::Ipv4Address(10, 1, 0, 1),
                                         1, 2, size));
    });
    ++offered;
    t += sim::Time::nanos(static_cast<std::int64_t>(
        rng.chance(0.2) ? 100'000 + rng.uniform(400'000)
                        : 500 + rng.uniform(20'000)));
  }
  sched.run_until(sim::Time::millis(50));  // let everything settle

  const auto& c = sw.counters();
  std::uint64_t queued = 0;
  for (std::uint16_t p = 0; p < 3; ++p) {
    queued += sw.traffic_manager().queue_packets(p, 0);
  }
  // Conservation: offered = transmitted + every drop category + leftovers.
  // Recirculated packets re-enter and are not double counted on the rx
  // side (receive() counts only port arrivals).
  EXPECT_EQ(c.rx_packets, offered);
  EXPECT_EQ(c.tx_packets, tx_seen);
  EXPECT_EQ(offered,
            c.tx_packets + c.program_drops + c.bad_port_drops +
                c.parse_drops + c.recirc_loop_drops +
                sw.traffic_manager().drops_total() +
                sw.merger().packet_backlog_drops() + queued +
                sw.merger().packet_backlog())
      << "packets leaked or duplicated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchConservation,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));

// ---- P9: buffer pool conservation -------------------------------------------------------------

TEST(BufferPoolProperty, AccountingNeverLeaksUnderRandomOps) {
  sim::Random rng(31);
  tm_::BufferPool pool({100'000, 1'000, 1.0}, 8);
  std::vector<std::vector<std::size_t>> held(8);
  std::size_t total = 0;
  for (int op = 0; op < 20'000; ++op) {
    const std::size_t q = rng.uniform(8);
    if (rng.chance(0.55) || held[q].empty()) {
      const std::size_t bytes = 64 + rng.uniform(1436);
      if (pool.can_admit(q, bytes)) {
        pool.on_enqueue(q, bytes);
        held[q].push_back(bytes);
        total += bytes;
      }
    } else {
      const std::size_t bytes = held[q].back();
      held[q].pop_back();
      pool.on_dequeue(q, bytes);
      total -= bytes;
    }
    ASSERT_EQ(pool.used_total(), total);
    ASSERT_LE(pool.used_total(), 100'000u);
  }
}

}  // namespace
}  // namespace edp
