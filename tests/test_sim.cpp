// Unit tests for edp::sim — time, randomness, and the discrete-event
// scheduler that everything else rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "sim/heap_count.hpp"
#include "sim/inline_callback.hpp"
#include "sim/object_pool.hpp"
#include "sim/random.hpp"
#include "sim/ring_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace edp::sim {

/// Test-only access to Scheduler internals, for driving the slot generation
/// counter to its wraparound point without 2^32 schedule/cancel cycles.
class SchedulerTestPeer {
 public:
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static void set_slot_generation(Scheduler& s, std::uint32_t slot,
                                  std::uint32_t gen) {
    s.slots_[slot].gen = gen;
  }
};

namespace {

// ---- Time ---------------------------------------------------------------------

TEST(Time, NamedConstructorsAgree) {
  EXPECT_EQ(Time::nanos(1).ps(), 1'000);
  EXPECT_EQ(Time::micros(1).ps(), 1'000'000);
  EXPECT_EQ(Time::millis(1).ps(), 1'000'000'000);
  EXPECT_EQ(Time::seconds(1).ps(), 1'000'000'000'000);
  EXPECT_EQ(Time::micros(3), Time::nanos(3000));
}

TEST(Time, ArithmeticAndComparisons) {
  const Time a = Time::micros(5);
  const Time b = Time::micros(2);
  EXPECT_EQ((a + b).ps(), Time::micros(7).ps());
  EXPECT_EQ((a - b).ps(), Time::micros(3).ps());
  EXPECT_EQ((a * 3).ps(), Time::micros(15).ps());
  EXPECT_EQ((a / 5).ps(), Time::micros(1).ps());
  EXPECT_EQ(a / b, 2);  // duration ratio truncates
  EXPECT_EQ((a % b).ps(), Time::micros(1).ps());
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(Time, FromSecondsRoundsToPicoseconds) {
  EXPECT_EQ(Time::from_seconds(1e-6).ps(), 1'000'000);
  EXPECT_EQ(Time::from_seconds(0.5).ps(), 500'000'000'000);
}

TEST(Time, ConversionsToFloating) {
  const Time t = Time::micros(1500);
  EXPECT_DOUBLE_EQ(t.as_micros(), 1500.0);
  EXPECT_DOUBLE_EQ(t.as_millis(), 1.5);
  EXPECT_DOUBLE_EQ(t.as_seconds(), 0.0015);
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(Time::zero().to_string(), "0s");
  EXPECT_EQ(Time::picos(500).to_string(), "500ps");
  EXPECT_NE(Time::micros(12).to_string().find("us"), std::string::npos);
  EXPECT_NE(Time::millis(3).to_string().find("ms"), std::string::npos);
}

TEST(Time, SerializationTime) {
  // 1500 bytes at 10 Gb/s = 1.2 us.
  EXPECT_EQ(serialization_time(1500, 10e9), Time::nanos(1200));
  // 64 bytes at 10 Gb/s = 51.2 ns.
  EXPECT_EQ(serialization_time(64, 10e9).ps(), 51'200);
  EXPECT_EQ(serialization_time(1500, 0), Time::zero());
}

TEST(Time, RateBps) {
  EXPECT_DOUBLE_EQ(rate_bps(1250, Time::micros(1)), 10e9);
  EXPECT_DOUBLE_EQ(rate_bps(100, Time::zero()), 0.0);
}

// ---- Random -------------------------------------------------------------------

TEST(Random, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  std::vector<std::uint64_t> va, vb, vc;
  for (int i = 0; i < 64; ++i) {
    va.push_back(a.next_u64());
    vb.push_back(b.next_u64());
    vc.push_back(c.next_u64());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(Random, UniformRespectsBound) {
  Random rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
  }
  EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Random, UniformRangeInclusive) {
  Random rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Random, Uniform01InHalfOpenInterval) {
  Random rng(9);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(Random, ChanceEdgeCases) {
  Random rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_TRUE(rng.chance(2.0));
  int heads = 0;
  for (int i = 0; i < 100'000; ++i) {
    heads += rng.chance(0.25);
  }
  EXPECT_NEAR(heads / 100'000.0, 0.25, 0.01);
}

TEST(Random, ExponentialHasRequestedMean) {
  Random rng(5);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(3.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(Random, ParetoBoundedBelowByXm) {
  Random rng(6);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Random, ForkProducesIndependentStream) {
  Random a(11);
  Random b = a.fork();
  // The forked stream must differ from the parent's continued stream.
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Random, PermutationIsValid) {
  Random rng(3);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Random rng(12);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) {
    ++counts[zipf.sample(rng)];
  }
  // Rank 0 must dominate rank 50 heavily under skew 1.2.
  EXPECT_GT(counts[0], counts[50] * 10);
  // Every sample in range (vector indexing would have crashed otherwise).
  int total = 0;
  for (const int c : counts) {
    total += c;
  }
  EXPECT_EQ(total, 100'000);
}

// ---- Scheduler -----------------------------------------------------------------

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(Time::micros(3), [&] { order.push_back(3); });
  sched.at(Time::micros(1), [&] { order.push_back(1); });
  sched.at(Time::micros(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Time::micros(3));
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.at(Time::micros(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.at(Time::micros(1), [&] { ++fired; });
  sched.at(Time::micros(2), [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));       // double cancel
  EXPECT_FALSE(sched.cancel(999'999));  // unknown id
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelAfterFireIsDetectedNoOp) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.at(Time::micros(1), [&] { ++fired; });
  sched.at(Time::micros(5), [&] { ++fired; });
  sched.run_until(Time::micros(2));  // first callback has fired
  EXPECT_EQ(fired, 1);
  // Cancelling the fired id must fail and must NOT disturb the pending
  // accounting of the remaining event.
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler sched;
  sched.run_until(Time::millis(5));
  EXPECT_EQ(sched.now(), Time::millis(5));
}

TEST(Scheduler, RunUntilExecutesOnlyDueEvents) {
  Scheduler sched;
  int fired = 0;
  sched.at(Time::micros(1), [&] { ++fired; });
  sched.at(Time::micros(10), [&] { ++fired; });
  sched.run_until(Time::micros(5));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, CallbacksMayScheduleMore) {
  Scheduler sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      sched.after(Time::micros(1), chain);
    }
  };
  sched.after(Time::micros(1), chain);
  sched.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), Time::micros(5));
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(Scheduler, MaxEventsGuardStopsRunawayLoops) {
  Scheduler sched;
  std::function<void()> forever = [&] { sched.after(Time::picos(1), forever); };
  sched.after(Time::picos(1), forever);
  const std::size_t executed = sched.run(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_FALSE(sched.empty());
}

TEST(PeriodicTask, FiresAtPeriod) {
  Scheduler sched;
  int fires = 0;
  PeriodicTask task(sched, Time::micros(10), [&] { ++fires; });
  task.start();
  sched.run_until(Time::micros(95));
  EXPECT_EQ(fires, 9);  // t=10..90
  EXPECT_TRUE(task.running());
}

TEST(PeriodicTask, StopHaltsFiring) {
  Scheduler sched;
  int fires = 0;
  PeriodicTask task(sched, Time::micros(10), [&] { ++fires; });
  task.start();
  sched.run_until(Time::micros(35));
  task.stop();
  sched.run_until(Time::micros(200));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, CallbackMayStopItself) {
  Scheduler sched;
  int fires = 0;
  PeriodicTask task(sched, Time::micros(1), [&] {
    if (++fires == 4) {
      task.stop();
    }
  });
  task.start();
  sched.run_until(Time::millis(1));
  EXPECT_EQ(fires, 4);
}

TEST(Scheduler, CancelOwnIdFromWithinFiringCallbackIsNoOp) {
  Scheduler sched;
  EventId id = 0;
  bool self_cancel_result = true;
  int other_fired = 0;
  id = sched.at(Time::micros(1), [&] {
    // The slot is released before the callback runs, so cancelling the
    // id of the event currently firing must be a detected no-op.
    self_cancel_result = sched.cancel(id);
  });
  sched.at(Time::micros(2), [&] { ++other_fired; });
  sched.run();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(other_fired, 1);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, CancelPeerFromWithinFiringCallback) {
  Scheduler sched;
  int fired = 0;
  const EventId peer = sched.at(Time::micros(2), [&] { ++fired; });
  sched.at(Time::micros(1), [&] { EXPECT_TRUE(sched.cancel(peer)); });
  sched.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.executed(), 1u);
}

TEST(Scheduler, CancelIdScheduledAtNow) {
  Scheduler sched;
  sched.run_until(Time::micros(5));
  int fired = 0;
  const EventId id = sched.at(sched.now(), [&] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
  sched.run();  // collects the stale heap entry without firing anything
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), Time::micros(5));
}

TEST(Scheduler, SlotReuseMintsDistinctIds) {
  Scheduler sched;
  const EventId a = sched.at(Time::micros(1), [] {});
  EXPECT_TRUE(sched.cancel(a));
  const EventId b = sched.at(Time::micros(1), [] {});
  // Same storage slot, different generation: the old handle stays dead.
  EXPECT_EQ(SchedulerTestPeer::slot_of(a), SchedulerTestPeer::slot_of(b));
  EXPECT_NE(a, b);
  EXPECT_FALSE(sched.cancel(a));  // stale id
  EXPECT_FALSE(sched.cancel(a));  // double-cancel of a stale id
  EXPECT_TRUE(sched.cancel(b));
  EXPECT_FALSE(sched.cancel(b));  // double-cancel of the live id
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, IdReuseAfterGenerationWraparound) {
  Scheduler sched;
  const EventId a = sched.at(Time::micros(1), [] {});
  EXPECT_EQ(SchedulerTestPeer::gen_of(a), 1u);
  EXPECT_TRUE(sched.cancel(a));
  // Drive the freed slot to the last generation before wraparound.
  SchedulerTestPeer::set_slot_generation(sched, SchedulerTestPeer::slot_of(a),
                                         0xFFFFFFFFu);
  int fired = 0;
  const EventId b = sched.at(Time::micros(2), [&] { ++fired; });
  ASSERT_EQ(SchedulerTestPeer::slot_of(b), SchedulerTestPeer::slot_of(a));
  EXPECT_EQ(SchedulerTestPeer::gen_of(b), 0xFFFFFFFFu);
  EXPECT_FALSE(sched.cancel(a));  // pre-wrap id must not hit the new event
  sched.run();
  EXPECT_EQ(fired, 1);
  // Releasing the slot wrapped its generation, skipping 0: the next id on
  // this slot has generation 1 (0 stays reserved as the "none" sentinel).
  const EventId c = sched.at(Time::micros(3), [] {});
  ASSERT_EQ(SchedulerTestPeer::slot_of(c), SchedulerTestPeer::slot_of(a));
  EXPECT_EQ(SchedulerTestPeer::gen_of(c), 1u);
  EXPECT_NE(c, 0u);
  EXPECT_TRUE(sched.cancel(c));
}

TEST(Scheduler, PendingIsExactUnderCancellation) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sched.after(Time::micros(i + 1), [] {}));
  }
  EXPECT_EQ(sched.pending(), 100u);
  for (int i = 0; i < 100; i += 2) {
    sched.cancel(ids[static_cast<std::size_t>(i)]);
  }
  // Exact immediately — not "minus lazily-collected heap entries".
  EXPECT_EQ(sched.pending(), 50u);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.executed(), 50u);
  EXPECT_TRUE(sched.empty());
}

// ---- Timing-wheel tier + batch APIs -------------------------------------------

namespace {

/// Horizon of the default wheel in absolute time: kSlots ticks of
/// 2^kResBits picoseconds each (~2.1 ms).
constexpr Time wheel_horizon() {
  return Time::picos(static_cast<std::int64_t>(WheelTier::kSlots)
                     << WheelTier::kResBits);
}

/// The wheel-vs-heap differential workload (see the test below): every
/// fired event logs (label, time), schedules a child and may cancel a
/// pending event, drawing its choices from one seeded stream, so the two
/// modes stay in lockstep exactly as long as their fire orders agree.
struct TierDiffRun {
  static constexpr std::size_t kMaxEvents = 3000;
  Scheduler sched;
  Random rng{0xC0FFEE};
  std::vector<std::pair<int, std::int64_t>> log;
  std::vector<EventId> ids;

  explicit TierDiffRun(bool use_wheel) : sched(SchedulerOptions{use_wheel}) {}

  void schedule(Time when) {
    const int label = static_cast<int>(ids.size());
    ids.push_back(sched.at(when, [this, label] { fire(label); }));
  }
  void fire(int label) {
    const Time now = sched.now();
    log.emplace_back(label, now.ps());
    if (ids.size() >= kMaxEvents) {
      return;
    }
    const std::int64_t tick = std::int64_t{1} << WheelTier::kResBits;
    const auto left_in_tick =
        static_cast<std::uint64_t>(tick - now.ps() % tick);
    const auto pick = [this](std::uint64_t bound) {
      return static_cast<std::int64_t>(rng.uniform(bound));
    };
    switch (rng.uniform(4)) {
      case 0:
        schedule(now);
        break;
      case 1:
        schedule(now + Time::picos(pick(left_in_tick)));
        break;
      case 2:
        schedule(now + Time::nanos(pick(5000)));
        break;
      default:
        schedule(now + wheel_horizon() + Time::picos(pick(10'000'000)));
        break;
    }
    switch (rng.uniform(6)) {
      case 0:
        sched.cancel(ids[rng.uniform(ids.size())]);
        break;
      case 1:
        sched.cancel(ids.back());  // the child just scheduled
        break;
      default:
        break;
    }
  }
};

}  // namespace

TEST(Scheduler, WheelCascadeAcrossHorizonBoundary) {
  // Entries past the wheel horizon start in the overflow heap and must
  // cascade into the wheel — and fire in exact time order — as the cursor
  // advances past multiple horizons.
  Scheduler sched;
  std::vector<int> order;
  const Time h = wheel_horizon();
  // One event per half-horizon, spanning five horizons, inserted shuffled.
  const int kEvents = 10;
  for (int i = kEvents - 1; i >= 0; --i) {
    sched.at(Time::picos(h.ps() / 2 * (i + 1)),
             [&order, i] { order.push_back(i); });
  }
  EXPECT_GT(sched.pending(), 0u);
  sched.run();
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(sched.wheel_entries(), 0u);
}

TEST(Scheduler, CancelWorksInBothTiers) {
  // One event within the wheel horizon, one far beyond it (heap tier);
  // cancel must be O(1)-honest in both: pending() drops immediately and
  // neither callback runs.
  Scheduler sched;
  int fired = 0;
  const Time h = wheel_horizon();
  const EventId near_id = sched.at(Time::nanos(100), [&] { ++fired; });
  const EventId far_id =
      sched.at(Time::picos(h.ps() * 10), [&] { ++fired; });
  sched.at(Time::nanos(200), [&] { ++fired; });  // survivor (wheel)
  sched.at(Time::picos(h.ps() * 20), [&] { ++fired; });  // survivor (heap)
  EXPECT_EQ(sched.pending(), 4u);
  EXPECT_TRUE(sched.cancel(near_id));
  EXPECT_TRUE(sched.cancel(far_id));
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_FALSE(sched.cancel(near_id));
  EXPECT_FALSE(sched.cancel(far_id));
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, BatchAndSingleInsertsShareOneTotalOrder) {
  // at_batch() mints sequence numbers in array order, so a batch interleaved
  // with plain at() calls fires exactly as the equivalent flat at() sequence
  // would: by (when, scheduling order).
  Scheduler sched;
  std::vector<int> order;
  const Time t = Time::micros(5);
  sched.at(t, [&] { order.push_back(0); });
  Scheduler::BatchItem items[3];
  items[0] = {t, InlineCallback([&] { order.push_back(1); })};
  items[1] = {Time::micros(1), InlineCallback([&] { order.push_back(-1); })};
  items[2] = {t, InlineCallback([&] { order.push_back(2); })};
  sched.at_batch(items, 3);
  sched.at(t, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(Scheduler, CancelBatchCountsOnlyGenuinePending) {
  Scheduler sched;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sched.at(Time::micros(10 + i), [&] { ++fired; }));
  }
  const EventId early = sched.at(Time::micros(1), [&] { ++fired; });
  sched.run_until(Time::micros(2));  // `early` has fired
  ids.push_back(early);              // already fired: must not count
  ids.push_back(0);                  // never-valid id: must not count
  EXPECT_EQ(sched.cancel_batch(ids.data(), ids.size()), 8u);
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, WheelAndHeapOnlyModesFireIdentically) {
  // Differential check of the whole tiering machinery: the same workload
  // must produce a bit-identical (label, time) fire log whether the wheel
  // tier is on or off — the wheel changes *where* entries wait, never the
  // order. Events are scheduled from outside and from inside callbacks (at
  // the current instant, later in the firing tick, and past the wheel
  // horizon), cancelled from both sides, and run through run_until
  // deadlines that split wheel ticks before the final drain.
  const auto run_mode = [](bool use_wheel) {
    TierDiffRun r(use_wheel);
    for (int i = 0; i < 500; ++i) {
      // 200 distinct instants over ~3.5 wheel horizons: plenty of exact
      // same-time collisions plus both tiers exercised.
      r.schedule(Time::picos(static_cast<std::int64_t>(r.rng.uniform(200)) *
                             37'000'000));
    }
    for (int i = 0; i < 500; i += 3) {
      r.sched.cancel(r.ids[static_cast<std::size_t>(i)]);
    }
    // Deadlines off the tick grid, each splitting a wheel tick; between
    // calls the outside schedules into the rest of the tick it split.
    const std::int64_t tick = std::int64_t{1} << WheelTier::kResBits;
    for (std::int64_t k = 1; k <= 40; ++k) {
      const Time deadline = Time::picos(k * 180'000'123);
      r.sched.run_until(deadline);
      EXPECT_EQ(r.sched.now(), deadline);
      r.schedule(deadline + Time::picos((tick - deadline.ps() % tick) / 2));
    }
    r.sched.run();
    return r.log;
  };
  const auto wheel = run_mode(true);
  EXPECT_GT(wheel.size(), 1500u);
  EXPECT_EQ(wheel, run_mode(false));
}

TEST(Scheduler, RunUntilDeadlineSplitsAWheelTick) {
  // Two events share one wheel bucket (same 524 ns tick) but straddle a
  // run_until deadline: only the due one may fire, and the later one must
  // survive, still pending, to the next call.
  Scheduler sched;
  std::vector<int> order;
  sched.at(Time::picos(100'000), [&] { order.push_back(1); });
  sched.at(Time::picos(400'000), [&] { order.push_back(2); });
  ASSERT_EQ(WheelTier{}.tick_of(Time::picos(100'000)),
            WheelTier{}.tick_of(Time::picos(400'000)));
  sched.run_until(Time::picos(200'000));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until(Time::picos(500'000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, CallbackSchedulingIntoItsOwnTickFiresInOrder) {
  // An event scheduled *during* a burst, landing later in the same wheel
  // tick, must fire within that same drain — after everything earlier,
  // before everything later (the same-tick merge heap in fire_tick).
  Scheduler sched;
  std::vector<int> order;
  sched.at(Time::picos(100'000), [&] {
    order.push_back(1);
    sched.at(Time::picos(300'000), [&] { order.push_back(2); });
  });
  sched.at(Time::picos(400'000), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Time::picos(400'000));
}

TEST(Scheduler, ScheduleAfterDrainingStaleBucketMakesProgress) {
  // Regression for the cursor anomaly: drain a tick whose entries were all
  // cancelled (fires nothing), then schedule again into the now-current
  // tick — run() must fire it rather than spin or skip.
  Scheduler sched;
  int fired = 0;
  const EventId a = sched.at(Time::picos(100'000), [&] { ++fired; });
  const EventId b = sched.at(Time::picos(200'000), [&] { ++fired; });
  sched.cancel(a);
  sched.cancel(b);
  sched.run_until(Time::picos(300'000));
  EXPECT_EQ(fired, 0);
  sched.at(Time::picos(350'000), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
}

// ---- try_advance: inline continuation ------------------------------------------
//
// Every case runs on both tiers: the answer depends only on the pending set.

class TryAdvance : public ::testing::TestWithParam<bool> {
 protected:
  Scheduler sched{SchedulerOptions{GetParam()}};
};

TEST_P(TryAdvance, RefusesOutsideACallback) {
  EXPECT_FALSE(sched.try_advance(Time::nanos(10)));
  EXPECT_EQ(sched.now(), Time::zero());
}

TEST_P(TryAdvance, MovesNowWhenNothingIsDue) {
  std::vector<Time> seen;
  sched.at(Time::nanos(10), [&] {
    EXPECT_FALSE(sched.try_advance(Time::nanos(5)));  // the past
    EXPECT_TRUE(sched.try_advance(Time::nanos(20)));
    seen.push_back(sched.now());
  });
  sched.at(Time::nanos(21), [&] { seen.push_back(sched.now()); });
  EXPECT_EQ(sched.run(), 2u);  // inline work is not a callback
  EXPECT_EQ(seen, (std::vector<Time>{Time::nanos(20), Time::nanos(21)}));
}

TEST_P(TryAdvance, RefusesWhenAnEntryIsDueAtOrBeforeT) {
  // The entry at exactly t was minted first, so it fires first: refuse.
  bool checked = false;
  sched.at(Time::nanos(10), [&] {
    EXPECT_FALSE(sched.try_advance(Time::nanos(30)));
    EXPECT_FALSE(sched.try_advance(Time::nanos(40)));
    EXPECT_TRUE(sched.try_advance(Time::nanos(29)));
    checked = true;
  });
  sched.at(Time::nanos(30), [] {});
  sched.run();
  EXPECT_TRUE(checked);
}

TEST_P(TryAdvance, SeesTheRestOfTheBurst) {
  // Both entries share one wheel tick: the second is in the burst being
  // fired, behind the running callback.
  bool checked = false;
  sched.at(Time::picos(100'000), [&] {
    EXPECT_FALSE(sched.try_advance(Time::picos(200'000)));
    EXPECT_TRUE(sched.try_advance(Time::picos(199'999)));
    checked = true;
  });
  sched.at(Time::picos(200'000), [] {});
  sched.run();
  EXPECT_TRUE(checked);
}

TEST_P(TryAdvance, SeesSameTickArrivals) {
  // B and C are minted into the firing tick by A, so they wait in the
  // burst's same-tick heap when B runs.
  bool checked = false;
  sched.at(Time::picos(100'000), [&] {
    sched.at(Time::picos(150'000), [&] {
      EXPECT_FALSE(sched.try_advance(Time::picos(200'000)));
      EXPECT_TRUE(sched.try_advance(Time::picos(199'999)));
      checked = true;
    });
    sched.at(Time::picos(200'000), [] {});
  });
  sched.run();
  EXPECT_TRUE(checked);
}

TEST_P(TryAdvance, SeesEntriesTheCallbackMinted) {
  bool checked = false;
  sched.at(Time::nanos(10), [&] {
    sched.at(Time::nanos(12), [] {});  // same tick
    EXPECT_FALSE(sched.try_advance(Time::nanos(12)));
    const EventId far = sched.at(Time::micros(5), [] {});  // later tick
    EXPECT_FALSE(sched.try_advance(Time::micros(6)));
    // A cancelled entry is no obstacle.
    sched.cancel(far);
    EXPECT_FALSE(sched.try_advance(Time::micros(6)));  // 12 ns still due
    EXPECT_TRUE(sched.try_advance(Time::nanos(11)));
    checked = true;
  });
  sched.run();
  EXPECT_TRUE(checked);
}

TEST_P(TryAdvance, SeesTheFarFutureTier) {
  bool checked = false;
  sched.at(Time::nanos(10), [&] {
    EXPECT_FALSE(sched.try_advance(Time::millis(10)));
    EXPECT_TRUE(sched.try_advance(Time::millis(10) - Time::picos(1)));
    checked = true;
  });
  sched.at(Time::millis(10), [] {});  // beyond the wheel horizon
  sched.run();
  EXPECT_TRUE(checked);
}

TEST_P(TryAdvance, StopsAtTheRunUntilDeadline) {
  int checks = 0;
  sched.at(Time::nanos(10), [&] {
    EXPECT_FALSE(sched.try_advance(Time::nanos(16)));
    EXPECT_TRUE(sched.try_advance(Time::nanos(15)));
    ++checks;
  });
  sched.run_until(Time::nanos(15));
  sched.at(Time::nanos(20), [&] {
    EXPECT_TRUE(sched.try_advance(Time::millis(50)));  // run(): no deadline
    ++checks;
  });
  sched.run();
  EXPECT_EQ(checks, 2);
}

TEST_P(TryAdvance, CountsAgainstTheRunBudget) {
  // Inline work that keeps re-arming itself, with nothing else pending,
  // would loop for ever: run(max_events) bounds it, one unit per advance.
  std::size_t advances = 0;
  sched.at(Time::nanos(10), [&] {
    while (sched.try_advance(sched.now() + Time::nanos(1))) {
      ++advances;
    }
  });
  sched.at(Time::micros(5), [] {});
  EXPECT_EQ(sched.run(10), 1u);  // 1 callback + 9 advances spend the budget
  EXPECT_EQ(advances, 9u);
  EXPECT_EQ(sched.now(), Time::nanos(19));
  EXPECT_EQ(sched.pending(), 1u);  // the later callback is left for later
  EXPECT_EQ(sched.run(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothTiers, TryAdvance, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Wheel" : "HeapOnly";
                         });

TEST(WheelTier, NextOccupiedTickScansAcrossBitmapWrap) {
  WheelTier w;
  // Park the cursor late in the slot array so the next occupied tick sits
  // past the bitmap's wrap point.
  const std::uint64_t cursor = WheelTier::kSlots - 3;
  w.set_cursor(cursor);
  const std::uint64_t target = cursor + 7;  // wraps: (kSlots - 3 + 7) & mask
  w.insert(target, QueueEntry{Time::zero(), 1, 0, 1});
  ASSERT_TRUE(w.next_occupied_tick().has_value());
  EXPECT_EQ(*w.next_occupied_tick(), target);
  std::vector<QueueEntry> out;
  EXPECT_EQ(w.take_bucket(target, out), 1u);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_FALSE(w.next_occupied_tick().has_value());
}

TEST(WheelTier, BucketIsolationAcrossLaps) {
  // Ticks one full lap apart map to the same slot index; the horizon check
  // (covers) is what keeps them from mixing. Verify covers() draws the line
  // exactly at kSlots ticks.
  WheelTier w;
  w.set_cursor(100);
  EXPECT_TRUE(w.covers(100));
  EXPECT_TRUE(w.covers(100 + WheelTier::kSlots - 1));
  EXPECT_FALSE(w.covers(100 + WheelTier::kSlots));
}

TEST(WheelTier, SteadyScheduleFireLapsDoNotAllocate) {
  // Packet-like traffic: every tick a pump event schedules a burst of 1..8
  // events a fixed 32 ticks ahead (in-flight packets), so a sliding window
  // of buckets is occupied while the cursor sweeps the whole wheel. After
  // one warm lap the drained buckets' recycled storage serves every
  // insert, whatever burst size lands where.
  Scheduler sched;
  const Time tick = Time::picos(std::int64_t{1} << WheelTier::kResBits);
  const Time lap = tick * static_cast<std::int64_t>(WheelTier::kSlots);
  std::uint64_t fired = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  struct Pump {
    Scheduler* sched;
    Time tick;
    std::uint64_t* fired;
    std::uint64_t* state;
    void operator()() const {
      *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t burst = 1 + ((*state >> 33) & 7);
      for (std::uint64_t i = 0; i < burst; ++i) {
        const Time jitter = Time::picos(static_cast<std::int64_t>(i * 977));
        sched->after(tick * 32 + jitter, [f = fired] { ++*f; });
      }
      sched->after(tick, *this);
    }
  };
  sched.after(tick, Pump{&sched, tick, &fired, &state});

  sched.run_until(lap);  // warm lap
  const std::optional<std::uint64_t> before = heap_allocations();
  ASSERT_TRUE(before.has_value()) << "test binary must link edp_heap_counter";
  const std::uint64_t fired_before = fired;
  sched.run_until(lap * 4);
  const std::optional<std::uint64_t> after = heap_allocations();
  EXPECT_GT(fired - fired_before, 3 * WheelTier::kSlots);
  EXPECT_EQ(*after - *before, 0u);
}

// ---- heap counter --------------------------------------------------------------

TEST(HeapCount, CountsEveryOperatorNewOnEveryThread) {
  const std::optional<std::uint64_t> before = heap_allocations();
  ASSERT_TRUE(before.has_value()) << "test binary must link edp_heap_counter";
  void* p = ::operator new(64);
  const std::optional<std::uint64_t> after_one = heap_allocations();
  ::operator delete(p);
  EXPECT_EQ(*after_one - *before, 1u);

  // A thread-local count would miss these: the count is process-wide.
  std::thread worker([] {
    for (int i = 0; i < 3; ++i) {
      ::operator delete(::operator new(32));
    }
  });
  worker.join();
  EXPECT_GE(*heap_allocations() - *after_one, 3u);
}

// ---- InlineCallback -----------------------------------------------------------

TEST(InlineCallback, InvokesAndSurvivesMove) {
  int count = 0;
  InlineCallback cb([&count] { ++count; });
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  InlineCallback moved = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));
  moved();
  EXPECT_EQ(count, 2);
}

TEST(InlineCallback, DestroysCapturedState) {
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InlineCallback cb([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    cb();
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // destructor ran the capture's dtor
}

TEST(InlineCallback, HoldsMoveOnlyCaptures) {
  auto boxed = std::make_unique<int>(41);
  int seen = 0;
  InlineCallback cb([&seen, p = std::move(boxed)] { seen = ++*p; });
  InlineCallback moved = std::move(cb);
  moved();
  EXPECT_EQ(seen, 42);
}

// ---- ObjectPool ---------------------------------------------------------------

TEST(ObjectPool, ReusesReleasedObjects) {
  ObjectPool<std::vector<int>> pool(8);
  std::vector<int> v = pool.acquire();
  v.reserve(1024);
  const int* storage = v.data();
  pool.release(std::move(v));
  EXPECT_EQ(pool.idle(), 1u);
  std::vector<int> again = pool.acquire();
  EXPECT_EQ(again.data(), storage);  // same buffer came back
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().allocated, 1u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().released, 1u);
}

TEST(ObjectPool, ResetRunsOnAcquireOfRecycledObjects) {
  ObjectPool<std::vector<int>> pool(8, [](std::vector<int>& v) { v.clear(); });
  std::vector<int> v = pool.acquire();
  EXPECT_TRUE(v.empty());  // fresh objects are default-constructed
  v.assign(100, 7);
  const std::size_t cap = v.capacity();
  pool.release(std::move(v));
  std::vector<int> again = pool.acquire();
  EXPECT_TRUE(again.empty());         // recycled state must not leak...
  EXPECT_GE(again.capacity(), cap);   // ...but the capacity is retained
}

TEST(ObjectPool, BoundsIdleObjects) {
  ObjectPool<std::vector<int>> pool(2);
  std::vector<std::vector<int>> out;
  for (int i = 0; i < 3; ++i) {
    auto v = pool.acquire();
    v.reserve(16);  // give the object real storage so the drop is meaningful
    out.push_back(std::move(v));
  }
  for (auto& v : out) {
    pool.release(std::move(v));
  }
  EXPECT_EQ(pool.idle(), 2u);
  EXPECT_EQ(pool.stats().released, 2u);
  EXPECT_EQ(pool.stats().dropped, 1u);
}

// ---- RingQueue ----------------------------------------------------------------

TEST(RingQueue, FifoOrderAcrossGrowth) {
  RingQueue<int> q;
  for (int i = 0; i < 100; ++i) {
    q.push_back(i);
  }
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsWithoutLosingElements) {
  RingQueue<int> q;
  q.reserve(8);
  const std::size_t cap = q.capacity();
  int next_in = 0;
  int next_out = 0;
  // Oscillate below capacity for many laps: indices wrap, capacity stays.
  for (int lap = 0; lap < 50; ++lap) {
    for (int i = 0; i < 5; ++i) {
      q.push_back(next_in++);
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowthPreservesOrderAcrossWrapPoint) {
  RingQueue<int> q;
  q.reserve(8);
  // Advance the head so the live range straddles the wrap point, then force
  // a growth and verify the linearized order survived.
  for (int i = 0; i < 6; ++i) {
    q.push_back(i);
  }
  for (int i = 0; i < 6; ++i) {
    q.pop_front();
  }
  for (int i = 0; i < 20; ++i) {
    q.push_back(100 + i);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(q.front(), 100 + i);
    q.pop_front();
  }
}

TEST(PeriodicTask, StartAtAbsoluteTime) {
  Scheduler sched;
  std::vector<Time> fire_times;
  PeriodicTask task(sched, Time::micros(10),
                    [&] { fire_times.push_back(sched.now()); });
  task.start_at(Time::micros(100));
  sched.run_until(Time::micros(125));
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], Time::micros(100));
  EXPECT_EQ(fire_times[1], Time::micros(110));
  EXPECT_EQ(fire_times[2], Time::micros(120));
}

}  // namespace
}  // namespace edp::sim
