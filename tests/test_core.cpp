// Unit tests for edp::core — events, timer block, packet generator, the
// shared/aggregated registers, the event merger, the event switch, the
// baseline comparator, and the resource model.
#include <gtest/gtest.h>

#include "core/aggregated_register.hpp"
#include "core/baseline_switch.hpp"
#include "core/event.hpp"
#include "core/event_merger.hpp"
#include "core/event_switch.hpp"
#include "core/packet_generator.hpp"
#include "core/resource_model.hpp"
#include "core/shared_register.hpp"
#include "core/timer_block.hpp"
#include "net/packet_builder.hpp"
#include "pisa/deparser.hpp"
#include "pisa/parser.hpp"
#include "sim/heap_count.hpp"

namespace edp::core {
namespace {

// ---- events -------------------------------------------------------------------

TEST(Event, AllThirteenKindsHaveNames) {
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_NE(to_string(static_cast<EventKind>(k)), "Unknown");
  }
}

TEST(Event, FactoryTagsKindAndPayload) {
  tm_::EnqueueRecord enq;
  enq.pkt_len = 123;
  enq.when = sim::Time::micros(7);
  const Event e = Event::enqueue(enq);
  EXPECT_EQ(e.kind, EventKind::kEnqueue);
  EXPECT_EQ(e.created, sim::Time::micros(7));
  EXPECT_EQ(std::get<tm_::EnqueueRecord>(e.data).pkt_len, 123u);

  const Event t = Event::timer(TimerEventData{1, 2, {}, {}},
                               sim::Time::micros(1));
  EXPECT_EQ(t.kind, EventKind::kTimer);
}

// ---- timer block ------------------------------------------------------------------

/// Installs a batched on_expire hook that runs `f` on every record of
/// every burst, in delivery order.
template <typename F>
void on_each_expiry(TimerBlock& timers, F f) {
  timers.on_expire = [f = std::move(f)](const TimerEventData* d,
                                        std::size_t n) mutable {
    for (std::size_t i = 0; i < n; ++i) {
      f(d[i]);
    }
  };
}

TEST(TimerBlock, PeriodicFiresAtConfiguredRate) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::vector<sim::Time> fires;
  on_each_expiry(timers, [&](const TimerEventData& d) {
    fires.push_back(d.fired_at);
    EXPECT_EQ(d.cookie, 0x77u);
  });
  timers.set_periodic(sim::Time::micros(100), 0x77);
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(fires.size(), 10u);
  EXPECT_EQ(fires[0], sim::Time::micros(100));
  EXPECT_EQ(fires[9], sim::Time::micros(1000));
}

TEST(TimerBlock, OneShotFiresOnce) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  int fires = 0;
  on_each_expiry(timers, [&](const TimerEventData&) { ++fires; });
  timers.set_oneshot(sim::Time::micros(50));
  sched.run_until(sim::Time::millis(10));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerBlock, CancelPeriodicByStableId) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  int fires = 0;
  on_each_expiry(timers, [&](const TimerEventData&) { ++fires; });
  const TimerId id = timers.set_periodic(sim::Time::micros(100));
  sched.run_until(sim::Time::micros(350));
  EXPECT_EQ(fires, 3);
  // The public id survives re-arming.
  EXPECT_TRUE(timers.cancel(id));
  sched.run_until(sim::Time::millis(2));
  EXPECT_EQ(fires, 3);
}

TEST(TimerBlock, QuantizesToResolution) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(10));
  std::vector<sim::Time> fires;
  on_each_expiry(timers,
                 [&](const TimerEventData& d) { fires.push_back(d.fired_at); });
  timers.set_oneshot(sim::Time::micros(15));
  sched.run_until(sim::Time::millis(1));
  ASSERT_EQ(fires.size(), 1u);
  // 15 us at 10 us resolution fires on a 10 us boundary >= 15 us.
  EXPECT_EQ(fires[0], sim::Time::micros(20));
}

TEST(TimerBlock, ManyIndependentPeriodics) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::array<int, 3> fires{};
  on_each_expiry(timers, [&](const TimerEventData& d) {
    ++fires[static_cast<std::size_t>(d.cookie)];
  });
  timers.set_periodic(sim::Time::micros(100), 0);
  timers.set_periodic(sim::Time::micros(250), 1);
  timers.set_periodic(sim::Time::micros(997), 2);
  sched.run_until(sim::Time::millis(10));
  EXPECT_EQ(fires[0], 100);
  EXPECT_EQ(fires[1], 40);
  EXPECT_EQ(fires[2], 10);
}

TEST(TimerBlock, BatchDeliveryCoalescesSameTickExpirations) {
  // Several timers expiring on the same wheel tick must arrive as ONE
  // on_expire call, carrying their records in fire order.
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::vector<std::size_t> burst_sizes;
  std::vector<std::uint64_t> cookies;
  timers.on_expire = [&](const TimerEventData* d, std::size_t n) {
    burst_sizes.push_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      cookies.push_back(d[i].cookie);
    }
  };
  // Four one-shots on one tick (set in a deliberate non-cookie order), one
  // straggler a tick later.
  timers.set_oneshot(sim::Time::micros(50), 10);
  timers.set_oneshot(sim::Time::micros(50), 11);
  timers.set_oneshot(sim::Time::micros(50), 12);
  timers.set_oneshot(sim::Time::micros(50), 13);
  timers.set_oneshot(sim::Time::micros(51), 14);
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(burst_sizes, (std::vector<std::size_t>{4, 1}));
  EXPECT_EQ(cookies,
            (std::vector<std::uint64_t>{10, 11, 12, 13, 14}));
  EXPECT_EQ(timers.fired(), 5u);
}

TEST(TimerBlock, PastTicksClampToNextTick) {
  // A timer due on a tick the block has already woken for fires on the
  // next tick, never in the past and never twice on one tick.
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::vector<sim::Time> fires;
  on_each_expiry(timers,
                 [&](const TimerEventData& d) { fires.push_back(d.fired_at); });
  timers.set_oneshot(sim::Time::micros(100));
  sched.at(sim::Time::micros(100),
           [&] { timers.set_oneshot(sim::Time::zero()); });
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(fires, (std::vector<sim::Time>{sim::Time::micros(100),
                                           sim::Time::micros(101)}));
}

TEST(TimerBlock, WakesOnlyOnTicksThatExpire) {
  // However many timers are pending, the block holds one scheduler entry,
  // at the earliest due tick, and wakes once per distinct fire tick.
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::size_t bursts = 0;
  timers.on_expire = [&](const TimerEventData*, std::size_t) { ++bursts; };
  timers.set_periodic(sim::Time::millis(1));    // 1, 2, 3 ms
  timers.set_oneshot(sim::Time::micros(2500));  // 2.5 ms
  timers.set_oneshot(sim::Time::millis(2));     // joins the 2 ms burst
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.run_until(sim::Time::micros(3500)), 4u);
  EXPECT_EQ(bursts, 4u);
  EXPECT_EQ(timers.fired(), 5u);
}

TEST(TimerBlock, SteadyStateDoesNotAllocate) {
  // 64 periodic timers plus a one-shot cancelled and re-set on every
  // burst: once warm, the wake/re-arm/cancel path makes no heap call.
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  std::uint64_t fires = 0;
  TimerId churn = 0;
  timers.on_expire = [&](const TimerEventData*, std::size_t n) {
    fires += n;
    if (churn != 0) {
      timers.cancel(churn);
    }
    churn = timers.set_oneshot(sim::Time::micros(37), 0xc0de);
  };
  for (int i = 0; i < 64; ++i) {
    timers.set_periodic(sim::Time::micros(100 + i),
                        static_cast<std::uint64_t>(i));
  }
  sched.run_until(sim::Time::micros(200));  // one period of every timer
  const std::optional<std::uint64_t> before = sim::heap_allocations();
  ASSERT_TRUE(before.has_value()) << "test binary must link edp_heap_counter";
  const std::uint64_t fires_before = fires;
  sched.run_until(sim::Time::millis(30));
  const std::optional<std::uint64_t> after = sim::heap_allocations();
  EXPECT_GE(fires - fires_before, 10'000u);
  EXPECT_EQ(*after - *before, 0u);
}

// ---- packet generator ---------------------------------------------------------------

TEST(PacketGenerator, PeriodicEmission) {
  sim::Scheduler sched;
  PacketGenerator gen(sched);
  int emitted = 0;
  gen.on_generate = [&](GeneratorId, net::Packet p) {
    ++emitted;
    EXPECT_EQ(p.size(), 64u);
  };
  PacketGenerator::Config cfg;
  cfg.packet_template = net::Packet(64);
  cfg.period = sim::Time::micros(100);
  cfg.start_immediately = true;
  gen.add(cfg);
  sched.run_until(sim::Time::micros(450));
  EXPECT_EQ(emitted, 5);  // t = 0, 100, 200, 300, 400
}

TEST(PacketGenerator, CountLimitedBurst) {
  sim::Scheduler sched;
  PacketGenerator gen(sched);
  int emitted = 0;
  gen.on_generate = [&](GeneratorId, net::Packet) { ++emitted; };
  PacketGenerator::Config cfg;
  cfg.packet_template = net::Packet(100);
  cfg.period = sim::Time::micros(10);
  cfg.count = 3;
  gen.add(cfg);
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(emitted, 3);
  EXPECT_EQ(gen.active(), 0u);  // finished generators are removed
}

TEST(PacketGenerator, RemoveStopsEmission) {
  sim::Scheduler sched;
  PacketGenerator gen(sched);
  int emitted = 0;
  gen.on_generate = [&](GeneratorId, net::Packet) { ++emitted; };
  PacketGenerator::Config cfg;
  cfg.packet_template = net::Packet(60);
  cfg.period = sim::Time::micros(10);
  const GeneratorId id = gen.add(cfg);
  sched.run_until(sim::Time::micros(35));
  EXPECT_TRUE(gen.remove(id));
  EXPECT_FALSE(gen.remove(id));
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(emitted, 4);  // t = 0, 10, 20, 30
}

TEST(PacketGenerator, TriggerAndTemplateUpdate) {
  sim::Scheduler sched;
  PacketGenerator gen(sched);
  std::vector<std::size_t> sizes;
  gen.on_generate = [&](GeneratorId, net::Packet p) {
    sizes.push_back(p.size());
  };
  PacketGenerator::Config cfg;
  cfg.packet_template = net::Packet(64);
  cfg.period = sim::Time::zero();  // no periodic emission
  cfg.count = 1000;                // stays alive for manual triggering
  cfg.start_immediately = true;
  const GeneratorId id = gen.add(cfg);
  sched.run(100);
  gen.trigger(id, 2);
  EXPECT_TRUE(gen.set_template(id, net::Packet(128)));
  gen.trigger(id, 1);
  ASSERT_EQ(sizes.size(), 4u);  // 1 initial + 2 + 1
  EXPECT_EQ(sizes[1], 64u);
  EXPECT_EQ(sizes[3], 128u);
}

// ---- shared register ----------------------------------------------------------------

TEST(SharedRegister, ThreadsShareStateImmediately) {
  SharedRegister<std::int64_t> reg("r", 16, 3);
  reg.rmw(5, [](std::int64_t v) { return v + 100; }, ThreadId::kEnqueue, 1);
  std::int64_t seen = 0;
  reg.read(5, seen, ThreadId::kIngress, 1);
  EXPECT_EQ(seen, 100);  // zero staleness
  reg.rmw(5, [](std::int64_t v) { return v - 40; }, ThreadId::kDequeue, 1);
  reg.read(5, seen, ThreadId::kIngress, 2);
  EXPECT_EQ(seen, 60);
}

TEST(SharedRegister, PortBudgetVerification) {
  SharedRegister<std::int64_t> reg("r", 4, 2);
  std::int64_t v;
  reg.read(0, v, ThreadId::kIngress, 10);
  reg.read(1, v, ThreadId::kEnqueue, 10);
  EXPECT_EQ(reg.overcommitted_cycles(), 0u);
  reg.read(2, v, ThreadId::kDequeue, 10);  // third access in cycle 10
  EXPECT_EQ(reg.overcommitted_cycles(), 1u);
  EXPECT_EQ(reg.accesses(ThreadId::kIngress), 1u);
  EXPECT_EQ(reg.total_accesses(), 3u);
}

// ---- aggregated register --------------------------------------------------------------

TEST(AggregatedRegister, PacketOpsHitMainDirectly) {
  AggregatedRegister reg("r", 8);
  reg.packet_add(3, 500, 1);
  EXPECT_EQ(reg.packet_read(3, 2), 500);
  EXPECT_EQ(reg.true_value(3), 500);
}

TEST(AggregatedRegister, EventOpsAreStaleUntilDrained) {
  AggregatedRegister reg("r", 8);
  reg.enqueue_add(2, 300, 10);
  // Main register hasn't seen the delta yet: stale read.
  EXPECT_EQ(reg.packet_read(2, 11), 0);
  EXPECT_EQ(reg.true_value(2), 300);
  EXPECT_EQ(reg.backlog(), 1u);
  // One idle cycle drains it.
  EXPECT_EQ(reg.drain(12, 1), 1u);
  EXPECT_EQ(reg.packet_read(2, 13), 300);
  EXPECT_EQ(reg.backlog(), 0u);
}

TEST(AggregatedRegister, CoalescingMergesSameIndex) {
  AggregatedRegister reg("r", 8);
  reg.enqueue_add(1, 100, 1);
  reg.enqueue_add(1, 100, 2);
  reg.enqueue_add(1, 100, 3);
  EXPECT_EQ(reg.backlog(), 1u);  // coalesced into one pending entry
  reg.drain(4, 1);
  EXPECT_EQ(reg.main_value(1), 300);
}

TEST(AggregatedRegister, EnqueueAndDequeueArraysAreSeparate) {
  AggregatedRegister reg("r", 8);
  reg.enqueue_add(1, 1000, 1);
  reg.dequeue_add(1, -400, 1);
  EXPECT_EQ(reg.backlog(), 2u);
  EXPECT_EQ(reg.true_value(1), 600);
  reg.drain_all(2);
  EXPECT_EQ(reg.main_value(1), 600);
  EXPECT_EQ(reg.backlog(), 0u);
}

TEST(AggregatedRegister, StalenessTracking) {
  AggregatedRegister reg("r", 8);
  reg.enqueue_add(0, 10, 100);
  reg.enqueue_add(1, 10, 100);
  EXPECT_EQ(reg.oldest_age(110), 10u);
  reg.drain(110, 2);
  EXPECT_EQ(reg.drained(), 2u);
  EXPECT_EQ(reg.staleness_max(), 10u);
  EXPECT_DOUBLE_EQ(reg.staleness_mean(), 10.0);
  EXPECT_EQ(reg.backlog_max(), 2u);
}

TEST(AggregatedRegister, DrainBudgetRespected) {
  AggregatedRegister reg("r", 16);
  for (std::size_t i = 0; i < 10; ++i) {
    reg.enqueue_add(i, 1, 1);
  }
  EXPECT_EQ(reg.drain(2, 4), 4u);
  EXPECT_EQ(reg.backlog(), 6u);
}

TEST(AggregatedRegister, FootprintIsTripleMain) {
  AggregatedRegister reg("r", 128);
  EXPECT_EQ(reg.bytes(), 3u * 128u * sizeof(std::int64_t));
}

// ---- event merger -----------------------------------------------------------------------

MergerConfig merger_cfg() {
  MergerConfig c;
  c.cycle_time = sim::Time::nanos(10);
  c.event_fifo_depth = 4;
  c.packet_fifo_depth = 8;
  return c;
}

TEST(EventMerger, PacketGetsSlotOnClockGrid) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  sched.at(sim::Time::nanos(13), [&] {
    merger.submit_packet(net::Packet(64), PacketOrigin::kIngress);
  });
  sched.run(100);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_TRUE(slots[0].packet.has_value());
  EXPECT_EQ(slots[0].time, sim::Time::nanos(20));  // aligned up
  EXPECT_EQ(slots[0].cycle, 2u);
}

TEST(EventMerger, EventsPiggybackOnPackets) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  merger.submit_packet(net::Packet(64), PacketOrigin::kIngress);
  sched.run(100);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_TRUE(slots[0].packet.has_value());
  ASSERT_EQ(slots[0].events.size(), 1u);
  EXPECT_FALSE(slots[0].carrier);
  EXPECT_EQ(merger.events_piggybacked(), 1u);
  EXPECT_EQ(merger.events_on_carrier(), 0u);
}

TEST(EventMerger, CarrierSlotWhenNoPacket) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  sched.run(100);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_FALSE(slots[0].packet.has_value());
  EXPECT_TRUE(slots[0].carrier);
  EXPECT_EQ(merger.slots_carrier(), 1u);
}

TEST(EventMerger, OnePerKindPerSlot) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  // Two timer events (same kind) + one link event.
  merger.submit_event(Event::timer(TimerEventData{1, 0, {}, {}}, sched.now()));
  merger.submit_event(Event::timer(TimerEventData{2, 0, {}, {}}, sched.now()));
  merger.submit_event(
      Event::link_status(LinkStatusEventData{0, false, sched.now()}));
  sched.run(100);
  ASSERT_EQ(slots.size(), 2u);
  // Slot 1: one timer + the link event; slot 2: the second timer.
  EXPECT_EQ(slots[0].events.size(), 2u);
  EXPECT_EQ(slots[1].events.size(), 1u);
  EXPECT_EQ(slots[1].time - slots[0].time, sim::Time::nanos(10));
}

TEST(EventMerger, FifoOverflowDropsEvents) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());  // depth 4
  merger.on_slot = [](SlotWork&&) {};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    accepted += merger.submit_event(
        Event::timer(TimerEventData{}, sched.now()));
  }
  EXPECT_EQ(accepted, 4);
  const auto& st = merger.kind_stats(EventKind::kTimer);
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.dropped, 6u);
}

TEST(EventMerger, PacketBacklogBounded) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());  // packet fifo depth 8
  merger.on_slot = [](SlotWork&&) {};
  int accepted = 0;
  for (int i = 0; i < 12; ++i) {
    accepted += merger.submit_packet(net::Packet(64), PacketOrigin::kIngress);
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(merger.packet_backlog_drops(), 4u);
}

TEST(EventMerger, WaitTimesMeasured) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  merger.on_slot = [](SlotWork&&) {};
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  sched.run(10);
  const auto& st = merger.kind_stats(EventKind::kTimer);
  EXPECT_EQ(st.delivered, 1u);
  EXPECT_GE(st.wait_max, sim::Time::zero());
  EXPECT_LE(st.wait_max, sim::Time::nanos(10));
}

TEST(EventMerger, PerSlotBudgetLimitsEventCount) {
  sim::Scheduler sched;
  MergerConfig cfg = merger_cfg();
  cfg.events_per_slot = 1;
  EventMerger merger(sched, cfg);
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  merger.submit_event(
      Event::link_status(LinkStatusEventData{0, false, sched.now()}));
  sched.run(100);
  // Two different kinds, but the shared budget is 1 per slot.
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].events.size(), 1u);
  EXPECT_EQ(slots[1].events.size(), 1u);
}

TEST(EventMerger, PriorityOrdersKindsUnderBudget) {
  sim::Scheduler sched;
  MergerConfig cfg = merger_cfg();
  cfg.events_per_slot = 1;
  // Link status outranks timers.
  cfg.priority[static_cast<std::size_t>(EventKind::kLinkStatus)] = 5;
  EventMerger merger(sched, cfg);
  std::vector<SlotWork> slots;
  merger.on_slot = [&](SlotWork&& w) { slots.push_back(std::move(w)); };
  // Submit the low-priority kind first; it would win a FIFO/kind-order
  // race, but priority must put link status in the first slot.
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  merger.submit_event(
      Event::link_status(LinkStatusEventData{2, false, sched.now()}));
  sched.run(100);
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_EQ(slots[0].events.size(), 1u);
  EXPECT_EQ(slots[0].events[0].kind, EventKind::kLinkStatus);
  EXPECT_EQ(slots[1].events[0].kind, EventKind::kTimer);
}

TEST(AggregatedRegister, DrainPolicyStrictPriority) {
  // One drain credit, one pending entry in each array: the policy decides
  // which array's update becomes visible.
  AggregatedRegister enq_first("r", 8, DrainPolicy::kEnqueueFirst);
  enq_first.enqueue_add(0, 100, 1);
  enq_first.dequeue_add(1, -50, 1);
  enq_first.drain(2, 1);
  EXPECT_EQ(enq_first.main_value(0), 100);
  EXPECT_EQ(enq_first.main_value(1), 0);  // dequeue still pending

  AggregatedRegister deq_first("r", 8, DrainPolicy::kDequeueFirst);
  deq_first.enqueue_add(0, 100, 1);
  deq_first.dequeue_add(1, -50, 1);
  deq_first.drain(2, 1);
  EXPECT_EQ(deq_first.main_value(0), 0);
  EXPECT_EQ(deq_first.main_value(1), -50);
}

TEST(AggregatedRegister, PendingErrorExposesStaleness) {
  AggregatedRegister reg("r", 8);
  EXPECT_EQ(reg.pending_error(3), 0);
  reg.enqueue_add(3, 700, 1);
  reg.dequeue_add(3, -200, 1);
  // The §4 staleness-awareness API: main lags truth by exactly this much.
  EXPECT_EQ(reg.pending_error(3), 500);
  EXPECT_EQ(reg.main_value(3) + reg.pending_error(3), reg.true_value(3));
  reg.drain_all(2);
  EXPECT_EQ(reg.pending_error(3), 0);
}

TEST(EventMerger, BackToBackSlotsUnderLoad) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  std::vector<sim::Time> slot_times;
  merger.on_slot = [&](SlotWork&& w) { slot_times.push_back(w.time); };
  for (int i = 0; i < 5; ++i) {
    merger.submit_packet(net::Packet(64), PacketOrigin::kIngress);
  }
  sched.run(100);
  ASSERT_EQ(slot_times.size(), 5u);
  for (std::size_t i = 1; i < slot_times.size(); ++i) {
    EXPECT_EQ(slot_times[i] - slot_times[i - 1], sim::Time::nanos(10));
  }
  EXPECT_EQ(merger.last_gap_cycles(), 0u);
}

// ---- event switch -------------------------------------------------------------------------

EventSwitchConfig switch_cfg() {
  EventSwitchConfig c;
  c.num_ports = 2;
  c.port_rate_bps = 10e9;
  c.merger.cycle_time = sim::Time::nanos(5);
  c.timer_resolution = sim::Time::micros(1);
  return c;
}

/// Minimal program: forwards everything to a fixed port and records which
/// handlers ran.
class RecordingProgram : public EventProgram {
 public:
  explicit RecordingProgram(std::uint16_t out_port) : out_(out_port) {}

  void on_ingress(pisa::Phv& phv, EventContext&) override {
    ++ingress;
    phv.std_meta.egress_port = out_;
  }
  void on_enqueue(const tm_::EnqueueRecord&, EventContext&) override {
    ++enqueue;
  }
  void on_dequeue(const tm_::DequeueRecord&, EventContext&) override {
    ++dequeue;
  }
  void on_timer(const TimerEventData&, EventContext&) override { ++timer; }
  void on_link_status(const LinkStatusEventData& e, EventContext&) override {
    ++link;
    last_link = e;
  }
  void on_control(const ControlEventData& e, EventContext&) override {
    ++control;
    last_control = e;
  }
  void on_user(const UserEventData&, EventContext&) override { ++user; }
  void on_generated(pisa::Phv& phv, EventContext&) override {
    ++generated;
    phv.std_meta.egress_port = out_;
  }

  int ingress = 0, enqueue = 0, dequeue = 0, timer = 0, link = 0;
  int control = 0, user = 0, generated = 0;
  LinkStatusEventData last_link;
  ControlEventData last_control;

 private:
  std::uint16_t out_;
};

net::Packet test_packet(std::size_t size = 200) {
  return net::make_udp_packet(net::Ipv4Address(10, 0, 0, 1),
                              net::Ipv4Address(10, 0, 1, 1), 1, 2, size);
}

TEST(EventSwitch, ForwardsPacketAndFiresBufferEvents) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  std::vector<net::Packet> out;
  sw.connect_tx(1, [&](net::Packet p) { out.push_back(std::move(p)); });

  sw.receive(0, test_packet());
  sched.run(10'000);

  EXPECT_EQ(prog.ingress, 1);
  EXPECT_EQ(prog.enqueue, 1);
  EXPECT_EQ(prog.dequeue, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 200u);
  EXPECT_EQ(sw.counters().rx_packets, 1u);
  EXPECT_EQ(sw.counters().tx_packets, 1u);
}

TEST(EventSwitch, TimerEventsReachProgram) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.set_periodic_timer(sim::Time::micros(100), 1);
  // Fires at 100..1000 us; allow a little slack for the merger slot that
  // carries the final event (the timer itself keeps running, so bound by
  // time, not by event count).
  sched.run_until(sim::Time::micros(1050));
  EXPECT_EQ(prog.timer, 10);
}

TEST(EventSwitch, LinkStatusEventsReachProgram) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.set_link_status(0, false);
  sw.set_link_status(0, false);  // no change -> no event
  sw.set_link_status(0, true);
  sched.run(1000);
  EXPECT_EQ(prog.link, 2);
  EXPECT_TRUE(prog.last_link.up);
  EXPECT_EQ(prog.last_link.port, 0);
}

TEST(EventSwitch, ControlAndUserEvents) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  ControlEventData cd;
  cd.opcode = 9;
  cd.args = {1, 2, 3, 4};
  EXPECT_TRUE(sw.control_event(cd));
  EXPECT_TRUE(sw.raise_user_event(UserEventData{5, {}}));
  sched.run(1000);
  EXPECT_EQ(prog.control, 1);
  EXPECT_EQ(prog.last_control.opcode, 9u);
  EXPECT_EQ(prog.user, 1);
}

TEST(EventSwitch, GeneratedPacketsTraverseProgram) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx; });
  PacketGenerator::Config g;
  g.packet_template = test_packet(64);
  g.period = sim::Time::micros(10);
  g.count = 5;
  sw.add_generator(std::move(g));
  sched.run_until(sim::Time::millis(1));
  sched.run(1000);
  EXPECT_EQ(prog.generated, 5);
  EXPECT_EQ(tx, 5);
  EXPECT_EQ(sw.counters().generated, 5u);
}

TEST(EventSwitch, DropAndBadPortAccounting) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());

  class Dropper : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      if (phv.std_meta.packet_length > 100) {
        phv.std_meta.drop = true;
      } else {
        phv.std_meta.egress_port = 77;  // out of range
      }
    }
  } prog;
  sw.set_program(&prog);

  sw.receive(0, test_packet(200));  // dropped by program
  sw.receive(0, test_packet(64));   // bad port
  sched.run(1000);
  EXPECT_EQ(sw.counters().program_drops, 1u);
  EXPECT_EQ(sw.counters().bad_port_drops, 1u);
  EXPECT_EQ(sw.counters().tx_packets, 0u);
}

TEST(EventSwitch, RecirculationReentersPipeline) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());

  class Recirc : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      ++ingress;
      phv.std_meta.recirculate = true;  // first pass: go around
    }
    void on_recirculate(pisa::Phv& phv, EventContext&) override {
      ++recirc;
      phv.std_meta.egress_port = 1;
    }
    int ingress = 0;
    int recirc = 0;
  } prog;
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx; });

  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(prog.ingress, 1);
  EXPECT_EQ(prog.recirc, 1);
  EXPECT_EQ(tx, 1);
  EXPECT_EQ(sw.counters().recirculated, 1u);
}

TEST(EventSwitch, TransmitPacingAtLineRate) {
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();
  cfg.port_rate_bps = 1e9;  // 1 Gb/s: 1500B takes 12 us
  EventSwitch sw(sched, cfg);
  RecordingProgram prog(1);
  sw.set_program(&prog);
  std::vector<sim::Time> tx_times;
  sw.connect_tx(1, [&](net::Packet) { tx_times.push_back(sched.now()); });
  sw.receive(0, test_packet(1500));
  sw.receive(0, test_packet(1500));
  sched.run(10'000);
  ASSERT_EQ(tx_times.size(), 2u);
  EXPECT_EQ(tx_times[1] - tx_times[0], sim::Time::micros(12));
}

// ---- departure-stamped transmit --------------------------------------------
//
// A port hands its packet to a connect_link consumer when serialization
// starts, stamped with the departure, and schedules a completion only when
// something needs one. Everything observable must stay where a completion
// callback at the departure put it.

/// 1500 B at 10 Gb/s.
constexpr sim::Time kSer1500 = sim::Time::nanos(1200);

TEST(EventSwitch, CountersAreCreditedAtTheDeparture) {
  // The same packet through a departure-stamped and a completion-time
  // consumer: counters() must read the same before, at and after the
  // departure.
  sim::Scheduler sched_link, sched_tx;
  EventSwitch sw_link(sched_link, switch_cfg());
  EventSwitch sw_tx(sched_tx, switch_cfg());
  RecordingProgram prog_link(1), prog_tx(1);
  sw_link.set_program(&prog_link);
  sw_tx.set_program(&prog_tx);
  sim::Time departure = sim::Time::zero();
  sw_link.connect_link(1, [&](net::Packet, sim::Time d) { departure = d; });
  sw_tx.connect_tx(1, [](net::Packet) {});
  sw_link.receive(0, test_packet(1500));
  sw_tx.receive(0, test_packet(1500));
  // The slot runs at t=0; serialization starts there.
  sched_link.run_until(sim::Time::nanos(1));
  sched_tx.run_until(sim::Time::nanos(1));
  ASSERT_EQ(departure, kSer1500);
  const auto transmitted = static_cast<std::size_t>(
      EventKind::kPacketTransmitted);
  for (const sim::Time probe :
       {sim::Time::nanos(600), departure - sim::Time::picos(1), departure,
        departure + sim::Time::micros(1)}) {
    sched_link.run_until(probe);
    sched_tx.run_until(probe);
    const SwitchCounters& a = sw_link.counters();
    const SwitchCounters& b = sw_tx.counters();
    EXPECT_EQ(a.tx_packets, b.tx_packets) << probe.to_string();
    EXPECT_EQ(a.tx_bytes, b.tx_bytes) << probe.to_string();
    EXPECT_EQ(a.observed[transmitted], b.observed[transmitted])
        << probe.to_string();
    EXPECT_EQ(a.tx_packets, probe >= departure ? 1u : 0u)
        << probe.to_string();
  }
  EXPECT_EQ(sw_link.counters().tx_bytes, 1500u);
}

TEST(EventSwitch, TransmitEventIsStampedAtTheDeparture) {
  class TxRecorder : public RecordingProgram {
   public:
    TxRecorder() : RecordingProgram(1) {}
    void on_transmit(const TransmitRecord& r, EventContext& ctx) override {
      records.push_back(r);
      handled_at.push_back(ctx.now());
    }
    std::vector<TransmitRecord> records;
    std::vector<sim::Time> handled_at;
  };
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  TxRecorder prog;
  sw.set_program(&prog);
  sw.enable_event(EventKind::kPacketTransmitted, true);
  std::vector<sim::Time> departures;
  sw.connect_link(1, [&](net::Packet, sim::Time d) { departures.push_back(d); });
  sw.receive(0, test_packet(1500));
  sched.run(10'000);
  ASSERT_EQ(departures.size(), 1u);
  ASSERT_EQ(prog.records.size(), 1u);
  EXPECT_EQ(prog.records[0].when, departures[0]);
  EXPECT_EQ(prog.records[0].port, 1);
  EXPECT_EQ(prog.records[0].pkt_len, 1500u);
  EXPECT_GE(prog.handled_at[0], departures[0]);  // rides a later slot

  // Enabled while a packet is on the wire: that packet raises it too.
  sw.enable_event(EventKind::kPacketTransmitted, false);
  sw.receive(0, test_packet(1500));
  sched.run_until(sched.now() + sim::Time::nanos(600));
  ASSERT_EQ(departures.size(), 2u);
  sw.enable_event(EventKind::kPacketTransmitted, true);
  sched.run(10'000);
  ASSERT_EQ(prog.records.size(), 2u);
  EXPECT_EQ(prog.records[1].when, departures[1]);
}

TEST(EventSwitch, CompletionTimeConsumerSeesTheDeparture) {
  // Spaced packets (nothing queued behind): a connect_tx consumer costs
  // exactly one callback per packet over a connect_link one, and is called
  // at the stamped departure.
  constexpr int kPackets = 5;
  const auto run = [](bool completion_time, std::vector<sim::Time>& seen) {
    sim::Scheduler sched;
    EventSwitch sw(sched, switch_cfg());
    RecordingProgram prog(1);
    sw.set_program(&prog);
    if (completion_time) {
      sw.connect_tx(1, [&](net::Packet) { seen.push_back(sched.now()); });
    } else {
      sw.connect_link(1, [&](net::Packet, sim::Time d) { seen.push_back(d); });
    }
    for (int i = 0; i < kPackets; ++i) {
      sched.at(sim::Time::micros(10 * i),
               [&sw] { sw.receive(0, test_packet(1500)); });
    }
    sched.run(100'000);
    return sched.executed();
  };
  std::vector<sim::Time> at_completion, stamped;
  const std::uint64_t with_completions = run(true, at_completion);
  const std::uint64_t stamped_only = run(false, stamped);
  EXPECT_EQ(at_completion, stamped);
  ASSERT_EQ(stamped.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(with_completions - stamped_only,
            static_cast<std::uint64_t>(kPackets));
}

TEST(EventSwitch, PacketQueuedBehindStartsAtTheDeparture) {
  // The second packet is enqueued while the first is on the wire: the
  // port schedules a completion for it, and it starts at the departure.
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  std::vector<sim::Time> departures;
  sw.connect_link(1, [&](net::Packet, sim::Time d) { departures.push_back(d); });
  sw.receive(0, test_packet(1500));
  sched.at(sim::Time::nanos(300), [&] { sw.receive(0, test_packet(1500)); });
  sched.run(10'000);
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[1] - departures[0], kSer1500);
  // Nothing is scheduled at the last departure, so run() stops short of
  // it; the counters credit it once time reaches it.
  EXPECT_EQ(sw.counters().tx_packets, 1u);
  sched.run_until(departures[1]);
  EXPECT_EQ(sw.counters().tx_packets, 2u);
}

TEST(EventSwitch, ConnectTxReplacesTheLinkConsumer) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  int via_link = 0, via_tx = 0;
  sw.connect_link(1, [&](net::Packet, sim::Time) { ++via_link; });
  sw.connect_tx(1, [&](net::Packet) { ++via_tx; });
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(via_link, 0);
  EXPECT_EQ(via_tx, 1);
  // And the other way round.
  sw.connect_link(1, [&](net::Packet, sim::Time) { ++via_link; });
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(via_link, 1);
  EXPECT_EQ(via_tx, 1);
}

TEST(EventSwitch, ReceiveFromAContinuingCallbackNeverRunsASlotInline) {
  // receive() leaves the slot to the scheduler: the caller keeps its now().
  // arrive() — the entry for delivery callbacks that end with it — may run
  // the slot in place, on the clock grid, when nothing else is due first.
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());  // 5 ns cycle, phase 0
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.connect_link(1, [](net::Packet, sim::Time) {});
  std::uint64_t slots_after = 0;
  sim::Time now_after = sim::Time::zero();
  sched.at(sim::Time::nanos(1), [&] {
    sw.receive(0, test_packet());
    slots_after = sw.merger().slots_total();
    now_after = sched.now();
  });
  sched.run(10'000);
  EXPECT_EQ(slots_after, 0u);
  EXPECT_EQ(now_after, sim::Time::nanos(1));
  EXPECT_EQ(prog.ingress, 1);
  // The packet's slot, then one carrier slot for its enqueue and dequeue
  // events.
  ASSERT_EQ(sw.merger().slots_total(), 2u);

  sched.at(sim::Time::micros(10) + sim::Time::nanos(1), [&] {
    sw.arrive(0, test_packet());
    slots_after = sw.merger().slots_total();
    now_after = sched.now();
  });
  sched.run(10'000);
  // Both slots ran inline, on the grid points after the arrival.
  EXPECT_EQ(slots_after, 4u);
  EXPECT_EQ(now_after, sim::Time::micros(10) + sim::Time::nanos(10));
  EXPECT_EQ(prog.ingress, 2);
}

TEST(EventSwitch, DownLinkHoldsTraffic) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx; });
  sw.set_link_status(1, false);
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(tx, 0);
  EXPECT_GT(sw.traffic_manager().port_bytes(1), 0u);
  sw.set_link_status(1, true);
  sched.run(10'000);
  EXPECT_EQ(tx, 1);
}

TEST(EventSwitch, EventDeliveryPolicyToggle) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.connect_tx(1, [](net::Packet) {});
  sw.enable_event(EventKind::kEnqueue, false);
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(prog.enqueue, 0);  // disabled
  EXPECT_EQ(prog.dequeue, 1);  // still on
  // Observed counters see the event regardless of delivery.
  EXPECT_EQ(sw.counters()
                .observed[static_cast<std::size_t>(EventKind::kEnqueue)],
            1u);
}

TEST(EventSwitch, PuntReachesControlPlane) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  class Punter : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext& ctx) override {
      ControlEventData msg;
      msg.opcode = 42;
      ctx.notify_control_plane(msg);
      phv.std_meta.drop = true;
    }
  } prog;
  sw.set_program(&prog);
  std::vector<ControlEventData> punts;
  sw.on_punt = [&](const ControlEventData& m) { punts.push_back(m); };
  sw.receive(0, test_packet());
  sched.run(1000);
  ASSERT_EQ(punts.size(), 1u);
  EXPECT_EQ(punts[0].opcode, 42u);
  EXPECT_EQ(sw.counters().punts, 1u);
}

TEST(EventSwitch, ContextGeneratorTriggerAndTemplate) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  class Prog : public EventProgram {
   public:
    void on_attach(EventContext& ctx) override {
      PacketGenerator::Config g;
      g.packet_template = net::Packet(64);
      g.period = sim::Time::zero();
      g.count = 1000;  // manual triggering only
      gen_id = ctx.add_generator(std::move(g));
    }
    void on_timer(const TimerEventData&, EventContext& ctx) override {
      // Rewrite the template, then emit two copies on demand.
      ctx.set_generator_template(gen_id, net::Packet(256));
      ctx.trigger_generator(gen_id, 2);
    }
    void on_generated(pisa::Phv& phv, EventContext&) override {
      sizes.push_back(phv.std_meta.packet_length);
      phv.std_meta.drop = true;
    }
    GeneratorId gen_id = 0;
    std::vector<std::uint32_t> sizes;
  } prog;
  sw.set_program(&prog);
  sw.set_oneshot_timer(sim::Time::micros(10), 0);
  sched.run_until(sim::Time::millis(1));
  // One immediate emission at attach (64B) + two triggered (256B).
  ASSERT_EQ(prog.sizes.size(), 3u);
  EXPECT_EQ(prog.sizes[0], 64u);
  EXPECT_EQ(prog.sizes[1], 256u);
  EXPECT_EQ(prog.sizes[2], 256u);
}

TEST(EventSwitch, EventEnabledReflectsPolicy) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  EXPECT_TRUE(sw.event_enabled(EventKind::kEnqueue));
  EXPECT_FALSE(sw.event_enabled(EventKind::kPacketTransmitted));
  sw.enable_event(EventKind::kPacketTransmitted, true);
  EXPECT_TRUE(sw.event_enabled(EventKind::kPacketTransmitted));
  sw.enable_event(EventKind::kEnqueue, false);
  EXPECT_FALSE(sw.event_enabled(EventKind::kEnqueue));
  // Baseline architectures have nothing to enable.
  EventSwitchConfig bcfg = switch_cfg();
  bcfg.event_architecture = false;
  EventSwitch bsw(sched, bcfg);
  bsw.enable_event(EventKind::kEnqueue, true);
  EXPECT_FALSE(bsw.event_enabled(EventKind::kEnqueue));
}

TEST(EventSwitch, ProgramInjectedPacketsTraversePipeline) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  class Injector : public EventProgram {
   public:
    void on_timer(const TimerEventData&, EventContext& ctx) override {
      // Program-built packet enters as a GeneratedPacket event.
      ctx.inject_packet(net::make_udp_packet(net::Ipv4Address(1, 1, 1, 1),
                                             net::Ipv4Address(2, 2, 2, 2), 3,
                                             4, 128));
    }
    void on_generated(pisa::Phv& phv, EventContext&) override {
      ++generated;
      phv.std_meta.egress_port = 1;
    }
    int generated = 0;
  } prog;
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet p) {
    ++tx;
    EXPECT_EQ(p.size(), 128u);
  });
  sw.set_oneshot_timer(sim::Time::micros(10), 0);
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(prog.generated, 1);
  EXPECT_EQ(tx, 1);
}

TEST(EventSwitch, SendPacketBypassesIngress) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  class DirectSender : public EventProgram {
   public:
    void on_timer(const TimerEventData&, EventContext& ctx) override {
      ctx.send_packet(net::Packet(64), 1);
    }
    void on_ingress(pisa::Phv&, EventContext&) override { ++ingress; }
    int ingress = 0;
  } prog;
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx; });
  sw.set_oneshot_timer(sim::Time::micros(10), 0);
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(tx, 1);
  EXPECT_EQ(prog.ingress, 0);  // never re-entered the ingress pipeline
  // send_packet to an out-of-range port is refused and counted.
  EXPECT_FALSE(sw.send_packet(net::Packet(64), 99, 0));
  EXPECT_EQ(sw.counters().bad_port_drops, 1u);
}

TEST(EventSwitch, CyclesElapsedTracksActivity) {
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();  // 5 ns cycle
  EventSwitch sw(sched, cfg);
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.connect_tx(1, [](net::Packet) {});
  EXPECT_EQ(sw.cycles_elapsed(), 0u);  // no slot yet
  sw.receive(0, test_packet());
  sched.run_until(sim::Time::micros(1));
  const std::uint64_t after_first = sw.cycles_elapsed();
  EXPECT_GE(after_first, 1u);
  sched.run_until(sim::Time::micros(2));
  EXPECT_GT(sw.cycles_elapsed(), after_first);  // wall cycles keep counting
}

TEST(TimerBlock, CancelOneShotBeforeFire) {
  sim::Scheduler sched;
  TimerBlock timers(sched, sim::Time::micros(1));
  int fires = 0;
  on_each_expiry(timers, [&](const TimerEventData&) { ++fires; });
  const TimerId id = timers.set_oneshot(sim::Time::micros(100), 0);
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // already gone
  sched.run_until(sim::Time::millis(1));
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(timers.fired(), 0u);
}

TEST(EventMerger, BacklogAccounting) {
  sim::Scheduler sched;
  EventMerger merger(sched, merger_cfg());
  merger.on_slot = [](SlotWork&&) {};
  EXPECT_EQ(merger.event_backlog(), 0u);
  merger.submit_event(Event::timer(TimerEventData{}, sched.now()));
  merger.submit_event(
      Event::link_status(LinkStatusEventData{0, false, sched.now()}));
  EXPECT_EQ(merger.event_backlog(), 2u);
  sched.run(100);
  EXPECT_EQ(merger.event_backlog(), 0u);
}

TEST(EventSwitch, EgressCloneRecirculatesACopy) {
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();
  cfg.egress_pipeline = true;
  cfg.event_architecture = false;  // the §6 trick is baseline-legal
  EventSwitch sw(sched, cfg);
  class CloningProgram : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      ++ingress;
      phv.std_meta.egress_port = 1;
    }
    void on_egress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.recirc_clone = true;
    }
    void on_recirculate(pisa::Phv& phv, EventContext&) override {
      ++clones;
      phv.std_meta.drop = true;  // consume the signal
    }
    int ingress = 0;
    int clones = 0;
  } prog;
  sw.set_program(&prog);
  int tx = 0;
  sw.connect_tx(1, [&](net::Packet) { ++tx; });
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(prog.ingress, 1);  // clones enter via on_recirculate, not ingress
  EXPECT_EQ(prog.clones, 1);   // exactly one clone, not a loop
  EXPECT_EQ(tx, 1);            // the original still left the port
  EXPECT_EQ(sw.counters().recirculated, 1u);
}

TEST(EventSwitch, EgressCloneRespectsRecirculationGuard) {
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();
  cfg.egress_pipeline = true;
  cfg.max_recirculations = 3;
  EventSwitch sw(sched, cfg);
  class LoopProgram : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.egress_port = 1;
    }
    void on_recirculate(pisa::Phv& phv, EventContext&) override {
      ++clones;
      phv.std_meta.egress_port = 1;  // keep forwarding the clone too
    }
    void on_egress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.recirc_clone = true;  // pathological: clone forever
    }
    int clones = 0;
  } prog;
  sw.set_program(&prog);
  sw.connect_tx(1, [](net::Packet) {});
  sw.receive(0, test_packet());
  sched.run(100'000);
  EXPECT_TRUE(sched.empty());           // the guard terminated the loop
  EXPECT_EQ(prog.clones, 3);            // exactly max_recirculations
}

TEST(EventSwitch, MulticastReplicatesToGroupMembers) {
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();
  cfg.num_ports = 4;
  EventSwitch sw(sched, cfg);
  class McastProg : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.mcast_group = 7;
    }
  } prog;
  sw.set_program(&prog);
  sw.set_multicast_group(7, {1, 2, 3});
  int tx[4] = {0, 0, 0, 0};
  for (std::uint16_t p = 1; p < 4; ++p) {
    sw.connect_tx(p, [&tx, p](net::Packet) { ++tx[p]; });
  }
  sw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(tx[1], 1);
  EXPECT_EQ(tx[2], 1);
  EXPECT_EQ(tx[3], 1);
  EXPECT_EQ(sw.counters().tx_packets, 3u);
  // Each replica produced its own enqueue event.
  EXPECT_EQ(sw.counters()
                .observed[static_cast<std::size_t>(EventKind::kEnqueue)],
            3u);
}

// ---- one buffer per packet --------------------------------------------------

TEST(EventSwitch, UnchangedLayoutLeavesInTheArrivalBuffer) {
  // A packet whose header layout no stage changes crosses ingress, the
  // traffic manager and the egress pipeline in the buffer it arrived in:
  // every deparse re-encodes the headers over that buffer.
  sim::Scheduler sched;
  EventSwitchConfig cfg = switch_cfg();
  cfg.egress_pipeline = true;
  EventSwitch sw(sched, cfg);
  class Rewriter : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.egress_port = 1;
      phv.ipv4->ecn = 3;
    }
    void on_egress(pisa::Phv& phv, EventContext&) override {
      phv.ipv4->ttl = static_cast<std::uint8_t>(phv.ipv4->ttl - 1);
    }
  } prog;
  sw.set_program(&prog);
  const std::uint8_t* sent_from = nullptr;
  std::vector<net::Packet> out;
  sw.connect_tx(1, [&](net::Packet p) {
    sent_from = p.bytes().data();
    out.push_back(std::move(p));
  });

  net::Packet in = test_packet();
  const std::uint8_t* arrived_in = in.bytes().data();
  sw.receive(0, std::move(in));
  sched.run(10'000);

  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sent_from, arrived_in);
  const auto ip = net::Ipv4Header::decode(out[0], net::EthernetHeader::kSize);
  EXPECT_EQ(ip.ecn, 3);
  EXPECT_TRUE(ip.checksum_ok());
}

/// Rewrites a program applies at the three single-output deparse sites:
/// ingress (then recirculate), the recirculation pass (then unicast to port
/// 1), and the egress pipeline.
struct SiteRewrites {
  const char* name;
  void (*ingress)(pisa::Phv&);
  void (*recirculate)(pisa::Phv&);
  void (*egress)(pisa::Phv&);
};

/// What the switch must transmit: the same rewrites applied between
/// copying deparses, one per site.
net::Packet expected_wire(const net::Packet& in, const SiteRewrites& r) {
  const pisa::Parser parser = pisa::Parser::standard();
  const pisa::Deparser deparser;
  net::Packet p(in);
  for (auto* rewrite : {r.ingress, r.recirculate, r.egress}) {
    pisa::Phv phv = parser.parse(std::move(p));
    rewrite(phv);
    p = deparser.deparse(phv);
  }
  return p;
}

TEST(EventSwitch, DeparseSitesEmitWhatTheCopyingDeparserDoes) {
  const SiteRewrites cases[] = {
      {"ecn-ttl",
       [](pisa::Phv& phv) { phv.ipv4->ttl = 9; },
       [](pisa::Phv& phv) { phv.ipv4->ecn = 3; },
       [](pisa::Phv& phv) {
         phv.ipv4->ttl = static_cast<std::uint8_t>(phv.ipv4->ttl - 1);
       }},
      {"vlan-push-then-pop",
       [](pisa::Phv& phv) {
         net::VlanHeader tag;
         tag.vid = 12;
         tag.ether_type = phv.eth->ether_type;
         phv.vlan = tag;
       },
       [](pisa::Phv& phv) { phv.vlan->pcp = 5; },
       [](pisa::Phv& phv) {
         phv.eth->ether_type = phv.vlan->ether_type;
         phv.vlan.reset();
       }},
      {"ndp-trim-at-egress",
       [](pisa::Phv&) {},
       [](pisa::Phv& phv) { phv.ipv4->dscp = 10; },
       [](pisa::Phv& phv) {
         phv.payload_offset = phv.packet.size();
         phv.ipv4->ecn = 3;
       }},
  };
  for (const SiteRewrites& c : cases) {
    SCOPED_TRACE(c.name);
    sim::Scheduler sched;
    EventSwitchConfig cfg = switch_cfg();
    cfg.egress_pipeline = true;
    EventSwitch sw(sched, cfg);
    class SiteProgram : public EventProgram {
     public:
      explicit SiteProgram(const SiteRewrites& r) : r_(r) {}
      void on_ingress(pisa::Phv& phv, EventContext&) override {
        r_.ingress(phv);
        phv.std_meta.recirculate = true;
      }
      void on_recirculate(pisa::Phv& phv, EventContext&) override {
        r_.recirculate(phv);
        phv.std_meta.egress_port = 1;
      }
      void on_egress(pisa::Phv& phv, EventContext&) override {
        r_.egress(phv);
      }

     private:
      const SiteRewrites& r_;
    } prog(c);
    sw.set_program(&prog);
    std::vector<net::Packet> out;
    sw.connect_tx(1, [&](net::Packet p) { out.push_back(std::move(p)); });

    const net::Packet in = test_packet(300);
    sw.receive(0, net::Packet(in));
    sched.run(10'000);

    ASSERT_EQ(out.size(), 1u);
    const net::Packet want = expected_wire(in, c);
    ASSERT_EQ(out[0].size(), want.size());
    EXPECT_TRUE(std::equal(out[0].bytes().begin(), out[0].bytes().end(),
                           want.bytes().begin()));
    EXPECT_EQ(sw.counters().recirculated, 1u);
  }
}

TEST(EventSwitch, MulticastUnknownGroupDrops) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  class McastProg : public EventProgram {
   public:
    void on_ingress(pisa::Phv& phv, EventContext&) override {
      phv.std_meta.mcast_group = 99;  // never configured
    }
  } prog;
  sw.set_program(&prog);
  sw.receive(0, test_packet());
  sched.run(1000);
  EXPECT_EQ(sw.counters().bad_port_drops, 1u);
  EXPECT_EQ(sw.counters().tx_packets, 0u);
}

TEST(EventSwitch, DescribeSummarizesActivity) {
  sim::Scheduler sched;
  EventSwitch sw(sched, switch_cfg());
  RecordingProgram prog(1);
  sw.set_program(&prog);
  sw.connect_tx(1, [](net::Packet) {});
  sw.receive(0, test_packet());
  sched.run(10'000);
  const std::string d = sw.describe();
  EXPECT_NE(d.find("event-driven"), std::string::npos);
  EXPECT_NE(d.find("rx=1"), std::string::npos);
  EXPECT_NE(d.find("BufferEnqueue"), std::string::npos);
}

// ---- baseline switch --------------------------------------------------------------------

TEST(BaselineSwitch, RefusesEventFacilities) {
  sim::Scheduler sched;
  BaselineSwitch bsw(sched, switch_cfg());
  RecordingProgram prog(1);
  bsw.set_program(&prog);

  EventContext& ctx = bsw.device();
  EXPECT_EQ(ctx.set_periodic_timer(sim::Time::micros(100), 0), 0u);
  EXPECT_EQ(ctx.set_oneshot_timer(sim::Time::micros(100), 0), 0u);
  EXPECT_EQ(ctx.add_generator(PacketGenerator::Config{}), 0u);
  EXPECT_FALSE(ctx.raise_user_event(UserEventData{}));
  EXPECT_FALSE(ctx.inject_packet(net::Packet(64)));
  EXPECT_FALSE(bsw.device().control_event(ControlEventData{}));
  EXPECT_EQ(bsw.counters().refused_ops, 6u);
}

TEST(BaselineSwitch, PacketEventsStillWork) {
  sim::Scheduler sched;
  BaselineSwitch bsw(sched, switch_cfg());
  RecordingProgram prog(1);
  bsw.set_program(&prog);
  int tx = 0;
  bsw.connect_tx(1, [&](net::Packet) { ++tx; });
  bsw.receive(0, test_packet());
  sched.run(10'000);
  EXPECT_EQ(prog.ingress, 1);
  EXPECT_EQ(tx, 1);
  // Buffer events happen in hardware but never reach the program.
  EXPECT_EQ(prog.enqueue, 0);
  EXPECT_EQ(prog.dequeue, 0);
  EXPECT_EQ(bsw.counters()
                .observed[static_cast<std::size_t>(EventKind::kEnqueue)],
            1u);
}

TEST(BaselineSwitch, ControlPlanePacketOutWorks) {
  sim::Scheduler sched;
  BaselineSwitch bsw(sched, switch_cfg());
  RecordingProgram prog(1);
  bsw.set_program(&prog);
  int tx = 0;
  bsw.connect_tx(1, [&](net::Packet) { ++tx; });
  bsw.inject_from_control_plane(test_packet());
  sched.run(10'000);
  EXPECT_EQ(prog.ingress, 1);
  EXPECT_EQ(tx, 1);
}

// ---- resource model ------------------------------------------------------------------------

TEST(ResourceModel, Table3ShapeHolds) {
  const auto cost = ResourceModel::event_logic(EventLogicParams{});
  const auto pct =
      ResourceModel::percent_of(cost, DeviceBudget::virtex7_690t());
  // Paper Table 3: LUT +0.5%, FF +0.4%, BRAM +2.0%. The model must land in
  // the same regime: all small, BRAM the largest.
  EXPECT_GT(pct.luts, 0.1);
  EXPECT_LT(pct.luts, 1.5);
  EXPECT_GT(pct.flip_flops, 0.1);
  EXPECT_LT(pct.flip_flops, 1.5);
  EXPECT_GT(pct.bram36, 1.0);
  EXPECT_LT(pct.bram36, 3.0);
  EXPECT_GT(pct.bram36, pct.luts);
  EXPECT_GT(pct.bram36, pct.flip_flops);
}

TEST(ResourceModel, BreakdownSumsToTotal) {
  const EventLogicParams p;
  const auto items = ResourceModel::event_logic_breakdown(p);
  ResourceVector sum;
  for (const auto& item : items) {
    sum = sum + item.cost;
  }
  const auto total = ResourceModel::event_logic(p);
  EXPECT_DOUBLE_EQ(sum.luts, total.luts);
  EXPECT_DOUBLE_EQ(sum.flip_flops, total.flip_flops);
  EXPECT_DOUBLE_EQ(sum.bram36, total.bram36);
  EXPECT_GE(items.size(), 5u);
}

TEST(ResourceModel, CostScalesWithFifoDepth) {
  EventLogicParams small;
  small.fifo_depth = 128;
  EventLogicParams big;
  big.fifo_depth = 4096;
  EXPECT_GT(ResourceModel::event_logic(big).bram36,
            ResourceModel::event_logic(small).bram36);
}

TEST(ResourceModel, FromConfigTracksMergerDepth) {
  EventSwitchConfig cfg;
  cfg.merger.event_fifo_depth = 2048;
  cfg.num_ports = 8;
  const auto p = EventLogicParams::from_config(cfg);
  EXPECT_EQ(p.fifo_depth, 2048u);
  EXPECT_EQ(p.num_ports, 8u);
}

}  // namespace
}  // namespace edp::core
