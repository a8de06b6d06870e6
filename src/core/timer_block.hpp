// edp::core — timer events (paper Table 1: Timer Expiration).
//
// `TimerBlock` is the switch-facing timer source: periodic and one-shot
// timers whose expirations become TimerEventData records delivered to the
// Event Merger. Expirations are quantized to the block's resolution. The
// pending timers live in one small min-heap keyed by (fire tick, arm
// order), and the block keeps a single scheduler wakeup armed at the
// earliest tick, so it runs only when something expires.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/event.hpp"
#include "sim/scheduler.hpp"

namespace edp::core {

using TimerId = std::uint32_t;

class TimerBlock {
 public:
  TimerBlock(sim::Scheduler& sched, sim::Time resolution);

  /// One call per wake carrying every expiration of that wake in fire
  /// order (periodic timers re-arm automatically); the switch forwards
  /// each call to the event merger as one submission. Delivery happens
  /// after the whole burst's bookkeeping (periodic re-arms, one-shot
  /// removal), so handlers must not assume they can cancel a timer that
  /// expired in the same burst — the switch's merger hand-off never does.
  std::function<void(const TimerEventData*, std::size_t)> on_expire;  // hotpath-ok: installed once

  /// Periodic timer with program cookie; first fire one period from now.
  TimerId set_periodic(sim::Time period, std::uint64_t cookie = 0);

  /// One-shot timer.
  TimerId set_oneshot(sim::Time delay, std::uint64_t cookie = 0);

  /// Cancel a pending timer by the id set_* returned; false if unknown or
  /// already gone. Ids stay stable across periodic re-arms.
  bool cancel(TimerId id);

  sim::Time resolution() const { return resolution_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t fired() const { return fired_; }

 private:
  struct Timer {
    std::uint64_t fire_tick;
    std::uint64_t seq;  ///< arm order: breaks ties within one tick
    TimerId id;
    std::uint64_t cookie;
    sim::Time period;  ///< zero => one-shot
  };
  /// Heap order: std::*_heap keep the max on top, so "later" is "less".
  static bool later(const Timer& a, const Timer& b) {
    return a.fire_tick != b.fire_tick ? a.fire_tick > b.fire_tick
                                      : a.seq > b.seq;
  }

  std::uint64_t to_tick(sim::Time t) const {
    return static_cast<std::uint64_t>(t.ps() / resolution_.ps());
  }
  /// For scheduling targets: round UP so timers never fire early.
  std::uint64_t to_tick_ceil(sim::Time t) const {
    return static_cast<std::uint64_t>(
        (t.ps() + resolution_.ps() - 1) / resolution_.ps());
  }
  sim::Time from_tick(std::uint64_t tick) const {
    return sim::Time(static_cast<std::int64_t>(tick) * resolution_.ps());
  }

  TimerId add(sim::Time when, std::uint64_t cookie, sim::Time period);
  /// Push `t` due at `when` (clamped past the last wake tick).
  void push(Timer t, sim::Time when);
  /// Keep the scheduler wakeup on the heap's earliest tick.
  void arm();
  void wake();

  sim::Scheduler& sched_;
  sim::Time resolution_;
  std::vector<Timer> heap_;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
  std::uint64_t last_tick_ = 0;  ///< tick of the latest wake
  sim::EventId wakeup_ = 0;
  bool wakeup_armed_ = false;
  std::uint64_t wakeup_tick_ = 0;  ///< valid while wakeup_armed_
  std::uint64_t fired_ = 0;
  /// Coalesced same-wake delivery burst for on_expire (capacity retained
  /// across wakes).
  std::vector<TimerEventData> delivery_scratch_;
};

}  // namespace edp::core
