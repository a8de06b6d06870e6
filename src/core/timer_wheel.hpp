// edp::core — timer events (paper Table 1: Timer Expiration).
//
// Two layers:
//  * `TimingWheel` — a hierarchical timing wheel, the data structure a
//    hardware timer block implements: O(1) insert/cancel, expiry by slot
//    scan, timestamps quantized to the wheel resolution.
//  * `TimerBlock` — the switch-facing component: periodic and one-shot
//    timers whose expirations become TimerEventData records delivered to
//    the Event Merger. Driven lazily off the discrete-event scheduler (it
//    only wakes at the wheel's next expiry).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/event.hpp"
#include "sim/scheduler.hpp"

namespace edp::core {

using TimerId = std::uint32_t;

/// Hierarchical timing wheel: `kLevels` levels of `kSlots` slots each.
/// Level k covers kSlots^k..kSlots^(k+1) ticks of delay; entries cascade
/// down as time advances. All times are in integer ticks of the wheel
/// resolution (the owner converts from sim::Time).
class TimingWheel {
 public:
  static constexpr std::size_t kLevels = 4;
  static constexpr std::size_t kSlots = 256;  ///< per level; power of two

  struct Expired {
    TimerId id = 0;
    std::uint64_t cookie = 0;
    std::uint64_t fire_tick = 0;  ///< tick it was scheduled for
  };

  TimingWheel() = default;

  std::uint64_t now_tick() const { return now_; }

  /// Schedule `cookie` at absolute tick `fire_tick` (clamped to now+1 if in
  /// the past). Returns the timer id.
  TimerId add(std::uint64_t fire_tick, std::uint64_t cookie);

  /// Cancel a pending timer; false if unknown/already fired.
  bool cancel(TimerId id);

  /// Advance to `tick`, appending expired entries (in fire order) to `out`.
  void advance_to(std::uint64_t tick, std::vector<Expired>& out);

  /// A safe tick to jump to: the earliest tick at which something *may*
  /// expire (exact within level 0; conservative slot-boundary estimates at
  /// higher levels — advancing there cascades and the next call refines).
  /// nullopt if the wheel is empty.
  std::optional<std::uint64_t> next_expiry_hint() const;

  std::size_t pending() const { return live_; }

 private:
  struct Entry {
    std::uint64_t fire_tick;
    TimerId id;
    std::uint64_t cookie;
  };

  void place(Entry e);
  /// Level that covers a delay of `delta` ticks.
  static std::size_t level_for(std::uint64_t delta);

  std::uint64_t now_ = 0;
  std::vector<Entry> slots_[kLevels][kSlots];
  std::vector<Entry> cascade_scratch_;  ///< the slot being cascaded
  std::unordered_set<TimerId> cancelled_;
  std::size_t live_ = 0;
  TimerId next_id_ = 1;
};

/// The switch timer block: converts sim time to wheel ticks, supports
/// periodic + one-shot timers, fires `on_expire`.
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

  bool cancel(TimerId id);

  sim::Time resolution() const { return resolution_; }
  std::size_t pending() const { return wheel_.pending(); }
  std::uint64_t fired() const { return fired_; }

 private:
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

  /// (Re)arm the sim-scheduler wakeup at the wheel's next expiry.
  void arm();
  void wake();

  sim::Scheduler& sched_;
  sim::Time resolution_;
  TimingWheel wheel_;
  /// Public timer ids are stable across periodic re-arms; each maps to the
  /// currently pending wheel entry (whose cookie is the public id).
  struct TimerRec {
    std::uint64_t cookie = 0;
    sim::Time period = sim::Time::zero();  ///< zero => one-shot
    TimerId wheel_id = 0;
  };
  std::unordered_map<TimerId, TimerRec> timers_;
  TimerId next_pub_id_ = 1;
  sim::EventId wakeup_ = 0;
  bool wakeup_armed_ = false;
  std::uint64_t fired_ = 0;
  /// Reused by wake() so per-wake expiry collection does not allocate.
  std::vector<TimingWheel::Expired> expired_scratch_;
  /// Coalesced same-wake delivery burst for on_expire (capacity retained
  /// across wakes).
  std::vector<TimerEventData> delivery_scratch_;
};

}  // namespace edp::core
