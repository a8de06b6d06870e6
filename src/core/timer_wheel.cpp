#include "core/timer_wheel.hpp"

#include <algorithm>
#include <cassert>

namespace edp::core {

// ---- TimingWheel ------------------------------------------------------------

std::size_t TimingWheel::level_for(std::uint64_t delta) {
  std::uint64_t span = kSlots;
  for (std::size_t level = 0; level < kLevels - 1; ++level) {
    if (delta < span) {
      return level;
    }
    span *= kSlots;
  }
  return kLevels - 1;
}

void TimingWheel::place(Entry e) {
  const std::uint64_t delta = e.fire_tick > now_ ? e.fire_tick - now_ : 1;
  const std::size_t level = level_for(delta);
  // Slot index within the level: the fire tick divided by the level's slot
  // width, modulo the wheel size.
  std::uint64_t width = 1;
  for (std::size_t l = 0; l < level; ++l) {
    width *= kSlots;
  }
  const std::size_t slot =
      static_cast<std::size_t>((e.fire_tick / width) % kSlots);
  slots_[level][slot].push_back(e);
}

TimerId TimingWheel::add(std::uint64_t fire_tick, std::uint64_t cookie) {
  if (fire_tick <= now_) {
    fire_tick = now_ + 1;
  }
  const TimerId id = next_id_++;
  place(Entry{fire_tick, id, cookie});
  ++live_;
  return id;
}

bool TimingWheel::cancel(TimerId id) {
  if (id == 0 || id >= next_id_) {
    return false;
  }
  if (cancelled_.insert(id).second) {
    // live_ is decremented when the entry is actually discarded during
    // advance; pending() should reflect the cancel immediately though.
    --live_;
    return true;
  }
  return false;
}

void TimingWheel::advance_to(std::uint64_t tick, std::vector<Expired>& out) {
  while (now_ < tick) {
    ++now_;
    const std::size_t slot0 = static_cast<std::size_t>(now_ % kSlots);
    // Cascade: when a level-0 lap completes, redistribute the next slot of
    // each coarser level whose boundary we crossed.
    if (slot0 == 0) {
      std::uint64_t width = kSlots;
      for (std::size_t level = 1; level < kLevels; ++level) {
        const std::size_t slot =
            static_cast<std::size_t>((now_ / width) % kSlots);
        // Swap the slot with the (empty) scratch instead of moving it out:
        // the slot keeps a storage, so the next re-arm into it does not
        // allocate.
        cascade_scratch_.clear();
        cascade_scratch_.swap(slots_[level][slot]);
        for (const Entry& e : cascade_scratch_) {
          if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
            cancelled_.erase(it);
            continue;
          }
          place(e);
        }
        if (slot != 0) {
          break;  // only cascade levels whose boundary was crossed
        }
        width *= kSlots;
      }
    }
    auto& bucket = slots_[0][slot0];
    if (bucket.empty()) {
      continue;
    }
    // Entries in a level-0 slot may belong to future laps of the wheel.
    auto keep_end = std::partition(
        bucket.begin(), bucket.end(),
        [this](const Entry& e) { return e.fire_tick > now_; });
    for (auto it = keep_end; it != bucket.end(); ++it) {
      if (auto c = cancelled_.find(it->id); c != cancelled_.end()) {
        cancelled_.erase(c);
        continue;
      }
      out.push_back(Expired{it->id, it->cookie, it->fire_tick});
      --live_;
    }
    bucket.erase(keep_end, bucket.end());
  }
}

std::optional<std::uint64_t> TimingWheel::next_expiry_hint() const {
  if (live_ == 0) {
    return std::nullopt;
  }
  // Exact scan of level 0 (one lap ahead).
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 1; i <= kSlots; ++i) {
    const std::uint64_t t = now_ + i;
    const auto& bucket = slots_[0][static_cast<std::size_t>(t % kSlots)];
    for (const auto& e : bucket) {
      if (e.fire_tick == t && !cancelled_.contains(e.id)) {
        best = std::min(best, t);
      }
    }
    if (best != UINT64_MAX) {
      return best;
    }
  }
  // Nothing in level 0's next lap: conservative hint = next level-0 lap
  // boundary, where cascading will refine the estimate.
  return (now_ / kSlots + 1) * kSlots;
}

// ---- TimerBlock -------------------------------------------------------------

TimerBlock::TimerBlock(sim::Scheduler& sched, sim::Time resolution)
    : sched_(sched), resolution_(resolution) {
  assert(resolution_ > sim::Time::zero());
}

TimerId TimerBlock::set_periodic(sim::Time period, std::uint64_t cookie) {
  assert(period >= resolution_ && "period below timer resolution");
  const TimerId pub = next_pub_id_++;
  const TimerId wheel_id = wheel_.add(to_tick_ceil(sched_.now() + period), pub);
  timers_.emplace(pub, TimerRec{cookie, period, wheel_id});
  arm();
  return pub;
}

TimerId TimerBlock::set_oneshot(sim::Time delay, std::uint64_t cookie) {
  const TimerId pub = next_pub_id_++;
  const TimerId wheel_id = wheel_.add(to_tick_ceil(sched_.now() + delay), pub);
  timers_.emplace(pub, TimerRec{cookie, sim::Time::zero(), wheel_id});
  arm();
  return pub;
}

bool TimerBlock::cancel(TimerId id) {
  const auto it = timers_.find(id);
  if (it == timers_.end()) {
    return false;
  }
  wheel_.cancel(it->second.wheel_id);
  timers_.erase(it);
  return true;
}

void TimerBlock::arm() {
  const auto hint = wheel_.next_expiry_hint();
  if (!hint) {
    if (wakeup_armed_) {
      sched_.cancel(wakeup_);
      wakeup_armed_ = false;
    }
    return;
  }
  const sim::Time when = from_tick(*hint);
  if (wakeup_armed_) {
    sched_.cancel(wakeup_);
  }
  const sim::Time target = std::max(when, sched_.now());
  wakeup_ = sched_.at(target, [this] { wake(); });
  wakeup_armed_ = true;
}

void TimerBlock::wake() {
  wakeup_armed_ = false;
  std::vector<TimingWheel::Expired>& expired = expired_scratch_;
  expired.clear();  // capacity retained: wakes allocate only at high-water
  wheel_.advance_to(to_tick(sched_.now()), expired);
  delivery_scratch_.clear();
  for (const auto& e : expired) {
    // Wheel cookies hold the public id; resolve to the timer record.
    const TimerId pub = static_cast<TimerId>(e.cookie);
    const auto it = timers_.find(pub);
    if (it == timers_.end()) {
      continue;  // cancelled between expiry and delivery
    }
    ++fired_;
    TimerEventData data;
    data.timer_id = pub;
    data.cookie = it->second.cookie;
    data.scheduled_for = from_tick(e.fire_tick);
    data.fired_at = sched_.now();
    if (it->second.period > sim::Time::zero()) {
      // Periodic: re-arm from the scheduled time (not the fire time) so
      // the long-run rate is exactly 1/period despite quantization.
      it->second.wheel_id =
          wheel_.add(to_tick_ceil(data.scheduled_for + it->second.period), pub);
    } else {
      timers_.erase(it);
    }
    delivery_scratch_.push_back(data);
  }
  // Coalesced hand-off: same-wake expirations reach the consumer as one
  // burst (one merger submit_events call on the switch) instead of one
  // delivery per timer.
  if (on_expire && !delivery_scratch_.empty()) {
    on_expire(delivery_scratch_.data(), delivery_scratch_.size());
  }
  arm();
}

}  // namespace edp::core
