#include "core/timer_block.hpp"

#include <algorithm>
#include <cassert>

namespace edp::core {

TimerBlock::TimerBlock(sim::Scheduler& sched, sim::Time resolution)
    : sched_(sched), resolution_(resolution) {
  assert(resolution_ > sim::Time::zero());
}

TimerId TimerBlock::set_periodic(sim::Time period, std::uint64_t cookie) {
  assert(period >= resolution_ && "period below timer resolution");
  return add(sched_.now() + period, cookie, period);
}

TimerId TimerBlock::set_oneshot(sim::Time delay, std::uint64_t cookie) {
  return add(sched_.now() + delay, cookie, sim::Time::zero());
}

TimerId TimerBlock::add(sim::Time when, std::uint64_t cookie,
                        sim::Time period) {
  const TimerId id = next_id_++;
  push(Timer{0, 0, id, cookie, period}, when);
  arm();
  return id;
}

void TimerBlock::push(Timer t, sim::Time when) {
  // Round up so a timer never fires early; a tick the block has already
  // woken for is past, so it moves to the next one.
  t.fire_tick = std::max(to_tick_ceil(when), last_tick_ + 1);
  t.seq = next_seq_++;
  heap_.push_back(t);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

bool TimerBlock::cancel(TimerId id) {
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Timer& t) { return t.id == id; });
  if (it == heap_.end()) {
    return false;
  }
  *it = heap_.back();
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), later);
  arm();
  return true;
}

void TimerBlock::arm() {
  if (heap_.empty()) {
    if (wakeup_armed_) {
      sched_.cancel(wakeup_);
      wakeup_armed_ = false;
    }
    return;
  }
  const std::uint64_t tick = heap_.front().fire_tick;
  if (wakeup_armed_) {
    if (tick == wakeup_tick_) {
      return;
    }
    sched_.cancel(wakeup_);
  }
  wakeup_ = sched_.at(std::max(from_tick(tick), sched_.now()),
                      [this] { wake(); });
  wakeup_tick_ = tick;
  wakeup_armed_ = true;
}

void TimerBlock::wake() {
  wakeup_armed_ = false;
  last_tick_ = to_tick(sched_.now());
  delivery_scratch_.clear();
  // A burst holds at most every pending timer: sizing it to the heap means
  // only arming more timers grows it, never a larger coincidence of ticks.
  delivery_scratch_.reserve(heap_.size());
  while (!heap_.empty() && heap_.front().fire_tick <= last_tick_) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Timer t = heap_.back();
    heap_.pop_back();
    ++fired_;
    TimerEventData data;
    data.timer_id = t.id;
    data.cookie = t.cookie;
    data.scheduled_for = from_tick(t.fire_tick);
    data.fired_at = sched_.now();
    delivery_scratch_.push_back(data);
    if (t.period > sim::Time::zero()) {
      // Periodic: re-arm from the scheduled time (not the fire time) so
      // the long-run rate is exactly 1/period despite quantization. The
      // new tick is past last_tick_, so this loop does not pop it again.
      push(t, data.scheduled_for + t.period);
    }
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
