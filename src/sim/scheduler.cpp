#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace edp::sim {

namespace {
// Pre-sizing the slot/queue vectors puts the kernel in its zero-allocation
// steady state immediately for all but the largest event populations.
constexpr std::size_t kInitialCapacity = 1024;

/// Inverted order for the same-tick min-heap (std::push_heap builds
/// max-heaps).
struct EntryLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return entry_earlier(b, a);
  }
};
}  // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : use_wheel_(opts.use_wheel) {
  heap_.reserve(kInitialCapacity);
  burst_scratch_.reserve(kInitialCapacity);
  sametick_scratch_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

std::uint32_t Scheduler::mint_slot(InlineCallback fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  assert(!s.live);
  s.fn = std::move(fn);
  s.live = true;
  ++live_count_;
  return slot;
}

void Scheduler::queue_push(const QueueEntry& e) {
  if (use_wheel_) {
    const std::uint64_t tick = wheel_.tick_of(e.when);
    if (wheel_.covers(tick)) {
      wheel_.insert(tick, e);
      return;
    }
  }
  heap_push(e);
}

EventId Scheduler::at(Time when, InlineCallback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = mint_slot(std::move(fn));
  const std::uint32_t gen = slots_[slot].gen;
  queue_push(QueueEntry{when, next_seq_++, slot, gen});
  return make_id(gen, slot);
}

EventId Scheduler::after(Time delay, InlineCallback fn) {
  assert(delay >= Time::zero());
  return at(now_ + delay, std::move(fn));
}

void Scheduler::at_batch(BatchItem* items, std::size_t n) {
  // Sequence numbers are minted in array order, so the burst interleaves
  // with at() calls exactly as the equivalent loop of singles would.
  for (std::size_t i = 0; i < n; ++i) {
    at(items[i].when, std::move(items[i].fn));
  }
}

bool Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  // Only genuinely pending callbacks can be cancelled; fired, unknown, and
  // doubly-cancelled ids all fail the generation/liveness check.
  if (!s.live || s.gen != gen) {
    return false;
  }
  s.fn.reset();
  s.live = false;
  s.gen = next_gen(s.gen);  // orphans the queue entry; discarded at fire time
  free_slots_.push_back(slot);
  --live_count_;
  return true;
}

std::size_t Scheduler::cancel_batch(const EventId* ids, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::uint32_t>(ids[i] & 0xffffffffu);
    if (slot < slots_.size()) {
      __builtin_prefetch(&slots_[slot], 1, 1);
    }
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cancelled += cancel(ids[i]) ? 1 : 0;
  }
  return cancelled;
}

void Scheduler::heap_push(QueueEntry item) {
  heap_.push_back(item);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry_earlier(heap_[i], heap_[parent])) {
      break;
    }
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

QueueEntry Scheduler::heap_pop() {
  assert(!heap_.empty());
  const QueueEntry top = heap_[0];
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root. 4-ary: children of i are 4i+1..4i+4.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      const std::size_t limit = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < limit; ++c) {
        if (entry_earlier(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!entry_earlier(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Scheduler::advance_cursor(std::uint64_t tick) {
  if (!use_wheel_ || tick <= wheel_.cursor()) {
    return;
  }
  wheel_.set_cursor(tick);
  // Cascade: the heap is ordered by (when, seq), so its tick-order prefix
  // holds exactly the entries that have come within the wheel horizon.
  while (!heap_.empty() && wheel_.covers(wheel_.tick_of(heap_[0].when))) {
    const QueueEntry e = heap_pop();
    wheel_.insert(wheel_.tick_of(e.when), e);
  }
}

std::size_t Scheduler::fire_tick(std::uint64_t t0, const Time* deadline,
                                 bool& stopped) {
  std::vector<QueueEntry>& burst = burst_scratch_;
  burst.clear();
  // Drain BOTH tiers at t0. Normally the wheel alone holds this tick, but
  // after an all-stale drain the cursor can sit past tick(now_); entries
  // scheduled into that gap live below the cursor and are stored in the
  // heap (covers() rejects them), so the heap prefix must be merged too.
  if (use_wheel_ && wheel_.covers(t0) && wheel_.bucket_nonempty(t0)) {
    wheel_.take_bucket(t0, burst);
  }
  while (!heap_.empty() && wheel_.tick_of(heap_[0].when) == t0) {
    burst.push_back(heap_pop());
  }
  // Drop already-cancelled entries before sorting: stale-now is stale
  // forever (generations only move forward), so this cannot drop anything
  // the fire loop would have run, and under mod_timer-style reset churn
  // most of a bucket can be stale. Prefetch ahead: each check touches a
  // cold slot line.
  {
    std::size_t w = 0;
    for (std::size_t r = 0; r < burst.size(); ++r) {
      if (r + 8 < burst.size()) {
        __builtin_prefetch(&slots_[burst[r + 8].slot], 0, 1);
      }
      const Slot& s = slots_[burst[r].slot];
      if (s.live && s.gen == burst[r].gen) {
        burst[w++] = burst[r];
      }
    }
    burst.resize(w);
  }
  if (burst.size() > 1) {
    std::sort(burst.begin(), burst.end(), EntryEarlier{});
  }
  ++bursts_;

  // Same-tick arrivals (a callback scheduling < one tick ahead — the merger
  // pump does this constantly) go into a small min-heap instead of forcing
  // a re-sort of the remaining burst after every callback. Each step fires
  // min(burst[i], sametick.top()), which is exactly the (when, seq) total
  // order the one-at-a-time heap would have produced.
  std::vector<QueueEntry>& st = sametick_scratch_;
  assert(st.empty());
  const EntryLater st_later;

  // burst_next_ is a member so try_advance() can look past the callback
  // that is running; it only ever skips entries this loop would skip.
  std::size_t& i = burst_next_;
  i = 0;
  std::size_t n_fired = 0;
  stopped = false;
  for (;;) {
    const bool from_st =
        !st.empty() && (i >= burst.size() || entry_earlier(st[0], burst[i]));
    if (!from_st && i >= burst.size()) {
      break;
    }
    const QueueEntry e = from_st ? st[0] : burst[i];
    Slot& s = slots_[e.slot];
    if (!s.live || s.gen != e.gen) {
      // Cancelled mid-burst: the slot moved on to a newer generation.
      if (from_st) {
        std::pop_heap(st.begin(), st.end(), st_later);
        st.pop_back();
      } else {
        ++i;
      }
      continue;
    }
    if ((deadline != nullptr && e.when > *deadline) || work_left_ == 0) {
      // Deadline or budget cuts the burst mid-tick: re-queue the unfired
      // remainder (still pending, untouched) and let the caller resume.
      for (std::size_t j = i; j < burst.size(); ++j) {
        queue_push(burst[j]);
      }
      for (const QueueEntry& q : st) {
        queue_push(q);
      }
      st.clear();
      stopped = true;
      break;
    }
    if (from_st) {
      std::pop_heap(st.begin(), st.end(), st_later);
      st.pop_back();
    } else {
      ++i;
    }
    if (i + 8 < burst.size()) {
      // The slot was minted thousands of events ago and is cold by now;
      // hide the miss behind the current callback's work.
      __builtin_prefetch(&slots_[burst[i + 8].slot], 1, 1);
    }
    // Retire the slot *before* invoking, so the callback observes its own
    // id as already fired: cancel(own_id) from within is a detected no-op.
    // The closure runs in place (no relocation); the slot joins the free
    // list only after it returns, so a reschedule can never overwrite the
    // closure while it is still executing.
    s.live = false;
    s.gen = next_gen(s.gen);
    --live_count_;
    assert(e.when >= now_);
    now_ = e.when;
    ++executed_;
    ++n_fired;
    --work_left_;
    firing_ = true;
    s.fn();
    firing_ = false;
    // Re-index: the callback may have scheduled events and grown slots_.
    slots_[e.slot].fn.reset();
    free_slots_.push_back(e.slot);
    // Entries the callback scheduled into this same tick carry when >= now()
    // and fresher seqs; drain them into the same-tick heap.
    if (use_wheel_ && wheel_.covers(t0) && wheel_.bucket_nonempty(t0)) {
      const std::size_t before = st.size();
      wheel_.take_bucket(t0, st);
      for (std::size_t k = before; k < st.size(); ++k) {
        std::push_heap(st.begin(),
                       st.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                       st_later);
      }
    }
    while (!heap_.empty() && wheel_.tick_of(heap_[0].when) == t0) {
      st.push_back(heap_pop());
      std::push_heap(st.begin(), st.end(), st_later);
    }
  }
  return n_fired;
}

bool Scheduler::live_entry_due_by(Time t) {
  const auto live = [this](const QueueEntry& e) {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  };
  // The rest of the burst is sorted: its first live entry is its earliest.
  const std::vector<QueueEntry>& burst = burst_scratch_;
  while (burst_next_ < burst.size() && !live(burst[burst_next_])) {
    ++burst_next_;
  }
  if (burst_next_ < burst.size() && burst[burst_next_].when <= t) {
    return true;
  }
  std::vector<QueueEntry>& st = sametick_scratch_;
  while (!st.empty() && !live(st[0])) {
    std::pop_heap(st.begin(), st.end(), EntryLater{});
    st.pop_back();
  }
  if (!st.empty() && st[0].when <= t) {
    return true;
  }
  // Wheel buckets from the cursor through t's tick — including the current
  // tick's bucket, where entries this callback minted wait until it returns.
  // Buckets are unsorted, so each occupied one is scanned.
  if (use_wheel_ && wheel_.count() > 0) {
    const std::uint64_t hi = wheel_.tick_of(t);
    for (std::optional<std::uint64_t> tick =
             wheel_.first_occupied_in(wheel_.cursor(), hi);
         tick;
         tick = *tick < hi ? wheel_.first_occupied_in(*tick + 1, hi)
                           : std::nullopt) {
      bool due = false;
      wheel_.visit_bucket(*tick, [&](const QueueEntry& e) {
        due = due || (e.when <= t && live(e));
      });
      if (due) {
        return true;
      }
    }
  }
  while (!heap_.empty() && !live(heap_[0])) {
    heap_pop();
  }
  return !heap_.empty() && heap_[0].when <= t;
}

bool Scheduler::try_advance(Time t) {
  if (!firing_ || work_left_ == 0 || t < now_ ||
      (has_deadline_ && t > deadline_) || live_entry_due_by(t)) {
    return false;
  }
  --work_left_;
  now_ = t;
  return true;
}

std::size_t Scheduler::run_core(const Time* deadline, std::size_t max_events) {
  has_deadline_ = deadline != nullptr;
  if (has_deadline_) {
    deadline_ = *deadline;
  }
  work_left_ = max_events;
  std::size_t fired = 0;
  const std::uint64_t target_tick =
      deadline != nullptr ? wheel_.tick_of(*deadline) : 0;
  while (work_left_ > 0) {
    // Take the min tick across both tiers. Heap ticks are normally
    // >= cursor + kSlots, making the wheel candidate win, but entries
    // scheduled below the cursor (see fire_tick) sit in the heap and can
    // be earlier than anything the wheel holds.
    std::uint64_t t0;
    bool have = false;
    if (use_wheel_ && wheel_.count() > 0) {
      t0 = *wheel_.next_occupied_tick();
      have = true;
    }
    if (!heap_.empty()) {
      const std::uint64_t ht = wheel_.tick_of(heap_[0].when);
      if (!have || ht < t0) {
        t0 = ht;
        have = true;
      }
    }
    if (!have) {
      break;
    }
    if (deadline != nullptr && t0 > target_tick) {
      break;
    }
    advance_cursor(t0);
    bool stopped = false;
    fired += fire_tick(t0, deadline, stopped);
    if (stopped) {
      break;
    }
  }
  if (deadline != nullptr) {
    if (now_ < *deadline) {
      now_ = *deadline;
    }
    advance_cursor(target_tick);
  }
  return fired;
}

std::size_t Scheduler::run_until(Time deadline) {
  return run_core(&deadline, SIZE_MAX);
}

std::size_t Scheduler::run(std::size_t max_events) {
  return run_core(nullptr, max_events);
}

std::optional<Time> Scheduler::next_event_time() {
  std::optional<Time> earliest;
  if (use_wheel_) {
    while (wheel_.count() > 0) {
      const std::uint64_t t = *wheel_.next_occupied_tick();
      bool found = false;
      QueueEntry best{};
      wheel_.visit_bucket(t, [&](const QueueEntry& e) {
        const Slot& s = slots_[e.slot];
        if (s.live && s.gen == e.gen && (!found || entry_earlier(e, best))) {
          best = e;
          found = true;
        }
      });
      if (found) {
        earliest = best.when;
        break;
      }
      wheel_.clear_bucket(t);  // wholly stale: collect and keep looking
    }
  }
  // The heap can hold entries earlier than the wheel's (below-cursor ticks,
  // see fire_tick), so always consult it as well and keep the minimum.
  while (!heap_.empty()) {
    const QueueEntry& top = heap_[0];
    const Slot& s = slots_[top.slot];
    if (!s.live || s.gen != top.gen) {
      heap_pop();  // stale: collect and keep looking
      continue;
    }
    if (!earliest.has_value() || top.when < *earliest) {
      earliest = top.when;
    }
    break;
  }
  return earliest;
}

PeriodicTask::PeriodicTask(Scheduler& sched, Time period,
                           std::function<void()> fn)  // hotpath-ok: setup only
    : sched_(sched), period_(period), fn_(std::move(fn)) {
  assert(period_ > Time::zero());
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() { start_at(sched_.now() + period_); }

void PeriodicTask::start_at(Time t) {
  stop();
  running_ = true;
  pending_ = sched_.at(t, [this] { fire(); });
}

void PeriodicTask::stop() {
  if (running_) {
    sched_.cancel(pending_);
    running_ = false;
    pending_ = 0;
  }
}

void PeriodicTask::fire() {
  // Reschedule before invoking so `fn_` may call stop() to end the loop.
  pending_ = sched_.after(period_, [this] { fire(); });
  fn_();
}

}  // namespace edp::sim
