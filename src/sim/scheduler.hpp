// edp::sim — deterministic discrete-event scheduler.
//
// The simulation kernel: a two-tier pending queue — a timing wheel for the
// near horizon plus a 4-ary min-heap of (time, sequence) keys as far-future
// overflow — over generation-tagged callback slots. The sequence number
// makes ordering total and deterministic: two events scheduled for the same
// instant fire in scheduling order, which is what makes whole-network runs
// bit-reproducible for a given seed.
//
// Hot-path design (docs/PERFORMANCE.md):
//  * Callbacks live in InlineCallback slots — fixed inline storage, no heap
//    fallback — so scheduling an event never allocates once the slot and
//    queue vectors have reached their high-water capacity.
//  * An EventId is (generation << 32) | slot index. cancel() is two array
//    reads and a generation bump — O(1), no hashing — and stale queue
//    entries are discarded lazily when they surface in a fire burst, by
//    comparing their recorded generation against the slot's current one.
//  * Near-horizon entries (within ~2.1 ms of the cursor) sit in a flat
//    timing wheel (sim/wheel.hpp): O(1) insert and expire, so dense
//    periodic timers no longer pay O(log n) each. The heap takes the far
//    future and cascades into the wheel as the cursor advances.
//  * Events fire in per-tick bursts: each occupied wheel bucket is drained
//    into a POD scratch vector, sorted by (when, seq), and fired in place —
//    exactly the heap's total order, so determinism digests are unchanged.
//  * The overflow heap is 4-ary over a contiguous vector: ~half the depth
//    of a binary heap, with all four children of a node in one cache line.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace edp::sim {

/// Handle to a scheduled callback; used to cancel it. Packs
/// (generation << 32) | slot. Generations start at 1 and skip 0 on
/// wraparound, so 0 is never a valid id (callers use it as "none").
using EventId = std::uint64_t;

/// Kernel options, set per instance. The wheel tier changes only the data
/// structure holding pending entries, never the fire order, so both
/// configurations produce bit-identical runs — use_wheel=false is the
/// heap-only reference for differential tests and for benchmarking the
/// wheel win (bench_sched_throughput's timer_storm).
struct SchedulerOptions {
  bool use_wheel = true;
};

/// Discrete-event scheduler. Single-threaded by design: network simulation
/// correctness comes from the global time order, not concurrency.
class Scheduler {
 public:
  /// One burst element for at_batch()/inject_batch().
  struct BatchItem {
    Time when;
    InlineCallback fn;
  };

  explicit Scheduler(SchedulerOptions opts = {});

  // The scheduler owns pending closures that may capture references to it;
  // moving it would dangle them.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must be >= now()).
  EventId at(Time when, InlineCallback fn);

  /// Schedule `fn` after a relative delay (>= 0).
  EventId after(Time delay, InlineCallback fn);

  /// Bulk-insert a burst of entries in one call: slots are minted and
  /// sequence numbers assigned in array order, so the burst is totally
  /// ordered exactly as the equivalent at() loop would be. Items' callbacks
  /// are consumed (moved from). Wheel-tier entries are O(1) each.
  void at_batch(BatchItem* items, std::size_t n);

  /// External event injection (runtime/ cross-shard deliveries): identical
  /// to at(), but documents the contract — the caller must be externally
  /// synchronized with this scheduler (the shard barrier guarantees the
  /// owning worker is parked), and `when` may equal now() exactly, in which
  /// case the callback fires in the *next* execution window.
  EventId inject(Time when, InlineCallback fn) {
    return at(when, std::move(fn));
  }

  /// Batched inject: one call per drained cross-shard ring burst.
  void inject_batch(BatchItem* items, std::size_t n) { at_batch(items, n); }

  /// Cancel a pending callback: O(1). Cancelling an already-fired or
  /// unknown id is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// Cancel a burst of ids; returns how many were genuinely pending.
  /// Equivalent to calling cancel() in array order, but prefetches every
  /// target slot first so the (cold) slot-line misses overlap instead of
  /// serializing — the mod_timer reset pattern cancels in dense batches.
  std::size_t cancel_batch(const EventId* ids, std::size_t n);

  /// Inline continuation, callable only from inside a firing callback:
  /// moves now() to `t` and returns true iff the callback may run, in
  /// place, work that it would otherwise schedule at `t` — that is, iff no
  /// live entry is due at or before `t` anywhere (the rest of the current
  /// burst, its same-tick arrivals, entries this callback minted, the
  /// wheel, the heap) and `t` lies within the running run_until()
  /// deadline. A callback scheduled at `t` now would carry the newest
  /// sequence number, so under exactly those conditions it would be the
  /// next to fire: running it inline keeps the (time, seq) order. Returns
  /// false (now() unchanged) otherwise, outside a callback, for t < now(),
  /// or once the running run()'s max_events budget is spent (a granted
  /// advance counts against it, so inline work that keeps re-arming itself
  /// stays bounded). The answer depends only on the pending set, so it is the same
  /// with use_wheel=false. Work run this way is not a callback: executed()
  /// does not count it. The caller must do nothing after the inline work
  /// that assumes the old now().
  bool try_advance(Time t);

  /// Run every event with time <= `deadline`; leaves now() == deadline.
  /// Returns the number of callbacks executed (bounded-horizon execution:
  /// the parallel runtime calls this once per conservative time window).
  std::size_t run_until(Time deadline);

  /// Earliest pending (uncancelled) event time, or nullopt when drained.
  /// Lazily discards cancelled entries it has to step over.
  std::optional<Time> next_event_time();

  /// Run until the queue drains (or `max_events` units of work are done, as
  /// a runaway guard: each callback and each inline continuation that
  /// try_advance() grants is one unit). Returns the number of callbacks
  /// executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// True if no pending (uncancelled) events remain.
  bool empty() const { return live_count_ == 0; }

  /// Number of pending events. Exact: cancelled events leave this count
  /// immediately, not when their queue entry is lazily collected.
  std::size_t pending() const { return live_count_; }

  /// Total callbacks executed since construction (diagnostics). Work run
  /// inline through try_advance() is not a callback and is not counted.
  std::uint64_t executed() const { return executed_; }

  /// Fire-burst diagnostics: bursts() counts per-tick drain cycles;
  /// executed()/bursts() is the average burst size.
  std::uint64_t bursts() const { return bursts_; }

  /// Entries currently parked in the wheel tier (diagnostics).
  std::size_t wheel_entries() const { return wheel_.count(); }

 private:
  friend class SchedulerTestPeer;  // tests force generation wraparound

  /// A callback slot, reused across events. `gen` tags the current
  /// occupancy: an EventId or queue entry minted for an earlier occupancy
  /// carries a stale generation and is recognisably dead in O(1).
  struct Slot {
    // Liveness check, dispatch pointer, and the first bytes of a small
    // closure all land in the slot's first cache line (fire touches the
    // slot cold — it was minted thousands of events earlier).
    std::uint32_t gen = 1;
    bool live = false;
    InlineCallback fn;
  };

  static std::uint32_t next_gen(std::uint32_t g) {
    ++g;
    return g == 0 ? 1 : g;  // skip 0 so an EventId is never 0
  }
  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t mint_slot(InlineCallback fn);

  /// Route an entry to the wheel (near horizon) or the heap (far future).
  void queue_push(const QueueEntry& e);

  void heap_push(QueueEntry item);
  QueueEntry heap_pop();

  /// Move the wheel cursor to `tick` and cascade heap entries whose tick
  /// has come within the horizon into the wheel. No-op in heap-only mode.
  void advance_cursor(std::uint64_t tick);

  /// Drain tick `t0`'s entries into the scratch burst and fire them in
  /// (when, seq) order, merging in same-tick entries scheduled by the
  /// callbacks themselves. Respects `deadline` (events strictly after it
  /// are re-queued) and the run's work budget; sets `stopped` when either
  /// cut the burst.
  std::size_t fire_tick(std::uint64_t t0, const Time* deadline,
                        bool& stopped);

  /// Shared engine behind run()/run_until().
  std::size_t run_core(const Time* deadline, std::size_t max_events);

  /// True iff a live entry is due at or before `t` (try_advance's test).
  /// Collects stale entries it steps over at the heads of the burst, the
  /// same-tick heap and the overflow heap.
  bool live_entry_due_by(Time t);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t bursts_ = 0;
  std::size_t live_count_ = 0;
  bool use_wheel_;
  WheelTier wheel_;
  std::vector<QueueEntry> heap_;           ///< far-future overflow tier
  std::vector<QueueEntry> burst_scratch_;  ///< fire_tick working set
  std::vector<QueueEntry> sametick_scratch_;  ///< min-heap of same-tick adds
  std::size_t burst_next_ = 0;   ///< next unfired burst_scratch_ index
  bool firing_ = false;          ///< inside a callback (try_advance allowed)
  std::size_t work_left_ = 0;    ///< the running run()'s remaining budget
  bool has_deadline_ = false;    ///< the running run_until() deadline
  Time deadline_ = Time::zero();
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO: hottest slot reused first
};

/// Convenience: a repeating task bound to a scheduler. Owns its rescheduling
/// loop; stops when `stop()` is called or the object is destroyed.
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, Time period,
               std::function<void()> fn);  // hotpath-ok: setup only
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();          ///< First fire one period from now.
  void start_at(Time t); ///< First fire at absolute time t.
  void stop();

  bool running() const { return running_; }
  Time period() const { return period_; }

 private:
  void fire();

  Scheduler& sched_;
  Time period_;
  std::function<void()> fn_;  // hotpath-ok: stored once, invoked in place
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace edp::sim
