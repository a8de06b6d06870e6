// edp::sim — near-horizon timing-wheel tier of the event kernel.
//
// A flat, non-lapping wheel: 2^12 buckets, each covering one
// resolution-quantized tick (2^19 ps ≈ 524 ns), for a horizon of
// ~2.1 ms past the cursor — wide enough for every rate-based app period
// (policer refill 100 µs, liveness check 500 µs, AQM update 1 ms). The
// scheduler keeps every pending entry whose tick lands inside
// [cursor, cursor + kSlots) here and spills the far future to its 4-ary
// heap; as the cursor advances, heap entries whose tick has come within
// the horizon cascade into the wheel.
//
// Buckets are flat vectors: inserts into a dense bucket append
// contiguously (mod_timer-style reset churn lands whole cancel/re-arm
// batches in one bucket), and draining is a single sequential copy the
// hardware prefetcher streams — unlike a linked node-slab, whose drain is
// a serial dependent-load chain. A drained bucket's storage goes to a
// spare list, and an insert into an empty bucket takes it from there, so
// the wheel holds one storage per simultaneously occupied bucket rather
// than one per bucket ever used, and the steady state never allocates.
//
// Exactness: buckets hold full-precision (when, seq) keys — quantization
// only decides *where* an entry is stored, never *when* it fires. The
// scheduler drains one bucket at a time into a POD scratch burst and
// sorts it by (when, seq), so the fire order is identical to the heap's
// total order and determinism digests are unchanged (docs/PERFORMANCE.md).
//
// Within the horizon, slot index = tick & kMask is a bijection, so a
// bucket never mixes entries from different laps and insert/expire are
// O(1) plus an occupancy-bitmap bit flip.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace edp::sim {

/// Pending-event key: full-precision fire time, global sequence tie-break,
/// and a generation-tagged callback-slot reference. 24-byte POD shared by
/// the wheel buckets, the overflow heap, and the fire-burst scratch.
struct QueueEntry {
  Time when;
  std::uint64_t seq;   ///< monotonic tie-break: FIFO among same-time events
  std::uint32_t slot;
  std::uint32_t gen;
};

inline bool entry_earlier(const QueueEntry& a, const QueueEntry& b) {
  if (a.when != b.when) {
    return a.when < b.when;
  }
  return a.seq < b.seq;
}

/// Functor form for std::sort: inlines per-comparison, unlike passing
/// `entry_earlier` itself (a function pointer → indirect call each compare).
struct EntryEarlier {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return entry_earlier(a, b);
  }
};

class WheelTier {
 public:
  static constexpr unsigned kResBits = 19;  ///< 524.288 ns per tick
  static constexpr std::size_t kSlotBits = 12;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;  ///< occupancy bitmap

  /// Quantize an absolute time to its wheel tick.
  std::uint64_t tick_of(Time t) const {
    return static_cast<std::uint64_t>(t.ps()) >> kResBits;
  }

  std::uint64_t cursor() const { return cursor_; }
  std::size_t count() const { return count_; }

  /// True iff `tick` lands inside the wheel horizon. Pre: tick >= cursor().
  bool covers(std::uint64_t tick) const { return tick - cursor_ < kSlots; }

  /// Advance the cursor. Pre: no occupied bucket in [cursor(), tick) — the
  /// scheduler drains buckets strictly in tick order before moving on.
  void set_cursor(std::uint64_t tick) {
    assert(tick >= cursor_);
    cursor_ = tick;
  }

  /// O(1) amortized insert. Pre: cursor() <= tick && covers(tick).
  void insert(std::uint64_t tick, const QueueEntry& e) {
    assert(tick >= cursor_ && covers(tick));
    ensure_init();
    const std::size_t s = tick & kMask;
    std::vector<QueueEntry>& b = buckets_[s];
    if (b.capacity() == 0 && !spare_.empty()) {
      b = std::move(spare_.back());
      spare_.pop_back();
    }
    b.push_back(e);  // hotpath-ok: spare storage is recycled
    words_[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++count_;
  }

  bool bucket_nonempty(std::uint64_t tick) const {
    if (count_ == 0) {
      return false;
    }
    const std::size_t s = tick & kMask;
    return (words_[s >> 6] >> (s & 63)) & 1;
  }

  /// Visit every entry in a bucket read-only (for stale-entry scans).
  /// Pre: initialized, which count() > 0 guarantees.
  template <typename F>
  void visit_bucket(std::uint64_t tick, F&& f) const {
    for (const QueueEntry& e : buckets_[tick & kMask]) {
      f(e);
    }
  }

  /// Append the bucket's entries to `out` and empty it; its storage goes
  /// to the spare list. Returns entry count.
  std::size_t take_bucket(std::uint64_t tick, std::vector<QueueEntry>& out) {
    assert(covers(tick));
    const std::size_t s = tick & kMask;
    std::vector<QueueEntry>& b = buckets_[s];
    const std::size_t n = b.size();
    out.insert(out.end(), b.begin(), b.end());  // hotpath-ok: capacity kept
    release(s);
    count_ -= n;
    return n;
  }

  /// Drop every entry in a bucket (all known stale).
  void clear_bucket(std::uint64_t tick) {
    const std::size_t s = tick & kMask;
    count_ -= buckets_[s].size();
    release(s);
  }

  /// Earliest occupied tick in [lo, hi]; nullopt when there is none. Pre:
  /// lo >= cursor(); hi is clamped to the horizon. Scans only the bitmap
  /// words covering the range, so a short range costs a word or two.
  std::optional<std::uint64_t> first_occupied_in(std::uint64_t lo,
                                                 std::uint64_t hi) const {
    assert(lo >= cursor_);
    if (count_ == 0) {
      return std::nullopt;
    }
    hi = std::min<std::uint64_t>(hi, cursor_ + kSlots - 1);
    for (std::uint64_t t = lo; t <= hi;) {
      // Slots s..(s | 63) share a word and map to consecutive ticks.
      const std::size_t s = t & kMask;
      const std::uint64_t word = words_[s >> 6] >> (s & 63);
      if (word != 0) {
        const std::uint64_t hit =
            t + static_cast<std::uint64_t>(std::countr_zero(word));
        if (hit <= hi) {
          return hit;
        }
        return std::nullopt;
      }
      t += 64 - (s & 63);
    }
    return std::nullopt;
  }

  /// Earliest occupied tick at or after the cursor; nullopt when empty.
  /// Bitmap scan: one countr_zero per 64 buckets, so <= 65 words total.
  std::optional<std::uint64_t> next_occupied_tick() const {
    return first_occupied_in(cursor_, cursor_ + kSlots - 1);
  }

 private:
  void ensure_init() {
    if (buckets_.empty()) {
      buckets_.resize(kSlots);
      words_.assign(kWords, 0);
    }
  }
  /// Empty bucket `s`, park its storage on the spare list and clear its bit.
  void release(std::size_t s) {
    std::vector<QueueEntry>& b = buckets_[s];
    b.clear();
    if (b.capacity() != 0) {
      if (spare_.capacity() == 0) {
        // A storage lives in a bucket or on this list, and one is made
        // only when the list is empty, so there are at most kSlots. Sized
        // at the first drain rather than at init, so building a scheduler
        // stays cheap.
        spare_.reserve(kSlots);
      }
      spare_.push_back(std::move(b));
    }
    words_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }

  std::uint64_t cursor_ = 0;  ///< ticks < cursor_ are in the past
  std::size_t count_ = 0;
  std::vector<std::vector<QueueEntry>> buckets_;  ///< lazily sized to kSlots
  std::vector<std::vector<QueueEntry>> spare_;  ///< drained buckets' storage
  std::vector<std::uint64_t> words_;  ///< bit set ⟺ bucket nonempty
};

}  // namespace edp::sim
