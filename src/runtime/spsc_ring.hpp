// edp::runtime — bounded lock-free single-producer/single-consumer ring.
//
// The cross-shard transport of the parallel runtime. One ring carries
// messages in exactly one direction between one (producer shard, consumer
// shard) pair, which is what makes the Lamport construction sufficient: the
// producer only writes `tail_`, the consumer only writes `head_`, and each
// side caches the other's index to avoid touching the shared cache line on
// every operation (the DPDK/ndn-dpdk idiom).
//
// FIFO order is the correctness property the runtime's determinism rests
// on: messages pushed in simulated-time order by the producing shard are
// popped in the same order at the window barrier.
//
// Slot storage is allocated uninitialized: an element is constructed in
// place on push and destroyed on pop, so building a ring costs one
// allocation and no per-slot construction (the runtime sets up two rings
// per directed shard pair, each thousands of slots of packet messages).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace edp::runtime {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two; the ring holds up to
  /// `capacity()` elements (one slot is NOT sacrificed: head/tail are
  /// monotonically increasing counters, not wrapped indices).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) {
      cap <<= 1;
    }
    slots_ = std::allocator<T>().allocate(cap);
    mask_ = cap - 1;
  }

  ~SpscRing() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    for (std::size_t i = head_.load(std::memory_order_relaxed); i != tail;
         ++i) {
      std::destroy_at(&slots_[i & mask_]);
    }
    std::allocator<T>().deallocate(slots_, capacity());
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full.
  bool try_push(T&& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) {
        return false;
      }
    }
    ::new (static_cast<void*>(&slots_[tail & mask_])) T(std::move(v));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        return false;
      }
    }
    T& slot = slots_[head & mask_];
    out = std::move(slot);
    std::destroy_at(&slot);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, DPDK-style burst pop: move up to `max` elements into
  /// `out` in FIFO order with one head publish for the whole burst (one
  /// release store and at most one tail refresh, instead of one per
  /// element). Returns the number popped; 0 when the ring is empty.
  std::size_t pop_burst(T* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        return 0;
      }
    }
    const std::size_t n = std::min(tail_cache_ - head, max);
    for (std::size_t i = 0; i < n; ++i) {
      T& slot = slots_[(head + i) & mask_];
      out[i] = std::move(slot);
      std::destroy_at(&slot);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate occupancy (exact when the other side is quiescent, which
  /// is the only time the runtime reads it).
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }

 private:
  T* slots_ = nullptr;  ///< capacity() slots; only [head, tail) are alive
  std::size_t mask_ = 0;

  // Producer-owned line: tail index + cached view of head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;

  // Consumer-owned line: head index + cached view of tail.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
};

}  // namespace edp::runtime
