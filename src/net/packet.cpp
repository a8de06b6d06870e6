#include "net/packet.hpp"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <utility>

namespace edp::net {

// ---- pooled payload buffers ------------------------------------------------
//
// Every simulated packet owns a std::vector<uint8_t>; at millions of packet
// events per second, constructing and destroying those vectors is the
// dominant allocator traffic in the whole simulator. The pool below
// recycles them: a thread-local cache serves the single-threaded fast path
// with no synchronization, backed by a mutex-protected central freelist so
// buffers survive the parallel runtime's short-lived worker threads (each
// run_until() spawns fresh workers; their caches flush to the central pool
// on thread exit, and new workers refill from it in batches).
//
// A packet keeps its buffer from source to sink (the switch deparses in
// place), so each buffer comes back once and the pool grows only to the
// run's in-flight peak. Stats are process-wide relaxed atomics — the hook
// behind packet_buffer_pool_stats().

namespace {

// Buffers above this capacity are dropped rather than pooled (pathological
// one-off packets must not pin memory); normal and jumbo frames fit.
constexpr std::size_t kMaxPooledCapacity = 16384;
constexpr std::size_t kThreadCacheMax = 256;
constexpr std::size_t kRefillBatch = 64;
constexpr std::size_t kCentralMax = 4096;

struct Counters {
  std::atomic<std::uint64_t> acquired{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> released{0};
  std::atomic<std::uint64_t> dropped{0};
};
Counters& counters() {
  static Counters c;
  return c;
}

using Buffer = std::vector<std::uint8_t>;

class CentralPool {
 public:
  /// Move up to `want` buffers into `out`.
  void refill(std::vector<Buffer>& out, std::size_t want) {
    std::lock_guard<std::mutex> lock(mu_);
    while (want-- > 0 && !buffers_.empty()) {
      out.push_back(std::move(buffers_.back()));
      buffers_.pop_back();
    }
  }

  /// Absorb a thread cache (worker exit / overflow flush). Buffers beyond
  /// the central bound are dropped to keep the pool's footprint fixed.
  void absorb(std::vector<Buffer>& in) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : in) {
      if (buffers_.size() >= kCentralMax) {
        counters().dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      buffers_.push_back(std::move(b));
    }
    in.clear();
  }

 private:
  std::mutex mu_;
  std::vector<Buffer> buffers_;
};

// Intentionally leaked: worker threads (and the main thread) flush their
// caches here from thread_local destructors, whose order relative to
// static destruction is unsequenced — a never-destroyed pool is immune.
CentralPool& central() {
  static CentralPool* pool = new CentralPool;  // hotpath-ok: leaked singleton
  return *pool;
}

struct ThreadCache {
  std::vector<Buffer> buffers;
  ~ThreadCache() { central().absorb(buffers); }
};
thread_local ThreadCache t_cache;

/// A recycled (or, on miss, fresh) buffer holding `size` zero bytes.
Buffer acquire_buffer(std::size_t size) {
  counters().acquired.fetch_add(1, std::memory_order_relaxed);
  auto& cache = t_cache.buffers;
  if (cache.empty()) {
    central().refill(cache, kRefillBatch);
  }
  if (!cache.empty() && cache.back().capacity() >= size) {
    Buffer b = std::move(cache.back());
    cache.pop_back();
    counters().reused.fetch_add(1, std::memory_order_relaxed);
    b.assign(size, 0);  // full zero fill: recycled bytes must not leak
    return b;
  }
  counters().allocated.fetch_add(1, std::memory_order_relaxed);
  return Buffer(size, 0);
}

}  // namespace

sim::PoolStats packet_buffer_pool_stats() {
  sim::PoolStats s;
  const Counters& c = counters();
  s.acquired = c.acquired.load(std::memory_order_relaxed);
  s.reused = c.reused.load(std::memory_order_relaxed);
  s.allocated = c.allocated.load(std::memory_order_relaxed);
  s.released = c.released.load(std::memory_order_relaxed);
  s.dropped = c.dropped.load(std::memory_order_relaxed);
  return s;
}

Packet::Packet(std::size_t size) : bytes_(acquire_buffer(size)) {}

Packet::Packet(const Packet& o) : bytes_(acquire_buffer(0)), meta_(o.meta_) {
  bytes_.assign(o.bytes_.begin(), o.bytes_.end());
}

Packet& Packet::operator=(const Packet& o) {
  if (this != &o) {
    // Reuse our own capacity; no pool round-trip needed.
    bytes_.assign(o.bytes_.begin(), o.bytes_.end());
    meta_ = o.meta_;
  }
  return *this;
}

void Packet::recycle(std::vector<std::uint8_t>&& b) noexcept {
  if (b.capacity() > kMaxPooledCapacity) {
    counters().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& cache = t_cache.buffers;
  if (cache.size() >= kThreadCacheMax) {
    central().absorb(cache);
  }
  counters().released.fetch_add(1, std::memory_order_relaxed);
  b.clear();
  cache.push_back(std::move(b));
}

void Packet::append(std::span<const std::uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void Packet::pad_to(std::size_t size) {
  if (bytes_.size() < size) {
    bytes_.resize(size, 0);
  }
}

void Packet::strip_front(std::size_t n) {
  if (n >= bytes_.size()) {
    bytes_.clear();
    return;
  }
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(n));
}

void Packet::insert_zeros(std::size_t off, std::size_t n) {
  assert(off <= bytes_.size());
  bytes_.insert(bytes_.begin() + static_cast<std::ptrdiff_t>(off), n, 0);
}

}  // namespace edp::net
