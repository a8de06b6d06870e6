// Global operator new/delete replacement that counts heap allocations per
// thread. The packet-pool gauge (net::packet_buffer_pool_stats) sees only
// pooled payload buffers; this counter sees every allocation the thread
// makes. Every measured run is on the main thread (the storms run all
// shards on one worker), so its count is the run's.
//
// Counting is a thread-local increment, so the hot path takes no atomic.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

thread_local std::uint64_t t_count = 0;

void* counted_alloc(std::size_t size) {
  ++t_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_count;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace edp::bench {

std::uint64_t thread_heap_allocs() { return t_count; }

}  // namespace edp::bench

// The array and nothrow forms of the library forward to these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
