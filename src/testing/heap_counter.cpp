// Global operator new/delete replacement that counts every heap allocation
// the process makes, on every thread, and publishes the count through
// sim::install_heap_counter(). Link it (CMake target edp_heap_counter, an
// object library so the replacement is always linked in) into a test or
// bench binary to turn workload::ScenarioOutcome::allocations_per_event
// into a real heap gauge; without it that field reads NaN.
//
// The count is one relaxed atomic increment per allocation: exact across
// threads, and free of contention in a steady state that allocates nothing.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/heap_count.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t read_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

const bool g_installed = [] {
  edp::sim::install_heap_counter(&read_count);
  return true;
}();

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_malloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every form is replaced, not only the two the others forward to by
// default: a sanitizer runtime supplies its own array and nothrow forms,
// whose blocks the free() below would then release with a mismatch.
void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_malloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_malloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_malloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
