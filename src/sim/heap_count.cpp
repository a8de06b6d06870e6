#include "sim/heap_count.hpp"

#include <atomic>

namespace edp::sim {
namespace {

// Constant-initialized, so a reader installed from another translation
// unit's static initializer is never overwritten by this one's.
std::atomic<HeapCountReader> g_reader{nullptr};

}  // namespace

void install_heap_counter(HeapCountReader reader) {
  g_reader.store(reader, std::memory_order_release);
}

std::optional<std::uint64_t> heap_allocations() {
  const HeapCountReader reader = g_reader.load(std::memory_order_acquire);
  if (reader == nullptr) {
    return std::nullopt;
  }
  return reader();
}

}  // namespace edp::sim
