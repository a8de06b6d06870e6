// edp::sim — process-wide heap-allocation count, read through a hook.
//
// The library never replaces the global operator new itself: programs that
// link it (the standalone benchmark among them) may bring their own. A
// program that wants the count links the heap-counter library
// (src/testing/heap_counter.cpp), whose operator new installs a reader
// here during static initialization. workload::replay() reads it to report
// heap allocations per event after its warm-up window.
#pragma once

#include <cstdint>
#include <optional>

namespace edp::sim {

/// Returns the number of heap allocations the process has made so far.
using HeapCountReader = std::uint64_t (*)();

/// Install the process-wide reader.
void install_heap_counter(HeapCountReader reader);

/// Heap allocations so far, all threads; nullopt when no counter is
/// installed.
std::optional<std::uint64_t> heap_allocations();

}  // namespace edp::sim
