// Process-wide heap-allocation counters for benchmarks that report
// allocations-per-operation (E17) or live heap (E2). Linking
// alloc_counter.cc into a binary replaces global operator new/delete with
// counting versions; these functions then read the tallies. Binaries that
// do not link the TU must not include this header.

#ifndef RTIC_BENCH_ALLOC_COUNTER_H_
#define RTIC_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace rtic {
namespace bench {

/// Heap allocations (operator new / new[]) performed so far.
std::uint64_t AllocCount();

/// Bytes requested across those allocations.
std::uint64_t AllocBytes();

/// Bytes currently held by operator new allocations (malloc_usable_size,
/// so allocator rounding is included). Differences between two readings
/// give the heap a piece of code kept.
std::int64_t LiveBytes();

}  // namespace bench
}  // namespace rtic

#endif  // RTIC_BENCH_ALLOC_COUNTER_H_
