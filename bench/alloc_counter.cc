// Counting global operator new/delete. Linked only into benchmarks that
// report allocation counts or live heap; the counters are relaxed atomics,
// so the overhead is a few fetch_adds per allocation — negligible next to
// malloc itself, and identical across the configurations being compared.

#include "bench/alloc_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* CountedAllocNoThrow(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* CountedAlloc(std::size_t size) {
  // operator new must never return nullptr for nonzero sizes.
  void* p = CountedAllocNoThrow(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace rtic {
namespace bench {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

std::int64_t LiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace bench
}  // namespace rtic

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
