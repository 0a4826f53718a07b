// Global allocation counting for the allocation-free hot-path regression
// tests (see alloc_counter.h). Exactly one translation unit in the test
// binary may replace operator new/delete; every test that needs the count
// includes the header. Counting is relaxed-atomic so the replacement stays
// safe for the multi-threaded tests sharing this binary.
//
// Under AddressSanitizer the replacement is disabled: ASan interposes the
// allocator, and a malloc-backed ::operator new in the main binary
// mismatches deallocations of memory that shared libraries allocated
// through ASan's own operator new (alloc-dealloc-mismatch aborts). There
// HeapAllocs() stays 0 and the allocation-delta assertions hold vacuously;
// the plain (non-sanitizer) CI job is the one that enforces them.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SAQL_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAQL_ASAN_ACTIVE 1
#endif
#endif

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

#ifndef SAQL_ASAN_ACTIVE

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned types (`Event` is `alignas(64)`) allocate through the
// aligned forms; count them too.
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // SAQL_ASAN_ACTIVE

namespace saql {
namespace testing {

std::size_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace testing
}  // namespace saql
