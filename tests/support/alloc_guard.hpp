// Counting replacement of the global allocator, for proving hot paths
// allocation-free at runtime (the static twin is the hotpath.allocation
// lint rule; see `syndog_lint --explain hotpath.allocation`).
//
// Include this header in exactly ONE translation unit per test binary:
// it *defines* the replacement operator new/delete set, and replacement
// allocation functions must not be defined twice (nor declared inline,
// [replacement.functions]). Test binaries here are single-TU, so a plain
// #include is exactly once by construction.
//
// Usage:
//     warm_up();                       // grow arenas to steady state
//     syndog::testsupport::AllocGuard guard;
//     hot_loop();
//     EXPECT_EQ(guard.stop(), 0u);
//     EXPECT_LE(guard.largest(), limit);  // biggest single request
//
// The default operator new[]/delete[] forward to these, so every heap
// allocation made by the binary is counted while the guard is live.
// noinline keeps the malloc/free calls opaque at call sites, where GCC
// would otherwise misreport them as mismatched new/free pairs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace syndog::testsupport {

namespace detail {
inline std::atomic<bool> g_count_allocs{false};
inline std::atomic<std::size_t> g_alloc_count{0};
inline std::atomic<std::size_t> g_largest_alloc{0};

inline void count_alloc(std::size_t size) {
  if (!g_count_allocs.load(std::memory_order_relaxed)) return;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_alloc.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// RAII window during which global heap allocations are counted.
/// Construction resets the counter and starts counting; stop() (or the
/// destructor) ends the window. Counting is idempotent and thread-safe,
/// but windows must not nest.
class AllocGuard {
 public:
  AllocGuard() {
    detail::g_alloc_count.store(0, std::memory_order_relaxed);
    detail::g_largest_alloc.store(0, std::memory_order_relaxed);
    detail::g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocGuard() { detail::g_count_allocs.store(false, std::memory_order_relaxed); }
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  /// Stops counting and returns the number of allocations observed —
  /// call before making assertions so the assertion machinery's own
  /// allocations are not counted.
  std::size_t stop() {
    detail::g_count_allocs.store(false, std::memory_order_relaxed);
    return detail::g_alloc_count.load(std::memory_order_relaxed);
  }

  /// Largest single request, in bytes, seen while counting.
  std::size_t largest() const {
    return detail::g_largest_alloc.load(std::memory_order_relaxed);
  }
};

}  // namespace syndog::testsupport

[[gnu::noinline]] void* operator new(std::size_t size) {
  syndog::testsupport::detail::count_alloc(size);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  syndog::testsupport::detail::count_alloc(size);
  if (size == 0) size = 1;
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
