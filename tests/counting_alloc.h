// Counting replacements of the global allocation functions, for the test
// binaries that assert a path is allocation-free (alloc_test, plan_test).
//
// This header DEFINES the replaceable operators, so include it from exactly
// one translation unit per binary. Every replaceable overload is here —
// throwing, nothrow, sized, aligned, and the array forms — and all of them
// go through malloc/posix_memalign and free. Replacing only some lets a
// library allocation (std::stable_sort's temporary buffer uses
// `new(std::nothrow)`) come from the toolchain's operator and be released
// by ours, which ASan reports as an alloc-dealloc mismatch.
//
// Usage: counting_alloc::begin(); <code under test>; n = counting_alloc::end();
// No gtest assertion belongs inside the window — assertions allocate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace counting_alloc {

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::uint64_t> g_allocs{0};

/// Opens a counting window with the count at zero.
inline void begin() noexcept {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
}

/// Closes the window and returns how many allocations it saw.
inline std::uint64_t end() noexcept {
  g_counting.store(false, std::memory_order_release);
  return g_allocs.load(std::memory_order_relaxed);
}

/// nullptr on failure (the nothrow contract).
inline void* allocate(std::size_t n, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

inline void* allocate_or_throw(std::size_t n, std::size_t align) {
  void* p = allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace counting_alloc

void* operator new(std::size_t n) {
  return counting_alloc::allocate_or_throw(n, 0);
}
void* operator new[](std::size_t n) {
  return counting_alloc::allocate_or_throw(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counting_alloc::allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counting_alloc::allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n, static_cast<std::size_t>(a));
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
