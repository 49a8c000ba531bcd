// Global allocation counter for test binaries that assert allocation-free
// hot paths.  Replaces the global allocation functions, so include it from
// exactly one translation unit per test binary.  Counting is off by
// default; tests toggle g_countAllocs around the measured region.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCalls{0};
std::atomic<std::size_t> g_allocBytes{0};

void* countedAlloc(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
