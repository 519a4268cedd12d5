// Replacement global operator new/delete that let CountBytes (bench.hpp)
// measure the heap bytes one layer object holds, exactly and
// independently of the allocator's chunk reuse.
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
thread_local std::int64_t* g_count = nullptr;
}  // namespace

perfbench::CountBytes::CountBytes() { g_count = &bytes_; }
perfbench::CountBytes::~CountBytes() { g_count = nullptr; }

void* operator new(std::size_t n) {
  if (g_count != nullptr) *g_count += static_cast<std::int64_t>(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t n) noexcept {
  if (g_count != nullptr) *g_count -= static_cast<std::int64_t>(n);
  std::free(p);
}
