// Host-side probes the benchmark owns: a global operator-new counter and the
// drift reference kernel.  Nothing here calls into the library.
#include "probes.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <new>
#include <sys/resource.h>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacing the global allocation functions counts every allocation the
// process makes, library included, without touching library code.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try { return counted_alloc(size); } catch (...) { return nullptr; }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try { return counted_alloc(size); } catch (...) { return nullptr; }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
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

namespace perfbench {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RefKernel::RefKernel()
    : arena_(std::size_t{16} << 20, std::byte{1}),
      arena_resource_(arena_.data(), arena_.size(),
                      std::pmr::null_memory_resource()),
      // Every block size goes through the pool, which reuses freed blocks;
      // the arena behind it never frees, so nothing may bypass the pool.
      pool_(std::pmr::pool_options{0, std::size_t{1} << 20}, &arena_resource_) {
  for (int i = 0; i < 4; ++i) run_slice();  // warm up before any timing
}

double RefKernel::run_slice() {
  const double t0 = host_now();
  {
    std::pmr::map<std::uint32_t, std::pmr::string> ordered(&pool_);
    std::pmr::unordered_map<std::uint64_t, std::pmr::vector<int>> hashed(&pool_);
    std::uint64_t x = 12345;  // fixed: every slice does identical work
    for (int i = 0; i < 3000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      ordered.insert_or_assign(
          static_cast<std::uint32_t>(x >> 40),
          std::pmr::string(24 + (x & 15), 'a', &pool_));
      hashed[x >> 50].push_back(i);
      if (i % 3 == 0) ordered.erase(ordered.begin());
    }
    sink_ += ordered.size() + hashed.size();
  }
  return host_now() - t0;
}

}  // namespace perfbench
