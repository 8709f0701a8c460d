// Host-side probes owned by the benchmark (see probes.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

namespace perfbench {

/// operator-new calls made by the whole process so far.  Read it at the
/// boundaries of the timed phase; the difference is that phase's count.
[[nodiscard]] std::uint64_t alloc_count();

/// Steady-clock seconds.
[[nodiscard]] double host_now();
/// User + system CPU seconds of this process.
[[nodiscard]] double cpu_now();
/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Fixed reference work for drift normalisation.  Host speed drifts between
/// runs taken minutes apart; timing this kernel next to the measured work
/// and reporting the ratio cancels most of that drift.  A slice is
/// node-container churn (ordered map, hash map, strings, vectors), the kind
/// of work most of the simulator's host time goes to; on a shared 4-core
/// VM it tracked the simulator's speed better than pointer chasing or pure
/// arithmetic did.  It runs over an arena allocated and touched in the
/// constructor, before any set-up is timed, so the kernel neither calls
/// operator new nor shares the program's heap.
class RefKernel {
 public:
  /// Slices in one reference unit (the unit run_ref divides by).
  static constexpr std::size_t kSlicesPerUnit = 8;

  RefKernel();
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  /// Run one slice of the fixed reference work; returns its host seconds.
  double run_slice();

 private:
  std::uint64_t sink_ = 0;
  std::vector<std::byte> arena_;
  std::pmr::monotonic_buffer_resource arena_resource_;
  std::pmr::unsynchronized_pool_resource pool_;
};

}  // namespace perfbench
