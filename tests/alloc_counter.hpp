// A counting replacement of the global operator new/delete, for the tests
// that assert a code path allocates nothing (test_sim_kernel, test_causal,
// test_daemon_plane, test_daemons) or no more than a stated count
// (test_sched, bench_scale).  The replacement lives in alloc_counter.cpp,
// built as the vdce_alloc_counter OBJECT library: each linked binary gets
// the object file itself, so the replacement is in force for the whole
// binary.
#pragma once

#include <cstdint>

namespace vdce::test {

/// Heap allocations made through operator new (any array or scalar form)
/// since the process started.
std::uint64_t allocation_count() noexcept;

}  // namespace vdce::test
