// Retained naive reference implementation of the Fig. 2 site scheduler.
//
// The production scheduler (site_scheduler.cpp + schedule_builder.cpp) is
// optimized for grid-scale inputs: adjacency-indexed graph queries, cached
// ranked host lists, a bounded availability scan, an incremental ready-list
// heap, and flat per-host bookkeeping.  Those optimizations must be *exact*
// — they may never change a single placement or timestamp.  This file keeps
// the straightforward pre-optimization algorithm alive as the oracle:
//
//  * bookkeeping in hash maps, rebuilt values on every query;
//  * per-task data-ready recomputed by scanning the full edge list;
//  * the ready list as an ordered set with a linear highest-level scan;
//  * no memoization of transfer times or earliest-finish evaluations.
//
// tests/test_differential.cpp asserts that the optimized scheduler's
// allocation tables are bit-identical (hosts, sites, est_start/est_finish,
// schedule_length) to this reference across the generated corpus, and
// bench/bench_scale.cpp reports the speedup of the optimized path against
// this implementation.  Keep this file dumb: clarity and stability beat
// speed here by design.
#pragma once

#include <string>

#include "sched/site_scheduler.hpp"

namespace vdce::sched::reference {

/// The assignment phase of Fig. 2 (steps 6-7) exactly as the naive
/// implementation performed it.  Same contract as assign_with_outputs().
common::Expected<ResourceAllocationTable> assign_with_outputs_naive(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& options, const std::string& scheduler_name);

/// The full Fig. 2 pipeline (candidate sites -> host selection -> naive
/// assignment).  Produces a table that must be bit-identical to
/// sched::plan() under the same VDCE options, except for the
/// scheduler_name, which is "<name>-naive".
common::Expected<ResourceAllocationTable> schedule_naive(
    const afg::Afg& graph, const SchedulerContext& context,
    const SchedulingPolicy& options = {});

}  // namespace vdce::sched::reference
