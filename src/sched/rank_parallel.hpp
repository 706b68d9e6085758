// Deterministic fan-out over simulated-rank (or layer) tasks — a thin
// compatibility shim over the persistent TaskPool (sched/taskpool.hpp).
//
// Real-mode execution keeps one OS process for all P simulated ranks, so
// per-rank local compute — the 1D panel trsms and the per-layer Schur
// updates, which operate on disjoint buffers — can run across host threads.
// Historically this forked a fresh OpenMP team per call; it now rides the
// pool's long-lived workers (parallel_for), keeping the two rules that make
// results bitwise-identical for every thread count (DESIGN.md):
//   1. the task decomposition is fixed by the schedule (per simulated rank
//      / per layer / fixed row blocks), never by the worker count;
//   2. each output element is written by exactly one task, with the same
//      arithmetic the serial loop performs.
// Threads then only change *who* executes a task, not what it computes.
//
// Fast path: when n < 2, only one thread is configured, or the caller is
// already inside a pool worker or an OpenMP parallel region, the loop runs
// inline with zero synchronization — no team spin-up for single-chunk work
// (TaskPool::parallel_for performs the same checks; the omp_in_parallel
// guard here covers callers nested under foreign OpenMP regions).
#pragma once

#include <algorithm>

#include "sched/taskpool.hpp"
#include "tensor/matrix.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace conflux::sched {

/// Run body(i) for i in [0, n). Tasks must be independent (disjoint writes).
template <typename Body>
void parallel_ranks(index_t n, Body&& body) {
#ifdef _OPENMP
  if (omp_in_parallel()) {
    for (index_t i = 0; i < n; ++i) body(i);
    return;
  }
#endif
  TaskPool::instance().parallel_for(n, std::forward<Body>(body));
}

/// Fixed row-block width for blocked per-task updates: a multiple of the
/// gemm register tile so block boundaries never change microkernel edge
/// handling, and therefore never change results across thread counts.
inline constexpr index_t kRowBlock = 128;

inline index_t num_row_blocks(index_t rows) {
  return rows > 0 ? (rows + kRowBlock - 1) / kRowBlock : 0;
}

/// Passes over fewer row blocks than this run inline: the fan-out costs
/// more than it saves on small matrices (and keeps small requests, such as
/// the solve service's, off the pool).
inline constexpr index_t kMinParallelRowBlocks = 8;

/// Run body(blk, i0, i1) over the fixed kRowBlock row blocks [i0, i1) of
/// `rows` rows: a streaming pass (fill, copy, convert) whose pages then
/// fault in on several threads at once. Blocks must write disjoint rows.
template <typename Body>
void for_row_blocks(index_t rows, Body&& body) {
  const index_t nblocks = num_row_blocks(rows);
  const auto block = [&](index_t blk) {
    const index_t i0 = blk * kRowBlock;
    body(blk, i0, std::min(rows, i0 + kRowBlock));
  };
  if (nblocks < kMinParallelRowBlocks) {
    for (index_t blk = 0; blk < nblocks; ++blk) block(blk);
  } else {
    parallel_ranks(nblocks, block);
  }
}

}  // namespace conflux::sched
