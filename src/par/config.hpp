#pragma once
// Process-wide threading configuration and deterministic dispatch
// helpers for the node-local kernel layer.
//
// Determinism contract: every reduction kernel built on these helpers
// partitions its iteration space into *fixed-size* chunks
// (kReduceChunk) whose boundaries depend only on the problem size —
// never on the thread count — computes one partial result per chunk,
// and combines the partials in ascending chunk order.  The schedule
// (which thread runs which chunk, or whether any threads run at all)
// therefore never affects the bits of the result: serial and parallel
// runs, at any thread count, produce identical output.  Element-wise
// kernels (axpy, GEMM row sweeps, SpMV) write disjoint outputs with a
// fixed per-element accumulation order, so they are schedule-
// independent under any partition.
//
// Thread count resolution order:
//   set_num_threads(n > 0)  >  TSBO_NUM_THREADS  >  hardware_concurrency.
//
// Thread budget: num_threads() is the total for the process.  A
// top-level SPMD launch of nranks ranks gives each rank
// k = max(1, num_threads() / nranks) lanes in a rank-private pool (see
// ScopedRankPool and spmd.hpp); kernels called on a rank thread fan out
// across those lanes only.  Nested and concurrent callers degrade to
// the serial path instead of fighting over a pool (see ScopedSerial
// below): pool workers are serial-only, so an SPMD launch nested inside
// a parallel region (a service job on a parallel_jobs lane) runs its
// ranks single-lane.  Because of the contract above this changes timing
// only, never results.

#include "par/thread_pool.hpp"

#include <cstddef>
#include <functional>

namespace tsbo::util {
class Cli;
}

namespace tsbo::par {

/// Fixed reduction chunk: 16 cache tiles of 256 rows.  Small enough to
/// load-balance paper-scale panels (1e5 rows -> ~25 chunks across 8
/// threads), large enough that the ordered partial-combine epilogue is
/// negligible.
inline constexpr std::size_t kReduceChunk = 4096;

/// Resolved target thread count (always >= 1).
unsigned num_threads();

/// Overrides the thread count; 0 re-resolves from TSBO_NUM_THREADS /
/// hardware.  Not safe to call while kernels are executing.
void set_num_threads(unsigned n);

/// Minimum iteration count before an element-wise kernel pays the
/// pool-dispatch cost (overridable via TSBO_PARALLEL_GRAIN).
std::size_t parallel_grain();
void set_parallel_grain(std::size_t grain);

/// Applies --threads=N and --parallel-grain=N from a parsed command
/// line (bench/example binaries call this right after Cli parsing).
void configure_from_cli(const util::Cli& cli);

/// Shared pool sized to num_threads(); lazily (re)built.
ThreadPool& pool();

/// Marks the calling thread serial-only for its lifetime: every
/// dispatch helper below runs inline on this thread until the guard is
/// destroyed.  Every ThreadPool worker runs under one.  The dispatch
/// helpers also install one around their own pool dispatch, so a
/// kernel nested inside another kernel's chunk stays inline instead of
/// re-entering the pool.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;
};

/// Installs `lanes` as the calling thread's kernel pool for the
/// guard's lifetime: the dispatch helpers below fan out across it
/// instead of the shared pool().  Only the installing thread dispatches
/// to it, so no lock is taken.  The SPMD runtime installs one on every
/// rank thread; a single-lane rank's pool has no workers, so its
/// kernels run inline.
class ScopedRankPool {
 public:
  explicit ScopedRankPool(ThreadPool& lanes);
  ~ScopedRankPool();
  ScopedRankPool(const ScopedRankPool&) = delete;
  ScopedRankPool& operator=(const ScopedRankPool&) = delete;
};

/// True on a thread that is already inside a parallel region: under a
/// ScopedSerial (pool workers included) or a ScopedRankPool.  An SPMD
/// launch from such a thread gives its ranks one lane and no pinning.
bool in_parallel_region();

/// fn(begin, end) over a disjoint partition of [0, n).  Runs on the
/// calling thread's rank pool when one is installed, otherwise on the
/// shared pool.  Runs inline when n < parallel_grain(), a single lane
/// is available, this thread is serial-only, or the shared pool is
/// already busy with another dispatch.
void parallel_for_grained(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

/// Like parallel_for_grained, but partition boundaries are multiples of
/// `tile`, so cache-tiled kernels keep whole tiles per thread.
void parallel_for_tiles(
    std::size_t n, std::size_t tile,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// Runs fn(job) for every job index in [0, n), scheduling whole jobs as
/// unit chunks across the pool parallel_for_grained would use
/// (ThreadPool::parallel_for_chunked with chunk = 1): the job -> lane
/// partition is claimed off one monotone cursor, so jobs are dispatched
/// strictly in ascending index order regardless of lane count.  Falls
/// back to an inline ascending loop when a single lane is available,
/// this thread is serial-only, or the shared pool is busy with another
/// dispatch — the dispatch order is identical either way.  Job bodies
/// that fan out run serial-only, so an SPMD launch inside one runs
/// single-lane and unpinned; a lone or inline job is a top-level
/// caller.  Intended for coarse, long-running jobs (the
/// solver service schedules whole solves through it); element-wise
/// kernels should keep using parallel_for_grained.
void parallel_jobs(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Number of fixed reduction chunks covering [0, n).
inline std::size_t reduce_chunk_count(std::size_t n) {
  return (n + kReduceChunk - 1) / kReduceChunk;
}

/// fn(chunk, begin, end) for every fixed chunk of [0, n); chunk bounds
/// depend only on n.  Callers combine their per-chunk partials in
/// ascending chunk index order to stay deterministic.
void for_reduce_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace tsbo::par
