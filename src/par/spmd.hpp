#pragma once
// SPMD launcher: runs fn(comm) on `nranks` rank-threads.
//
// This is the reproduction's stand-in for `mpirun -np p`: every rank is
// a thread with private data, communicating only through Communicator
// collectives.  The process thread budget (par::num_threads()) is split
// across the ranks of a top-level launch: each rank gets
// k = max(1, num_threads() / nranks) kernel lanes in a rank-private
// ThreadPool, the way each of the paper's MPI ranks drives a whole GPU,
// and rank r is confined to cores [r*k, (r+1)*k) when the host has
// nranks*k of them.  A launch nested inside another parallel region (a
// pool worker, a service job lane, a rank) runs every rank single-lane
// and unpinned.  Kernel results do not depend on k (config.hpp's
// determinism contract).  `--threads=<ranks>` gives one lane per rank,
// the one-core-per-rank layout of a pure rank-scaling study.

#include "par/communicator.hpp"

#include <functional>

namespace tsbo::par {

/// Runs `fn` on nranks rank-threads sharing one SpmdContext, each with
/// its share of the thread budget (see above).  The first exception
/// thrown by any rank is rethrown on the caller after all ranks have
/// been joined.
void spmd_run(int nranks, const NetworkModel& model,
              const std::function<void(Communicator&)>& fn);

/// Convenience overload without latency injection.
void spmd_run(int nranks, const std::function<void(Communicator&)>& fn);

/// Splits n rows into `nranks` contiguous blocks (1-D block row
/// partition, paper Section VII); returns the [begin, end) of `rank`.
/// Remainder rows go to the lowest ranks, matching Tpetra's default.
struct RowRange {
  long begin = 0;
  long end = 0;
  [[nodiscard]] long size() const { return end - begin; }
};
RowRange block_row_range(long n, int nranks, int rank);

}  // namespace tsbo::par
