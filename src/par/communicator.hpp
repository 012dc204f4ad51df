#pragma once
// MPI-like communicator over the in-process SPMD runtime.
//
// Each simulated rank is a thread; collectives run over shared memory
// with deterministic reduction order (every rank computes the identical
// rank-0..p-1 sum), so redundant small factorizations — Cholesky of the
// reduced Gram matrix, the projected least-squares solve — produce
// bit-identical results on all ranks exactly as the paper's Trilinos
// implementation relies on.  The attached NetworkModel injects fabric
// latency per operation; CommStats counts synchronizations so tests can
// assert the paper's per-algorithm sync counts (5 / 2 / 1 + s/bs).
//
// Collectives are blocking: every rank publishes its payload, folds
// its peers' payloads in rank order after a barrier, and spins the
// operation's full modeled fabric latency.  Ranks wait at the barrier
// in par::wait_while (wait.hpp): a short spin, then a sleep, so ranks
// may outnumber cores.  The one split-phase operation is the neighbor
// exchange (exchange_begin/exchange_end): the modeled p2p latency of a
// round is *discounted* by the wall-clock compute performed between
// begin and end — the interior SpMV rows in DistCsr::spmm — exactly as
// MPI_Irecv/Isend + interior work + Waitall would hide it on a real
// fabric.  CommStats::overlapped_seconds accounts the hidden share,
// injected_seconds the exposed share actually spun.

#include "par/network_model.hpp"
#include "util/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tsbo::par {

/// Per-rank communication counters.
struct CommStats {
  std::uint64_t allreduces = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t p2p_rounds = 0;
  std::uint64_t barriers = 0;
  std::uint64_t bytes_allreduced = 0;
  std::uint64_t bytes_exchanged = 0;  // p2p payload pulled by this rank
  /// Modeled fabric time actually spun (exposed to the critical path).
  double injected_seconds = 0.0;
  /// Modeled fabric time hidden behind compute inside neighbor-exchange
  /// windows.  injected + overlapped == total modeled cost.
  double overlapped_seconds = 0.0;
};

/// after - before, for windowed accounting around a solver call.
CommStats subtract(const CommStats& after, const CommStats& before);

/// Shared state of one SPMD execution; owned by spmd_run().
class SpmdContext {
 public:
  SpmdContext(int nranks, NetworkModel model);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const NetworkModel& model() const { return model_; }

 private:
  friend class Communicator;

  int nranks_;
  NetworkModel model_;

  // Sense-reversing central barrier; waiters watch sense_.
  std::atomic<int> arrived_{0};
  std::atomic<int> sense_{0};

  // One publication slot per rank (zero-copy collectives and neighbor
  // exchanges share it; at most one operation is open per rank).
  std::vector<const void*> slots_;
  std::vector<std::size_t> sizes_;
};

/// Rank-local handle used inside spmd_run() bodies.  Not thread-safe
/// across ranks by design: one Communicator per rank thread.
class Communicator {
 public:
  Communicator(SpmdContext& ctx, int rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return ctx_.nranks_; }

  /// Blocks until all ranks arrive.
  void barrier();

  /// In-place sum-reduction of `inout` across all ranks; every rank
  /// receives the identical deterministic sum.  One logical global
  /// synchronization (the paper's unit of communication accounting).
  void allreduce_sum(std::span<double> inout);

  /// In-place max-reduction.
  void allreduce_max(std::span<double> inout);

  /// In-place sum-reduction of pair-form double-double values: element
  /// i of the global sum is the dd accumulation (util/eft.hpp, rank
  /// 0..p-1 order) of every rank's hi[i] + lo[i].  Summing the hi and
  /// lo planes with two plain allreduce_sum calls would re-round each
  /// partial to double and forfeit the extended precision; this fused
  /// form keeps the cross-rank Gram reduction at u_dd ~ 4.9e-32 and
  /// counts as ONE synchronization (it is one fused message of 2x the
  /// payload, exactly like MPI's MPI_SUM on a paired custom datatype).
  void allreduce_sum_dd(std::span<double> hi, std::span<double> lo);

  /// Convenience scalar all-reduce.
  double allreduce_sum_scalar(double x);
  double allreduce_max_scalar(double x);

  /// Copies root's buffer into every rank's `data`.
  void broadcast(std::span<double> data, int root);

  /// Gathers variable-length rank-local blocks to `root`; returns the
  /// concatenation (rank order) on root and an empty vector elsewhere.
  std::vector<double> gather(std::span<const double> local, int root);

  /// One neighbor-exchange round: the caller publishes its own send
  /// buffer and reads peers' buffers; the communicator handles the
  /// two-phase synchronization and charges one p2p round to the cost
  /// model, the sum of each peer message's cost
  /// (NetworkModel::p2p_round_seconds, single-port injection).  Compute
  /// performed between exchange_begin and exchange_end (interior SpMV
  /// rows in the overlapped DistCsr::spmm) is credited against the
  /// modeled p2p latency, mirroring MPI_Irecv/Isend + interior work +
  /// Waitall.  No collective may run while the exchange is open: both
  /// use the rank's one publication slot.
  ///
  /// Usage:
  ///   comm.exchange_begin(my_send_buffer);
  ///   ... local compute, then read peer buffers via peer_buffer(r) ...
  ///   comm.exchange_end(peer_recv_bytes, total_recv_bytes);
  void exchange_begin(std::span<const double> send);
  [[nodiscard]] std::span<const double> peer_buffer(int peer) const;
  void exchange_end(std::span<const std::size_t> peer_recv_bytes,
                    std::size_t total_recv_bytes);

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CommStats{}; }

  /// Installs the fault-injection seam for this rank (util/fault.hpp);
  /// nullptr (the default) disables it with zero overhead on the hot
  /// paths.  Borrowed, job-scoped; the api facade installs it at the
  /// top of each spmd body.  The comm layer consults the
  /// `comm.allreduce` site at the entry of every allreduce; kernel
  /// layers (DistCsr::spmm, the ortho Gram) consult their own sites
  /// through consult_fault() on the communicator they already hold.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return fault_; }

  /// Consults a named fault site on this rank; no-op without an
  /// installed injector.
  void consult_fault(FaultSite site,
                     const FaultInjector::CorruptFn& corrupt = {}) {
    if (fault_ != nullptr) fault_->consult(rank_, site, corrupt);
  }

 private:
  void inject(double seconds);
  /// Charges `modeled` fabric seconds, crediting `compute_seconds` of
  /// it as overlapped and spinning only the exposed remainder.
  void inject_with_overlap(double modeled, double compute_seconds);
  /// Publishes `data` in the rank's slot for peers to read.
  void publish(std::span<const double> data);
  [[nodiscard]] const double* peer_slot(int peer) const;
  [[nodiscard]] std::size_t peer_size(int peer) const;

  SpmdContext& ctx_;
  int rank_;
  int local_sense_ = 0;
  std::chrono::steady_clock::time_point exchange_begin_{};
  bool exchange_open_ = false;
  std::vector<double> staging_;  // packed [hi..., lo...] dd publication
  std::vector<double> scratch_;  // fold workspace
  CommStats stats_;
  FaultInjector* fault_ = nullptr;  // borrowed, job-scoped (may be null)
};

}  // namespace tsbo::par
