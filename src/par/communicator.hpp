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
// Split-phase runtime: every collective exists in a nonblocking
// begin+wait form (iallreduce_sum / iallreduce_sum_dd / ibroadcast
// returning a CommRequest, and the exchange_begin/exchange_end pair for
// neighbor rounds).  The modeled fabric latency of a split-phase
// operation is *discounted* by the wall-clock compute performed between
// begin and wait — CommStats::overlapped_seconds accounts the hidden
// share, injected_seconds the exposed share actually spun — so
// compute–communication overlap changes the measured time exactly as
// MPI_Iallreduce + MPI_Wait would on a real fabric, while the reduced
// values themselves stay bitwise independent of the overlap window.
// The blocking collectives are thin begin+wait pairs over the same
// machinery (with no overlap credit: their window contains no compute).
//
// Multiple requests may be in flight per rank (up to kMaxInflight),
// including neighbor exchanges nested inside a pending collective
// window.  Per-window
// overlap accounting mirrors a real fabric: every pending operation
// progresses concurrently in wall-clock time, so one stretch of
// compute earns credit in EVERY window that spans it, and the exposed
// spin of one wait counts as progress for its still-pending siblings
// (the NIC keeps working while the host blocks in MPI_Wait).  Waits
// must occur in the same order on every rank (the usual MPI collective
// ordering contract); out-of-order with respect to issue order is
// fine.

#include "par/network_model.hpp"
#include "util/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tsbo::par {

class Communicator;

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
  /// Modeled fabric time hidden behind compute between a split-phase
  /// begin and its wait.  injected + overlapped == total modeled cost.
  double overlapped_seconds = 0.0;
};

/// after - before, for windowed accounting around a solver call.
CommStats subtract(const CommStats& after, const CommStats& before);

/// Number of split-phase collectives a rank may have in flight at
/// once (the publication slots are a small ring, like an MPI
/// implementation with a few pre-posted envelopes).
inline constexpr int kMaxInflight = 8;

/// Handle for one in-flight split-phase collective.  Move-only; up to
/// kMaxInflight requests may be outstanding per rank, and waits may be
/// issued in any order as long as every rank waits in the SAME order.
/// wait() completes the operation — called implicitly by the
/// destructor so an exception unwinding through an overlap window
/// keeps all ranks in lockstep (siblings still pending are unaffected).
/// Between begin and wait the caller must not touch the published
/// buffers.
class CommRequest {
 public:
  CommRequest() = default;
  CommRequest(CommRequest&& o) noexcept { *this = std::move(o); }
  CommRequest& operator=(CommRequest&& o) noexcept;
  CommRequest(const CommRequest&) = delete;
  CommRequest& operator=(const CommRequest&) = delete;
  ~CommRequest() { wait(); }

  /// Completes the collective: synchronizes with peers, materializes
  /// the result in the begin-call's buffers, and injects the exposed
  /// share of the modeled latency.  No-op on an empty/completed handle.
  void wait();

  /// Opts this request out of overlap accounting: the full modeled
  /// latency is charged as exposed at wait().  The blocking wrappers
  /// (Communicator's and the ortho layer's) use it so only engineered
  /// begin/wait windows earn overlapped_seconds.
  void no_overlap_credit() { overlap_credit_ = false; }

  [[nodiscard]] bool active() const { return comm_ != nullptr; }

 private:
  friend class Communicator;
  enum class Kind { kSum, kSumDd, kBcast };

  Communicator* comm_ = nullptr;
  Kind kind_ = Kind::kSum;
  std::span<double> a_{};  // inout payload (hi plane for kSumDd)
  std::span<double> b_{};  // lo plane (kSumDd only)
  int root_ = 0;           // kBcast only
  int slot_ = 0;           // publication-slot index within the ring
  double modeled_seconds_ = 0.0;
  bool overlap_credit_ = true;  // blocking wrappers opt out
  std::chrono::steady_clock::time_point begin_{};
};

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

  // Sense-reversing central barrier.
  std::atomic<int> arrived_{0};
  std::atomic<int> sense_{0};

  // Publication slots for zero-copy collectives: a ring of kMaxInflight
  // entries per rank, so several split-phase requests can be in flight
  // at once.  Slot (rank, s) lives at index rank * kMaxInflight + s.
  // Slot assignment is rank-local but deterministic, and SPMD programs
  // issue collectives in the same order on every rank, so all ranks
  // agree on which slot a given logical collective occupies.
  std::vector<const void*> slots_;
  std::vector<std::size_t> sizes_;

  // Dedicated per-rank slot for neighbor exchanges, separate from the
  // collective ring so a halo exchange can open inside a pending
  // collective window without clobbering its publication.
  std::vector<const void*> xslots_;
  std::vector<std::size_t> xsizes_;
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

  /// Split-phase counterparts: publish the payload and return
  /// immediately; the reduction completes (and the result lands in the
  /// caller's buffers) at CommRequest::wait().  Compute performed
  /// between begin and wait is credited against the modeled fabric
  /// latency (CommStats::overlapped_seconds).  The sum is bitwise
  /// identical to the blocking form regardless of the overlap window.
  [[nodiscard]] CommRequest iallreduce_sum(std::span<double> inout);
  [[nodiscard]] CommRequest iallreduce_sum_dd(std::span<double> hi,
                                              std::span<double> lo);

  /// Convenience scalar all-reduce.
  double allreduce_sum_scalar(double x);
  double allreduce_max_scalar(double x);

  /// Copies root's buffer into every rank's `data`.
  void broadcast(std::span<double> data, int root);

  /// Split-phase broadcast: root publishes at begin; every rank's
  /// `data` holds root's payload after wait().
  [[nodiscard]] CommRequest ibroadcast(std::span<double> data, int root);

  /// Gathers variable-length rank-local blocks to `root`; returns the
  /// concatenation (rank order) on root and an empty vector elsewhere.
  std::vector<double> gather(std::span<const double> local, int root);

  /// One neighbor-exchange round: the caller publishes its own send
  /// buffer and reads peers' buffers; the communicator handles the
  /// two-phase synchronization and charges one p2p round to the cost
  /// model — the per-peer overload sums each peer message's cost
  /// (NetworkModel::p2p_round_seconds, single-port injection), the
  /// legacy single-size overloads charge one message.  Compute
  /// performed between exchange_begin and exchange_end (interior SpMV
  /// rows in the overlapped DistCsr::spmv) is credited against the
  /// modeled p2p latency, mirroring MPI_Irecv/Isend + interior work +
  /// Waitall.  An exchange may nest inside pending split-phase
  /// collective windows (it uses dedicated publication slots).
  ///
  /// Usage:
  ///   comm.exchange_begin(my_send_buffer);
  ///   ... local compute, then read peer buffers via peer_buffer(r) ...
  ///   comm.exchange_end(peer_recv_bytes, total_recv_bytes);
  void exchange_begin(std::span<const double> send);
  [[nodiscard]] std::span<const double> peer_buffer(int peer) const;
  void exchange_end(std::span<const std::size_t> peer_recv_bytes,
                    std::size_t total_recv_bytes);
  void exchange_end(std::size_t max_recv_bytes, std::size_t total_recv_bytes);
  void exchange_end(std::size_t max_recv_bytes) {
    exchange_end(max_recv_bytes, max_recv_bytes);
  }

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CommStats{}; }

  /// Installs the fault-injection seam for this rank (util/fault.hpp);
  /// nullptr (the default) disables it with zero overhead on the hot
  /// paths.  Borrowed, job-scoped; the api facade installs it at the
  /// top of each spmd body.  The comm layer consults the
  /// `comm.allreduce` site at the entry of every (i)allreduce; kernel
  /// layers (DistCsr::spmv, the ortho Gram) consult their own sites
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
  friend class CommRequest;

  void inject(double seconds);
  /// Charges `modeled` fabric seconds, crediting `compute_seconds` of
  /// it as overlapped and spinning only the exposed remainder.
  void inject_with_overlap(double modeled, double compute_seconds);
  CommRequest make_request(CommRequest::Kind kind, std::span<double> a,
                           std::span<double> b, int root, double modeled);
  void complete(CommRequest& req);
  /// Publishes `data` in the rank's collective ring slot `slot`.
  void publish(int slot, std::span<const double> data);
  [[nodiscard]] const double* peer_slot(int peer, int slot) const;

  SpmdContext& ctx_;
  int rank_;
  int local_sense_ = 0;
  int inflight_ = 0;  // outstanding split-phase collectives
  bool slot_busy_[kMaxInflight] = {};
  std::chrono::steady_clock::time_point exchange_begin_{};
  bool exchange_open_ = false;
  // Per-slot staging for dd publications: the packed [hi..., lo...]
  // payload must stay stable for the life of its request, so each ring
  // slot owns a buffer.  Non-dd sums publish the caller's buffer
  // directly (zero copy) and only use staging at fold time.
  std::vector<double> staging_[kMaxInflight];
  std::vector<double> scratch_;   // fold workspace (waits are serialized)
  std::vector<double> scratch2_;  // dd fold result (staging stays published)
  CommStats stats_;
  FaultInjector* fault_ = nullptr;  // borrowed, job-scoped (may be null)
};

}  // namespace tsbo::par
