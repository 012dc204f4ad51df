#pragma once
// Deterministic fault injection and cooperative cancellation.
//
// A FaultPlan is a list of (site, ordinal, action) triples: "at the
// ordinal-th visit of the named site, do X".  The instrumented layers
// (par::Communicator collectives, sparse::DistCsr's apply, the ortho
// layer's fused stage-1 Gram and Gram Cholesky, the solver service's
// dispatch) consult their site through the FaultInjector installed on
// the rank's communicator.  Determinism contract: SPMD ranks issue the
// instrumented operations in identical order, each rank owns its own
// per-site ordinal counters, and a fault fires iff (site, ordinal)
// matches a not-yet-fired plan entry — a pure function of the plan and
// the operation stream.  So every rank fires the same faults at the
// same logical point, trails are identical rank-to-rank, and the whole
// schedule is bitwise-reproducible at any ranks x threads combination
// (the counters never depend on wall clock or thread interleaving).
//
// Ordinal addressing is also rank-count-invariant: sites are consulted
// at logical algorithm boundaries (once per spmv, once per stage-1
// Gram, once per Gram Cholesky, ...) that exist at every rank count —
// e.g. DistCsr's apply consults `comm.exchange` even at ranks=1, where
// no exchange happens.
//
// Actions:
//   throw       InjectedFault raised on every rank at the consult
//               point (before any publication, so no rank is left
//               inside a half-open collective).
//   delay<ms>   every rank sleeps <ms> milliseconds — wall-clock only,
//               values untouched (deadline / overlap tests).
//   corrupt     one double has exponent bit 58 flipped (a 2^64 scale
//               change: huge enough that the residual guard always
//               sees it, finite so the arithmetic keeps running).  The
//               consulting site chooses the payload; the spmv sites
//               address a *global* vector entry, so the corrupted
//               state — and the whole downstream trajectory — is
//               bitwise-identical at any rank count.  At `gram.chol`
//               the payload is the factorization's verdict: it
//               reports indefinite.
//
// The injector is scoped to a JOB, not a solve: fired entries never
// re-fire, so a retried attempt runs clean (the service's
// retry-after-corrupt path converges to the clean solution bitwise).
//
// CancelToken lives here too: the cooperative cancellation flag +
// deadline the krylov solvers poll at restart boundaries.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsbo::par {

/// The named injection sites (docs/algorithms.md "Fault injection").
enum class FaultSite : int {
  kCommAllreduce = 0,  ///< entry of every (i)allreduce collective
  kCommExchange,       ///< halo-exchange leg of DistCsr::spmm
  kSpmvInterior,       ///< interior sweep of DistCsr::spmm
  kGramStage1,         ///< fused stage-1 Gram (ortho layer)
  kServiceDispatch,    ///< per-attempt job dispatch (solver service)
  kGramChol,           ///< every Gram Cholesky (ortho layer)
};
inline constexpr int kNumFaultSites = 6;

const char* fault_site_name(FaultSite site);

enum class FaultAction : int {
  kThrow = 0,
  kDelay,
  kCorrupt,
};

const char* fault_action_name(FaultAction action);

/// One planned fault: fire `action` at the `ordinal`-th visit of
/// `site` (per attempt; ordinals restart at 0 each attempt).
struct FaultSpec {
  FaultSite site = FaultSite::kCommAllreduce;
  long ordinal = 0;
  FaultAction action = FaultAction::kThrow;
  int delay_ms = 0;  ///< kDelay only
};

/// A parseable, serializable fault schedule.  Spec syntax (the
/// SolverOptions `faults` key):
///   "site@ordinal:action[;site@ordinal:action...]"
/// with action one of "throw", "corrupt", "delay<ms>", e.g.
///   "comm.allreduce@3:throw;spmv.interior@2:corrupt;gram.stage1@1:delay250"
struct FaultPlan {
  std::vector<FaultSpec> faults;

  /// Parses the spec syntax above; "" yields an empty plan.  Throws
  /// std::invalid_argument (with a did-you-mean hint on site-name
  /// typos) on malformed input.
  static FaultPlan parse(const std::string& spec);

  /// Round-trips through parse().
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool empty() const { return faults.empty(); }
};

/// Raised by a "throw" fault — on every rank, at the same consult
/// point, with identical what() text.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, long ordinal);

  [[nodiscard]] FaultSite site() const { return site_; }
  [[nodiscard]] long ordinal() const { return ordinal_; }

 private:
  FaultSite site_;
  long ordinal_;
};

/// One fired fault (a trail entry; identical on every rank).
struct FaultRecord {
  FaultSite site = FaultSite::kCommAllreduce;
  long ordinal = 0;
  FaultAction action = FaultAction::kThrow;
  int delay_ms = 0;
  int attempt = 1;  ///< 1-based attempt the fault fired in
};

/// Executes a FaultPlan deterministically (see the header comment for
/// the full contract).  One injector per job; each rank thread
/// consults through its own RankState, so no synchronization is
/// needed and counters can never race.
class FaultInjector {
 public:
  /// Applies the corrupt action: receives the matched plan ordinal and
  /// flips one bit of the site's payload at a position derived from it.
  using CorruptFn = std::function<void(long ordinal)>;

  FaultInjector(FaultPlan plan, int nranks);

  /// Resets every rank's per-site ordinal counters for a fresh attempt
  /// (fired flags persist: a fired fault never re-fires, so retries
  /// run clean).  Call only between attempts, never during a solve.
  void begin_attempt(int attempt);

  /// Consults `site` from rank `rank`'s thread: advances the rank's
  /// counter and, on a match, records the fault and applies its action
  /// (throw InjectedFault / sleep / invoke `corrupt`).
  void consult(int rank, FaultSite site, const CorruptFn& corrupt = {});

  /// The corrupt primitive: XORs exponent bit 58 (a 2^64 scale flip).
  static void flip_bit(double& v);

  /// The fired-fault trail of one rank (all ranks' trails are
  /// identical for the SPMD sites; rank 0 additionally carries
  /// service.dispatch entries, so reports read rank 0's).
  [[nodiscard]] const std::vector<FaultRecord>& trail(int rank = 0) const {
    return ranks_.at(static_cast<std::size_t>(rank)).trail;
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool empty() const { return plan_.empty(); }

 private:
  struct RankState {
    std::array<long, kNumFaultSites> counters{};
    std::vector<char> fired;  ///< per plan entry, persists across attempts
    std::vector<FaultRecord> trail;
  };

  FaultPlan plan_;
  int attempt_ = 1;
  std::vector<RankState> ranks_;
};

/// Cooperative cancellation: a flag (cancel()) plus an optional
/// monotonic-clock deadline.  The krylov solvers poll should_stop() at
/// restart boundaries — through a collective max-reduce, so every rank
/// takes the same exit and no rank is left inside a collective.
/// Thread-safe: cancel() may race with polls; set_deadline_after()
/// must happen-before the token is shared (the service arms it at
/// dispatch, before the solve starts).
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms the deadline `budget` from now.
  void set_deadline_after(std::chrono::milliseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
    has_deadline_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool deadline_expired() const {
    return has_deadline_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() >= deadline_;
  }
  [[nodiscard]] bool should_stop() const {
    return cancelled() || deadline_expired();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace tsbo::par
