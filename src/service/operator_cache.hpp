#pragma once
// Keyed operator cache for the persistent solver service.
//
// The paper's amortization argument — setup-heavy two-stage
// BCGS+CholQR pays for itself over many panels — extends from panels
// to whole solves once a long-lived process serves repeat requests
// against the same operator.  This cache holds everything a solve
// needs that depends only on (matrix source, size, partition): the
// assembled CSR matrix, its api::PreparedOperator (the same per-rank
// pieces, lazily filled preconditioner setup slots and solution
// scratch a standalone api::Solver builds for itself), the all-ones
// RHS, and the previous solutions for warm starts.  Entries are
// LRU-evicted under a configurable byte budget; hits/misses/evictions
// are counted for the service report.
//
// Thread safety: the cache map itself is mutex-guarded.  Entries are
// handed out as shared_ptr, so an evicted entry stays alive until the
// job using it finishes.  A prepared operator's pieces each own a
// mutable halo buffer, so at most one solve may run against an entry
// at a time — callers hold `in_use` for the solve (the service
// serializes same-operator jobs this way; different operators run
// concurrently).

#include "api/options.hpp"
#include "api/prepared.hpp"
#include "sparse/csr.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace tsbo::service {

/// Canonical cache key of an operator: the option keys that determine
/// the assembled matrix and its partition (matrix source + geometry +
/// equilibration + rank count).  Solver/ortho/preconditioner settings
/// are deliberately excluded — they change how the operator is used,
/// not what it is.
std::string operator_cache_key(const api::SolverOptions& opts);

/// Deterministic FNV-1a fold of an RHS's value bits — the fingerprint
/// warm-start seeds are keyed by, so interleaved job streams with
/// different right-hand sides never seed each other with mismatched
/// guesses.  The span overload fingerprints one column of a batched
/// (rhs=k) job's RHS block, so batch columns and single-RHS jobs that
/// solve the same b share seeds.
std::uint64_t rhs_fingerprint(std::span<const double> b);
std::uint64_t rhs_fingerprint(const std::vector<double>& b);

/// Warm-start seeds kept per cached operator (most-recent first).
inline constexpr std::size_t kMaxSolutionSeeds = 8;

/// One cached operator and its reusable setup.
struct CachedOperator {
  std::string key;
  std::string label;          ///< matrix provenance (report label)
  sparse::CsrMatrix matrix;   ///< assembled (and equilibrated) CSR
  /// Per-rank pieces, setup slots and scratch (api::Solver::set_prepared).
  /// Each solve's rank r touches only piece r, and solves on one entry
  /// are serialized by `in_use`, so the slots need no extra locking.
  api::PreparedOperator prepared;
  std::vector<double> ones_b;  ///< b = A * ones (default RHS)

  /// Warm-start seeds: gathered solutions of recent solves against
  /// this operator, keyed by the RHS fingerprint they solved (exact
  /// fingerprint match preferred; most-recent as fallback for a
  /// perturbed RHS).  Most-recent first, capped at kMaxSolutionSeeds;
  /// guarded by in_use.
  struct SolutionSeed {
    std::uint64_t rhs_fingerprint = 0;
    std::vector<double> x;
  };
  std::vector<SolutionSeed> seeds;

  std::mutex in_use;  ///< held for the duration of one solve

  double build_seconds = 0.0;  ///< wall time the cache miss paid

  /// matrix.checksum() at build time.  After a corrupted-verdict solve
  /// the service re-validates the live matrix against this; a mismatch
  /// means the cached operator itself was mutated (injected
  /// service.dispatch corruption, stray write, soft error) and the
  /// entry is invalidated so the retry rebuilds clean state.
  std::uint64_t matrix_checksum = 0;

  /// Approximate heap footprint of everything above.
  [[nodiscard]] std::size_t bytes() const;
};

class OperatorCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// budget_bytes: LRU eviction threshold.  A single entry larger than
  /// the whole budget is still admitted (evicting everything else) —
  /// the cache never refuses to serve a job.
  explicit OperatorCache(std::size_t budget_bytes);

  /// Returns the entry for `opts`' operator, building it on a miss
  /// (outside the cache lock; a concurrent builder of the same key may
  /// win the insert race, in which case its entry is shared and this
  /// build is discarded).  `hit` (optional) receives whether reusable
  /// state existed.
  std::shared_ptr<CachedOperator> acquire(const api::SolverOptions& opts,
                                          bool* hit);

  /// Re-reads `op->bytes()` and re-enforces the budget — call after
  /// growing an entry in place (lazy preconditioner setups).
  void refresh_bytes(const std::shared_ptr<CachedOperator>& op);

  /// Drops the entry with `key` (if cached): the next acquire()
  /// rebuilds it.  Jobs already holding the shared_ptr keep their
  /// (possibly poisoned) entry alive until they finish.  Returns
  /// whether an entry was dropped.
  bool invalidate(const std::string& key);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t budget_bytes() const;
  [[nodiscard]] bool contains(const std::string& key) const;

 private:
  struct Slot {
    std::shared_ptr<CachedOperator> op;
    std::size_t bytes = 0;  ///< accounted footprint at last refresh
  };

  void enforce_budget_locked();

  mutable std::mutex mu_;
  std::size_t budget_;
  std::list<Slot> lru_;  ///< front = most recently used
  std::size_t total_bytes_ = 0;
  Stats stats_;
};

/// Builds a CachedOperator for `opts` (matrix assembly, its prepared
/// operator, ones-RHS).  Exposed for tests that need to size byte
/// budgets.
std::shared_ptr<CachedOperator> build_operator(const api::SolverOptions& opts);

}  // namespace tsbo::service
