#pragma once
// Wall-clock and phase timers.
//
// The benchmark harnesses need the same per-phase accounting the paper
// reports (SpMV / Ortho / Total, and within Ortho: dot-products,
// reduce, vector-updates, Cholesky+TRSM; Figs. 10-12).  PhaseTimers is
// a fixed table of accumulators indexed by Phase; each rank of the SPMD
// runtime owns one, and the harness reduces them (max across ranks, as
// MPI codes conventionally report).  kPhases below is the one place
// that names a bucket and says which paper phase it feeds.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tsbo::util {

/// Monotonic wall-clock stopwatch with microsecond-ish resolution.
class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// A timed bucket.  Declared in the byte order of the bucket names, so
/// enum order is the report's key order.
enum class Phase : std::uint8_t {
  kOrthoChol,    ///< Gram Cholesky (+ shifted retries, Pythagorean update)
  kOrthoDot,     ///< local block dot products / Gram GEMMs
  kOrthoHhqr,    ///< Householder QR local sweeps, Q forming, sign fix
  kOrthoReduce,  ///< global all-reduces and broadcasts of ortho data
  kOrthoSmall,   ///< Hessenberg / least-squares bookkeeping
  kOrthoTrsm,    ///< V := V R^{-1}
  kOrthoUpdate,  ///< V -= Q R
  kPrecond,      ///< preconditioner applies
  kSpmvComm,     ///< halo exchange of the distributed SpMV
  kSpmvLocal,    ///< local SpMV rows and the MPK recurrence pass
  kTotal,        ///< the whole solve
};
inline constexpr std::size_t kPhaseCount = 11;

/// The phases of the paper's breakdown figures each bucket feeds.
enum class PaperPhase : std::uint8_t {
  kSpmv,
  kPrecond,
  kOrthoDot,
  kOrthoReduce,
  kOrthoUpdate,
  kOrthoFactor,  ///< Cholesky + TRSM (+ HHQR)
  kOrthoSmall,
  kTotal,
};

struct PhaseInfo {
  std::string_view name;  ///< report key ("phase_seconds")
  PaperPhase paper;
};

/// The phase table, in enum order.
inline constexpr std::array<PhaseInfo, kPhaseCount> kPhases{{
    {"ortho/chol", PaperPhase::kOrthoFactor},
    {"ortho/dot", PaperPhase::kOrthoDot},
    {"ortho/hhqr", PaperPhase::kOrthoFactor},
    {"ortho/reduce", PaperPhase::kOrthoReduce},
    {"ortho/small", PaperPhase::kOrthoSmall},
    {"ortho/trsm", PaperPhase::kOrthoFactor},
    {"ortho/update", PaperPhase::kOrthoUpdate},
    {"precond", PaperPhase::kPrecond},
    {"spmv/comm", PaperPhase::kSpmv},
    {"spmv/local", PaperPhase::kSpmv},
    {"total", PaperPhase::kTotal},
}};

static_assert(static_cast<std::size_t>(Phase::kTotal) + 1 == kPhaseCount);
static_assert([] {
  for (std::size_t i = 1; i < kPhaseCount; ++i) {
    if (!(kPhases[i - 1].name < kPhases[i].name)) return false;
  }
  return true;
}(), "kPhases must list the bucket names in byte order");

[[nodiscard]] constexpr std::string_view name(Phase p) {
  return kPhases[static_cast<std::size_t>(p)].name;
}

/// The ortho buckets the paper's breakdown figures plot (Figs. 10-12).
struct OrthoBreakdown {
  double dot = 0.0;     ///< local block dot products
  double reduce = 0.0;  ///< global all-reduces (incl. modeled latency)
  double update = 0.0;  ///< vector updates (GEMM)
  double factor = 0.0;  ///< Cholesky + TRSM (+ HHQR)
  double small = 0.0;   ///< Hessenberg/Givens bookkeeping
  [[nodiscard]] double total() const {
    return dot + reduce + update + factor + small;
  }
};

/// Accumulating phase timers: start/stop pairs add into a bucket.
/// Every phase but kTotal is a leaf, and at most one leaf runs at a
/// time, so no second lands in two leaf buckets.  Not thread-safe:
/// each SPMD rank owns its own instance.
class PhaseTimers {
 public:
  /// Starts the phase; throws std::logic_error if it is already
  /// running, or if it is a leaf and another leaf is running.
  void start(Phase p);

  /// Stops the phase and accumulates the elapsed time; throws
  /// std::logic_error if it is not running.
  void stop(Phase p);

  /// Accumulated seconds of a phase; zero when never started.
  [[nodiscard]] double seconds(Phase p) const { return slot(p).seconds; }

  /// Number of start/stop pairs recorded for the phase.
  [[nodiscard]] std::uint64_t count(Phase p) const { return slot(p).count; }

  /// Sum over the buckets that feed paper phase `p`, in enum order.
  [[nodiscard]] double seconds(PaperPhase p) const;

  /// The five ortho paper phases; ortho().total() is the ortho time.
  [[nodiscard]] OrthoBreakdown ortho() const;

 private:
  struct Slot {
    double seconds = 0.0;
    std::uint64_t count = 0;
    std::chrono::steady_clock::time_point started{};
    bool running = false;
  };
  [[nodiscard]] const Slot& slot(Phase p) const {
    return slots_[static_cast<std::size_t>(p)];
  }
  std::array<Slot, kPhaseCount> slots_{};
  /// The running leaf phase; kTotal when none runs.
  Phase leaf_ = Phase::kTotal;
};

/// RAII guard: times a lexical scope into `timers` (a null pointer
/// times nothing).
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimers* timers, Phase phase)
      : timers_(timers), phase_(phase) {
    if (timers_) timers_->start(phase_);
  }
  ~ScopedPhase() noexcept {
    if (timers_) timers_->stop(phase_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimers* timers_;
  Phase phase_;
};

/// Busy-waits for the given duration with sub-microsecond fidelity.
/// Used by the network cost model to inject latency; sleep_for() is far
/// too coarse at the 5-50 us scale of interconnect latencies.
void spin_wait(double seconds);

}  // namespace tsbo::util
