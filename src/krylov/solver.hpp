#pragma once
// Shared solver configuration and result types.

#include "ortho/multivector.hpp"
#include "par/communicator.hpp"
#include "util/timer.hpp"

#include <functional>
#include <string>
#include <vector>

namespace tsbo::krylov {

using dense::index_t;

/// Snapshot handed to a solver's per-restart observer (progress
/// reporting, residual-history capture).  `timers` points at the live
/// per-rank accumulator: valid only for the duration of the callback.
/// Note the "total" bucket is still running at a restart boundary —
/// snapshot the phase buckets (ortho/*, spmv/*, precond), which are
/// closed between events.
struct ProgressEvent {
  long iters = 0;       ///< cumulative inner iterations
  int restarts = 0;     ///< completed restart cycles
  double relres = 0.0;  ///< recurrence residual estimate
  /// ||b - A x|| / ||b|| recomputed explicitly at the restart boundary
  /// (free: restarted GMRES rebuilds the residual anyway); a block
  /// solve reports its worst active column.
  double explicit_relres = 0.0;
  bool converged = false;
  const util::PhaseTimers* timers = nullptr;
};

/// Invoked once per completed restart cycle, on the rank that carries
/// the callback (the api facade installs it on rank 0 only).  Must be
/// cheap: it runs inside the timed solve.
using ProgressCallback = std::function<void(const ProgressEvent&)>;

/// Sums over the phase-timer buckets (seconds).  The single source of
/// truth for which buckets make up each paper-level phase — shared by
/// SolveResult's accessors and the api layer's per-restart snapshots.
[[nodiscard]] inline double spmv_seconds(const util::PhaseTimers& t) {
  return t.seconds("spmv/comm") + t.seconds("spmv/local");
}
[[nodiscard]] inline double precond_seconds(const util::PhaseTimers& t) {
  return t.seconds("precond");
}
[[nodiscard]] inline double ortho_seconds(const util::PhaseTimers& t) {
  return t.seconds("ortho/dot") + t.seconds("ortho/reduce") +
         t.seconds("ortho/update") + t.seconds("ortho/trsm") +
         t.seconds("ortho/chol") + t.seconds("ortho/hhqr") +
         t.seconds("ortho/small");
}

/// One stability-autopilot decision, recorded by sstep_gmres when
/// SStepGmresConfig::autopilot is enabled.  Every decision is driven by
/// globally-reduced quantities (the replicated Gram factor's diagonal),
/// so all ranks record identical event streams at any thread count.
/// Kinds: "shrink_s" / "grow_s" (step-size ladder moves),
/// "escalate_gram" / "relax_gram" (double <-> double-double Gram), and
/// "rebase" (a CholeskyBreakdown was caught and the cycle re-based from
/// the last accepted column).
struct AutopilotEvent {
  int restart = 0;     ///< completed restart cycles when the decision fired
  std::string kind;
  double kappa = 0.0;  ///< cycle's peak basis-kappa estimate that drove it
  index_t s_before = 0;
  index_t s_after = 0;
  bool dd_before = false;  ///< Gram precision before/after (double-double?)
  bool dd_after = false;
};

/// Per-right-hand-side outcome of an s-step solve.  The solver tracks
/// each column's convergence independently and deflates accepted
/// columns at restart boundaries.
struct RhsResult {
  bool converged = false;
  long iters = 0;          ///< flat inner iterations the column was active for
  double relres = 0.0;     ///< recurrence residual estimate at exit
  double true_relres = 0.0;  ///< explicit residual measured at exit
  int deflated_at_restart = -1;  ///< restart index the column froze at (-1 =
                                 ///< active through the final cycle)
};

/// Outcome of a linear solve.
struct SolveResult {
  bool converged = false;
  long iters = 0;      ///< inner iterations (paper's "# iters" column)
  int restarts = 0;    ///< completed restart cycles
  double relres = 0.0; ///< recurrence residual estimate at exit
  double true_relres = 0.0;  ///< ||b - A x|| / ||b|| measured at exit

  util::PhaseTimers timers;   ///< SpMV / precond / ortho phase breakdown
  par::CommStats comm_stats;  ///< collected from the rank's communicator
  int cholesky_breakdowns = 0;
  int shift_retries = 0;

  /// Cooperative-cancellation exits (Config::cancel): the solve was
  /// stopped at a restart boundary by an explicit cancel() or by its
  /// deadline.  x holds the best iterate so far; converged stays as
  /// the iteration left it (normally false).  All ranks agree (the
  /// poll is a collective max-reduce).
  bool cancelled = false;
  bool deadline_expired = false;

  /// Pipelined s-step runtime counters: speculative next-panel MPK
  /// sweeps generated inside a stage-1 reduce window that were consumed
  /// by the following panel (hits) vs discarded because the cycle
  /// converged or ended first (misses).  Zero for schemes without a
  /// split stage-1 path.
  long lookahead_hits = 0;
  long lookahead_misses = 0;

  /// Stability-autopilot trace (sstep_gmres).  max_kappa is maintained
  /// by the conditioning monitor whether or not the autopilot policy is
  /// enabled; the events/recoveries only accrue when it is.
  std::vector<AutopilotEvent> autopilot_events;
  double autopilot_max_kappa = 0.0;  ///< peak per-panel basis-kappa estimate
  int rebase_recoveries = 0;  ///< CholeskyBreakdowns recovered by re-basing
  index_t autopilot_final_s = 0;     ///< step size in effect at exit
  bool autopilot_final_dd = false;   ///< Gram precision in effect at exit

  /// Per-RHS outcomes of an s-step solve, one per column in column
  /// order (empty for standard GMRES).  The scalar fields above
  /// aggregate them: converged = all columns converged,
  /// relres/true_relres = the worst column's.
  std::vector<RhsResult> rhs_results;

  /// Convenience sums over the timer buckets (seconds).
  [[nodiscard]] double time_spmv() const { return spmv_seconds(timers); }
  [[nodiscard]] double time_precond() const { return precond_seconds(timers); }
  [[nodiscard]] double time_ortho() const { return ortho_seconds(timers); }
  [[nodiscard]] double time_total() const { return timers.seconds("total"); }
};

}  // namespace tsbo::krylov
