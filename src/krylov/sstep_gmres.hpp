#pragma once
// s-step (communication-avoiding) GMRES — paper Fig. 1 — with pluggable
// block orthogonalization (paper Sections IV-V), for one right-hand
// side or a block of b of them (batched multi-RHS, block Hessenberg
// recurrences after phist's bgmres.m).  One engine serves every width.
//
// Per outer panel: the matrix-powers kernel generates s new basis
// blocks (standard MPK: s sequential preconditioned SpMVs), then the
// configured BlockOrthoManager orthogonalizes them.  The Hessenberg
// matrix is assembled from the accumulated R/L coefficient matrices
// (H L = R-shifted; see hessenberg.hpp) for every column the manager
// has finalized, and convergence is checked at that granularity:
// every s steps for the one-stage schemes, every bs steps for the
// two-stage scheme — reproducing the paper's iteration-count rounding
// (Table III: 60251 / 60255 / 60300).
//
// Block width b: the basis interleaves the b RHS streams — flat column
// c = j*b + t carries RHS t's contribution to block step j — so each
// panel is s*b flat columns wide.  The ortho machinery, the fused Gram
// reduces and the stage-2 flush run unchanged on the wider panels, and
// the synchronization count per outer iteration does not depend on b.
// Every operator application feeds all b columns through ONE fused
// preconditioner sweep and ONE halo exchange (DistCsr::spmm).
//
// The width-1 kernels are chosen by the layers below, keyed on the
// width they observe: DistCsr::spmm and PrecOperator::apply_block /
// apply_minv_multi run the single-vector spmv / apply at one column;
// dense::BlockHessenbergLeastSquares runs Givens at b = 1 and
// Householder-on-H above; ortho::residual_gram / seed_block take the
// sumsq + all-reduce norm and the r / gamma seed at one column (no Gram
// Cholesky).  So a width-1 solve is the classic single-RHS s-step
// GMRES, bit for bit.
//
// Per-column acceptance: at every restart boundary column t is
// accepted when its least-squares estimate or its explicit residual
// is <= rtol * ref_t; accepted columns deflate — their solution column
// freezes and the next cycle restarts with a narrower block — so one
// hard RHS cannot keep converged ones iterating.  For b > 1 the
// stability autopilot is rejected by validation (it is a width-1
// feature); solutions are bitwise reproducible across thread counts and
// stable across rank counts.

#include "krylov/gmres.hpp"
#include "krylov/matrix_powers.hpp"
#include "krylov/solver.hpp"
#include "ortho/manager.hpp"

#include <vector>

namespace tsbo::krylov {

struct SStepGmresConfig;

/// Builds a config's block-orthogonalization manager (one per scheme).
using ManagerFactory = std::function<std::unique_ptr<ortho::BlockOrthoManager>(
    const SStepGmresConfig&)>;

struct SStepGmresConfig {
  index_t m = 60;  ///< restart length; must be a multiple of s
  index_t s = 5;   ///< step size (paper's conservative default)
  index_t bs = 60; ///< two-stage second step size (s <= bs <= m, s | bs)

  BasisKind basis = BasisKind::kMonomial;
  /// Spectral interval for Newton/Chebyshev bases (ignored for
  /// monomial).
  double lambda_min = 0.0;
  double lambda_max = 0.0;

  double rtol = 1e-6;
  /// Per-column convergence reference norms.  Empty = each column
  /// relative to its own ||b_t - A x0_t|| (the classic criterion);
  /// otherwise one norm per right-hand side, each > 0 fixing that
  /// column's reference (see GmresConfig::conv_reference — the
  /// warm-start path) and 0 keeping the classic one.
  std::vector<double> conv_reference;
  long max_iters = 1000000;
  int max_restarts = 1000000;
  ortho::BreakdownPolicy policy = ortho::BreakdownPolicy::kShift;
  bool mixed_precision_gram = false;  ///< double-double Gram extension

  /// Stability autopilot (docs/algorithms.md "Stability autopilot";
  /// single right-hand side only — enabling it with b > 1 is rejected).
  /// When enabled, the solver polls the ortho layer's per-panel Gram
  /// conditioning monitor (OrthoContext::take_gram_kappa_peak; sqrt of
  /// the Gram estimate lower-bounds the basis kappa the paper's
  /// conditions (1)/(5)/(9) constrain) and, at each restart boundary,
  /// walks a policy ladder: shrink s toward s_min while the estimate
  /// exceeds kappa_high, then escalate the Gram to double-double; relax
  /// one rung (dd first, then grow s back toward the configured s)
  /// after `patience` consecutive cycles below kappa_low.  A
  /// CholeskyBreakdown mid-cycle is caught and the cycle re-based from
  /// the last accepted column (BlockOrthoManager::
  /// rebase_after_breakdown) instead of aborting — the breakdown
  /// policy is forced to kThrow internally so breakdowns surface to
  /// the autopilot rather than being shift-perturbed.  All inputs are
  /// globally-reduced quantities: decisions are bitwise-deterministic
  /// at any rank x thread count.
  struct Autopilot {
    bool enabled = false;
    /// Basis-kappa estimate above which the policy escalates a rung.
    /// Default sits an order of magnitude inside the eps^{-1/2} ~ 6.7e7
    /// plain-double cliff, so escalation fires before breakdown does.
    double kappa_high = 1e7;
    /// Estimate below which a cycle counts as healthy.
    double kappa_low = 1e5;
    index_t s_min = 1;  ///< smallest step size the ladder may shrink to
    int patience = 2;   ///< healthy cycles required before relaxing
  };
  Autopilot autopilot;

  /// Deterministic fault-injection seam, forwarded to
  /// OrthoContext::inject_breakdown (tests only): called once per Gram
  /// Cholesky with the global attempt ordinal; return true to force
  /// that factorization to report indefinite.
  std::function<bool(long)> inject_chol_breakdown;

  /// Optional per-restart observer (see solver.hpp).
  ProgressCallback on_restart;

  /// Cooperative cancellation: when non-null, polled at every restart
  /// boundary through a collective max-reduce (all ranks take the same
  /// exit; adds one sync per restart only when installed).  On stop the
  /// result carries cancelled / deadline_expired and the best iterate.
  const par::CancelToken* cancel = nullptr;

  /// Builds the block-orthogonalization manager — the one scheme
  /// dispatch path (the api ortho registry installs one per scheme).
  /// Receives the config with m/s/bs counted in flat columns (scaled by
  /// the block width).  Empty = make_two_stage.
  ManagerFactory manager_factory;
};

/// Solves A M^{-1} U = B, X += M^{-1} U for the b = B.cols right-hand
/// sides in `b_rhs` from the initial guesses in `x` (rank-local row
/// blocks, column-major views).  Collective over `comm`.  The result
/// carries one RhsResult per column; its scalar fields aggregate them
/// (converged = all columns, relres / true_relres = the worst column).
SolveResult sstep_gmres(par::Communicator& comm, const sparse::DistCsr& a,
                        const precond::Preconditioner* m_prec,
                        dense::ConstMatrixView b_rhs, dense::MatrixView x,
                        const SStepGmresConfig& cfg);

/// The paper's two-stage manager (Fig. 5) — the default factory.
/// Requires s <= bs <= m with s | bs.
std::unique_ptr<ortho::BlockOrthoManager> make_two_stage(
    const SStepGmresConfig& cfg);

/// Builds the manager the config's factory names (exposed for
/// tests/benches).
std::unique_ptr<ortho::BlockOrthoManager> make_manager(
    const SStepGmresConfig& cfg);

}  // namespace tsbo::krylov
