#pragma once
// Block-orthogonalization managers: the pluggable strategy the s-step
// GMRES solver calls once per panel (paper Fig. 1 line 11 "BlkOrth").
//
// A manager owns the policy of *when* columns become final.  There are
// two families:
//   * one-stage managers (BCGS2, single-pass BCGS-PIP) run one panel
//     kernel on each panel and finalize it immediately — the solver can
//     extend the Hessenberg matrix and check convergence every s steps;
//   * the two-stage manager (paper Fig. 5) only pre-processes panels
//     (stage 1, one reduce each) and finalizes a whole big panel of bs
//     columns at once (stage 2), so the Hessenberg/convergence
//     granularity is bs steps — reproducing the paper's iteration
//     counts (e.g. 60255 vs 60300 in Table III).  With bs = 1 every
//     panel closes its own big panel on arrival, which is BCGS-PIP2
//     (paper Fig. 4b; Section V) at any panel width.
//
// Bookkeeping contract: the solver maintains, alongside the basis, the
// (m+1)x(m+1) matrices R (coefficients of the raw Krylov columns in the
// final basis) and L (coefficients of each MPK *input* column in the
// final basis).  H is then assembled from H L = R-shifted (see
// krylov/hessenberg.hpp).  Managers fill both for the columns they
// finalize; note_mpk_start() lets them record what the MPK input
// actually was (final column -> unit vector; pre-processed column ->
// its stage-2 transform column).
//
// Precision: every manager inherits the conditioning contracts of its
// building blocks (block_gs.hpp / intra.hpp) — O(eps) final
// orthogonality while the per-panel condition numbers respect paper
// conditions (1)/(5)/(9), i.e. kappa < eps^{-1/2} ~ 6.7e7 in plain
// double, extended to ~1e15 when OrthoContext::mixed_precision_gram
// keeps the Gram matrices in double-double through their Cholesky
// factorizations.  A second pass over an O(1)-conditioned panel runs
// in plain double (ScopedGramPrecision): BCGS2's and BCGS-PIP2's
// re-orthogonalization, and the two-stage flush of a big panel whose
// stage-1 factorizations all succeeded without a breakdown.
//
// Global synchronizations per panel: see the scheme table in
// docs/algorithms.md.

#include "ortho/block_gs.hpp"

#include <memory>

namespace tsbo::ortho {

class BlockOrthoManager {
 public:
  virtual ~BlockOrthoManager() = default;

  /// The solver is about to run MPK with basis column `start` as input.
  virtual void note_mpk_start(OrthoContext& ctx, MatrixView l,
                              index_t start) = 0;

  /// Orthogonalizes (or pre-processes) the `s` new columns
  /// [q0, q0 + s) of `basis` against columns [0, q0).  Returns the
  /// total number of FINAL columns (Hessenberg may be assembled up to
  /// that column count).
  virtual index_t add_panel(OrthoContext& ctx, MatrixView basis, index_t q0,
                            index_t s, MatrixView r, MatrixView l) = 0;

  /// Flushes pending pre-processed panels (restart boundary).  Returns
  /// the total number of final columns (== q_total afterwards).
  virtual index_t finalize(OrthoContext& ctx, MatrixView basis,
                           index_t q_total, MatrixView r, MatrixView l) = 0;

  /// Breakdown recovery (stability autopilot): a CholeskyBreakdown
  /// escaped add_panel / finalize, so every basis column at or beyond
  /// `q_generated` (the count the solver accepted before the throw) is
  /// unusable.  Discards broken internal state,
  /// finalizes whatever prefix is still trustworthy, and returns that
  /// final-column count — the solver re-bases the restart cycle from
  /// the last of those columns instead of aborting.  Deterministic:
  /// breakdowns fire identically on every rank (replicated post-reduce
  /// Grams), so all ranks take the same recovery path.  Default
  /// (one-stage managers): every accepted panel was finalized on
  /// arrival, so all `q_generated` columns stand.
  virtual index_t rebase_after_breakdown(OrthoContext& /*ctx*/,
                                         MatrixView /*basis*/,
                                         index_t q_generated, MatrixView /*r*/,
                                         MatrixView /*l*/) {
    return q_generated;
  }

  /// Starts a new restart cycle whose basis is seeded with `n_seed`
  /// already-final columns: 1 for the single normalized residual, b
  /// for block GMRES's CholQR'd b-wide residual block.
  ///
  /// `fold_close` is for a caller that reads the cycle's basis only
  /// through the correction Q y once the basis is complete (the s-step
  /// solver).  A flush that completes the basis (q_end == basis.cols)
  /// then keeps its transform instead of applying it to the big panel,
  /// and fold_correction() applies it to y.  Every other flush, and
  /// every flush without `fold_close`, leaves the basis final.
  virtual void reset(index_t n_seed, bool fold_close = false) = 0;

  /// Folds a transform kept back by a `fold_close` flush into the
  /// correction coefficients y (one row per basis column the caller
  /// multiplies): afterwards basis.columns(0, y.rows) * y is the
  /// correction the finished basis would give.  A no-op when the
  /// cycle's closing flush kept nothing back.
  virtual void fold_correction(MatrixView /*y*/) const {}
};

/// A panel kernel of block_gs.hpp's shape: orthogonalizes v against q,
/// writing r_prev (q x s) and r_diag (s x s).
using PanelKernel = void (*)(OrthoContext& ctx, ConstMatrixView q,
                             MatrixView v, MatrixView r_prev,
                             MatrixView r_diag);

/// One-stage manager: runs `kernel` on each panel against every earlier
/// column and finalizes it on arrival (BCGS2 with an intra-block
/// factorization, or single-pass BCGS-PIP for ablation/diagnostics).
std::unique_ptr<BlockOrthoManager> make_one_stage_manager(PanelKernel kernel);

/// Two-stage manager (paper Fig. 5): BCGS-PIP pre-processing per panel
/// plus one big-panel BCGS-PIP once at least `bs` columns are pending.
/// The solver's factory takes `bs` as a multiple of its step size s;
/// `bs = 1` closes every panel on arrival, which is BCGS-PIP2.
std::unique_ptr<BlockOrthoManager> make_two_stage_manager(index_t bs);

}  // namespace tsbo::ortho
