#pragma once
// Block-orthogonalization managers: the pluggable strategy the s-step
// GMRES solver calls once per panel (paper Fig. 1 line 11 "BlkOrth").
//
// A manager owns the policy of *when* columns become final:
//   * one-stage managers (BCGS2, BCGS-PIP2) finalize every panel
//     immediately — the solver can extend the Hessenberg matrix and
//     check convergence every s steps;
//   * the two-stage manager (paper Fig. 5) only pre-processes panels
//     (stage 1, one reduce each) and finalizes a whole big panel of bs
//     columns at once (stage 2), so the Hessenberg/convergence
//     granularity is bs steps — reproducing the paper's iteration
//     counts (e.g. 60255 vs 60300 in Table III).
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
// factorizations.

#include "ortho/block_gs.hpp"

#include <memory>
#include <string>
#include <vector>

namespace tsbo::ortho {

class BlockOrthoManager {
 public:
  virtual ~BlockOrthoManager() = default;

  [[nodiscard]] virtual std::string name() const = 0;

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
  virtual void reset(index_t n_seed) = 0;

  /// Global synchronizations per s steps (the paper's accounting:
  /// BCGS2+CholQR2 = 5, BCGS-PIP2 = 2, two-stage = 1 + s/bs).
  [[nodiscard]] virtual double syncs_per_s_steps(index_t s,
                                                 index_t bs) const = 0;
};

/// One-stage manager around BCGS2 (paper Fig. 2b) with the chosen
/// intra-block factorization.
std::unique_ptr<BlockOrthoManager> make_bcgs2_manager(
    IntraKind intra = IntraKind::kCholQR2);

/// One-stage manager around single-pass BCGS-PIP (one reduce per panel,
/// *no* re-orthogonalization — ablation/diagnostic use).
std::unique_ptr<BlockOrthoManager> make_bcgs_pip_manager();

/// One-stage manager around BCGS-PIP2 (paper Fig. 4b).
std::unique_ptr<BlockOrthoManager> make_bcgs_pip2_manager();

/// Two-stage manager (paper Fig. 5): BCGS-PIP pre-processing per panel
/// plus one big-panel BCGS-PIP every `bs` columns.  `bs` must be a
/// multiple of the solver's step size s.
std::unique_ptr<BlockOrthoManager> make_two_stage_manager(index_t bs);

}  // namespace tsbo::ortho
