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

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsbo::ortho {

/// Deferred-normalization scale for the pipelined lookahead hand-off:
/// the power of two nearest 1/r_cc (so r_cc * scale lands in [0.5, 1)),
/// clamped to [2^-20, 2^20].  A power of two makes the rescale of the
/// speculatively generated panel bitwise-exact — it commutes with the
/// matrix-powers recurrence — while keeping the raw-column chain's
/// magnitudes O(1) across panels.  Non-finite or non-positive r_cc
/// (breakdown panels) hands off unscaled (returns 1).
[[nodiscard]] inline double pow2_recip_scale(double r_cc) {
  if (!std::isfinite(r_cc) || !(r_cc > 0.0)) return 1.0;
  int e = 0;
  std::frexp(r_cc, &e);  // r_cc = f * 2^e with f in [0.5, 1)
  if (e > 20) e = 20;
  if (e < -20) e = -20;
  return std::ldexp(1.0, -e);
}

class BlockOrthoManager {
 public:
  virtual ~BlockOrthoManager() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The solver is about to run MPK with basis column `start` as input.
  virtual void note_mpk_start(OrthoContext& ctx, MatrixView l,
                              index_t start) = 0;

  /// The solver is about to run MPK from the RAW basis column `start`
  /// — the column as generated, BEFORE the stage-1 epilogue transforms
  /// it (the pipelined lookahead hand-off).  The effective MPK input is
  /// alpha times the raw column, where alpha = lookahead_scale(start)
  /// is the deferred normalization computed when the owning panel's
  /// Gram factor arrives; the manager records
  /// L(:, start) = alpha * R(:, start) at the flush that finalizes the
  /// column (R is exactly the raw column's representation in the final
  /// basis).  Only managers that support split add_panel implement it.
  virtual void note_mpk_start_raw(OrthoContext& /*ctx*/, index_t /*start*/) {
    throw std::logic_error("note_mpk_start_raw: unsupported by this manager");
  }

  /// Deferred-normalization scale recorded for raw start `start`
  /// (pow2_recip_scale of the stage-1 diagonal); 1 until the owning
  /// panel's add_panel_finish ran.  0 means the manager's quality
  /// guard REJECTED the speculation (the raw column's new-direction
  /// content was too small a fraction of its norm): the solver must
  /// discard the speculative panel and regenerate from the processed
  /// column via note_mpk_start.
  [[nodiscard]] virtual double lookahead_scale(index_t /*start*/) const {
    return 1.0;
  }

  /// Orthogonalizes (or pre-processes) the `s` new columns
  /// [q0, q0 + s) of `basis` against columns [0, q0).  Returns the
  /// total number of FINAL columns (Hessenberg may be assembled up to
  /// that column count).
  virtual index_t add_panel(OrthoContext& ctx, MatrixView basis, index_t q0,
                            index_t s, MatrixView r, MatrixView l) = 0;

  /// Split-phase add_panel for the pipelined s-step runtime: begin
  /// issues the panel's stage-1 fused Gram reduce and returns true
  /// with the reduce in flight — the solver then generates the NEXT
  /// panel's matrix-powers columns before calling add_panel_finish
  /// (wait + panel completion; returns the final-column count exactly
  /// like add_panel).  `overlap_credit` false opts the window out of
  /// overlap accounting (pipeline_depth = 0: same arithmetic, latency
  /// fully exposed).  A false return means this panel cannot be split
  /// (scheme without a split path, a double-double Gram, or a block
  /// cycle seeded wider than one column) and the caller must fall back
  /// to add_panel.  Default: unsupported.
  virtual bool add_panel_begin(OrthoContext& /*ctx*/, MatrixView /*basis*/,
                               index_t /*q0*/, index_t /*s*/,
                               bool /*overlap_credit*/) {
    return false;
  }
  virtual index_t add_panel_finish(OrthoContext& /*ctx*/, MatrixView /*basis*/,
                                   index_t /*q0*/, index_t /*s*/,
                                   MatrixView /*r*/, MatrixView /*l*/) {
    throw std::logic_error("add_panel_finish without add_panel_begin");
  }

  /// Flushes pending pre-processed panels (restart boundary).  Returns
  /// the total number of final columns (== q_total afterwards).
  virtual index_t finalize(OrthoContext& ctx, MatrixView basis,
                           index_t q_total, MatrixView r, MatrixView l) = 0;

  /// Breakdown recovery (stability autopilot): a CholeskyBreakdown
  /// escaped add_panel / add_panel_finish / finalize, so every basis
  /// column at or beyond `q_generated` (the count the solver accepted
  /// before the throw) is unusable.  Discards broken internal state,
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

  /// Starts a new restart cycle.
  virtual void reset() = 0;

  /// Starts a new restart cycle whose basis is seeded with `n_seed`
  /// already-final columns (block GMRES seeds a b-wide CholQR'd
  /// residual block instead of the single normalized residual).
  /// Managers with internal final-column watermarks override this;
  /// the default — and the single-RHS n_seed == 1 case for every
  /// manager — is plain reset().
  virtual void reset_cycle(index_t /*n_seed*/) { reset(); }

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
