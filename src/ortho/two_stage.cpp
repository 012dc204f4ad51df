#include "ortho/manager.hpp"

#include "dense/blas3.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tsbo::ortho {

namespace {

/// Writes the unit column e_k into l(:, k).
void set_unit_column(MatrixView l, index_t k) {
  dense::fill(l.block(0, k, l.rows, 1), 0.0);
  l(k, k) = 1.0;
}

/// Copies r(:, k) into l(:, k) for k in [c0, c1).
void copy_r_columns_to_l(ConstMatrixView r, MatrixView l, index_t c0,
                         index_t c1) {
  for (index_t k = c0; k < c1; ++k) {
    dense::copy(r.block(0, k, r.rows, 1), l.block(0, k, l.rows, 1));
  }
}

// ---------------------------------------------------------------------------
// One-stage manager: every panel is fully orthogonalized on arrival.
// ---------------------------------------------------------------------------

class OneStageManager final : public BlockOrthoManager {
 public:
  explicit OneStageManager(PanelKernel kernel) : kernel_(kernel) {}

  void note_mpk_start(OrthoContext&, MatrixView l, index_t start) override {
    // MPK always starts from a final orthonormal column: L(:, start) = e.
    set_unit_column(l, start);
  }

  index_t add_panel(OrthoContext& ctx, MatrixView basis, index_t q0, index_t s,
                    MatrixView r, MatrixView l) override {
    kernel_(ctx, basis.columns(0, q0), basis.columns(q0, s),
            r.block(0, q0, q0, s), r.block(q0, q0, s, s));
    copy_r_columns_to_l(r, l, q0, q0 + s);
    return q0 + s;
  }

  index_t finalize(OrthoContext&, MatrixView, index_t q_total, MatrixView,
                   MatrixView) override {
    return q_total;  // nothing pending
  }

  void reset(index_t, bool) override {}

 private:
  PanelKernel kernel_;
};

// ---------------------------------------------------------------------------
// Two-stage manager (paper Fig. 5).
// ---------------------------------------------------------------------------

class TwoStageManager final : public BlockOrthoManager {
 public:
  explicit TwoStageManager(index_t bs) : bs_(bs) {
    if (bs <= 0) throw std::invalid_argument("TwoStageManager: bs <= 0");
  }

  void reset(index_t n_seed, bool fold_close) override {
    // The open big panel starts right after the n_seed final columns.
    big_begin_ = n_seed;
    pending_ = 0;
    pending_starts_.clear();
    fold_close_ = fold_close;
    folded_ = false;
  }

  void fold_correction(MatrixView y) const override {
    if (!folded_) return;
    // Q_big = (V_big - Q_final T_prev) T_diag^{-1} and T_diag is upper
    // triangular, so the first c columns of Q_big need only the first
    // c of V_big, T_prev and T_diag:
    //   Q y = Q_final (y_final - T_prev[:, :c] w) + V_big[:, :c] w,
    //   w = T_diag[:c, :c]^{-1} y_big.
    const index_t qprev = fold_qprev_;
    const index_t c = y.rows - qprev;
    assert(c <= fold_t_diag_.rows());
    if (c <= 0) return;
    MatrixView yb = y.block(qprev, 0, c, y.cols);
    for (index_t t = 0; t < y.cols; ++t) {
      for (index_t i = c - 1; i >= 0; --i) {
        double acc = yb(i, t);
        for (index_t j = i + 1; j < c; ++j) acc -= fold_t_diag_(i, j) * yb(j, t);
        yb(i, t) = acc / fold_t_diag_(i, i);
      }
    }
    if (qprev > 0) {
      dense::gemm_nn(-1.0, fold_t_prev_.view().block(0, 0, qprev, c), yb, 1.0,
                     y.block(0, 0, qprev, y.cols));
    }
  }

  void note_mpk_start(OrthoContext&, MatrixView l, index_t start) override {
    if (start < big_begin_) {
      // Final column (cycle start or big-panel boundary): Fig. 5 line 6.
      set_unit_column(l, start);
    } else {
      // Pre-processed column inside the open big panel (Fig. 5 line 8):
      // its representation in the final basis is a stage-2 transform
      // column, known only after the flush.
      pending_starts_.push_back(start);
    }
  }

  index_t add_panel(OrthoContext& ctx, MatrixView basis, index_t q0, index_t s,
                    MatrixView r, MatrixView l) override {
    if (big_begin_ == 0 || q0 < big_begin_) {
      throw std::logic_error("TwoStageManager: panels must arrive in order");
    }
    // The first stage-1 pass of a big panel records the breakdown count
    // that decides the flush's Gram precision.
    if (pending_ == 0) breakdowns_at_open_ = ctx.cholesky_breakdowns;
    // Stage 1 (Fig. 5 line 14): one BCGS-PIP of the panel against ALL
    // previous columns — final ones and the pre-processed ones of the
    // open big panel.  One global reduce.
    ConstMatrixView qall = basis.columns(0, q0);
    MatrixView panel = basis.columns(q0, s);
    bcgs_pip(ctx, qall, panel, r.block(0, q0, q0, s), r.block(q0, q0, s, s));
    pending_ += s;

    if (pending_ >= bs_) {
      return flush(ctx, basis, q0 + s, r, l);
    }
    return big_begin_;  // only columns before the big panel are final
  }

  index_t finalize(OrthoContext& ctx, MatrixView basis, index_t q_total,
                   MatrixView r, MatrixView l) override {
    if (pending_ > 0) return flush(ctx, basis, q_total, r, l);
    return q_total;
  }

  index_t rebase_after_breakdown(OrthoContext& ctx, MatrixView basis,
                                 index_t q_generated, MatrixView r,
                                 MatrixView l) override {
    // A stage-2 breakdown inside add_panel leaves pending_ one panel
    // ahead of what the solver accepted (that panel's stage 1 succeeded
    // before the flush threw); re-align to the accepted prefix.
    pending_ = q_generated - big_begin_;
    if (pending_ <= 0) {
      pending_ = 0;
      pending_starts_.clear();
      return q_generated;
    }
    // The accepted prefix's stage-1 factorizations all succeeded; try
    // to finalize it.  Dropping the broken panel shrinks the big-panel
    // Gram, so this flush can succeed where the in-band one threw.  If
    // the big panel is past the cliff even without it, drop the
    // pre-processed columns too — only columns before the open big
    // panel are known-final.
    try {
      return flush(ctx, basis, q_generated, r, l);
    } catch (const CholeskyBreakdown&) {
      pending_ = 0;
      pending_starts_.clear();
      return big_begin_;
    }
  }

 private:
  /// Stage 2 (Fig. 5 lines 16-19): one BCGS-PIP of the whole big panel
  /// of `pending_` columns against the final columns, followed by the
  /// triangular fix-up of the stage-1 coefficients and the L
  /// bookkeeping for Hessenberg assembly.  Under `fold_close_`, a flush
  /// that completes the basis skips line 17's update and TRSM and keeps
  /// T_prev and T_diag for fold_correction().
  ///
  /// Stage 1 leaves the big panel O(1)-conditioned unless one of its
  /// factorizations broke down, so the stage-2 Gram runs in plain
  /// double after a clean stage 1 and keeps the double-double Gram
  /// otherwise — BCGS-PIP2's rule for its second pass (block_gs.cpp),
  /// which this flush is at bs = 1.
  index_t flush(OrthoContext& ctx, MatrixView basis, index_t q_end,
                MatrixView r, MatrixView l) {
    const index_t qprev = big_begin_;
    const index_t nbig = q_end - big_begin_;
    assert(nbig == pending_);

    ConstMatrixView qfinal = basis.columns(0, qprev);
    MatrixView big = basis.columns(qprev, nbig);
    dense::Matrix t_prev(qprev, nbig);
    dense::Matrix t_diag(nbig, nbig);
    // Snapshot of the stage-1 diagonal block for the fix-up below
    // (stage 2 does not touch R).
    const dense::Matrix rbig =
        dense::copy_of(r.block(qprev, qprev, nbig, nbig));
    const bool fold = fold_close_ && q_end == basis.cols;
    const ScopedGramPrecision precision(
        ctx, ctx.mixed_precision_gram &&
                 ctx.cholesky_breakdowns != breakdowns_at_open_);
    if (fold) {
      bcgs_pip_factor(ctx, qfinal, big, t_prev.view(), t_diag.view());
    } else {
      bcgs_pip(ctx, qfinal, big, t_prev.view(), t_diag.view());
    }

    // R fix-up (Fig. 5 lines 18-19):
    //   R[0:qprev, big]   += T_prev * R[big, big]
    //   R[big,  big]       = T_diag * R[big, big]
    if (qprev > 0) {
      dense::gemm_nn(1.0, t_prev.view(), rbig.view(), 1.0,
                     r.block(0, qprev, qprev, nbig));
    }
    dense::gemm_nn(1.0, t_diag.view(), rbig.view(), 0.0,
                   r.block(qprev, qprev, nbig, nbig));

    // Interior raw columns: L = final R.
    copy_r_columns_to_l(r, l, qprev, q_end);

    // MPK start columns inside the big panel were consumed in their
    // *pre-processed* state q-hat = Q_final_prev T_prev + Q_big T_diag:
    // their L columns are the stage-2 transform columns.
    for (const index_t start : pending_starts_) {
      const index_t local = start - qprev;
      assert(local >= 0 && local < nbig);
      MatrixView lc = l.block(0, start, l.rows, 1);
      dense::fill(lc, 0.0);
      for (index_t i = 0; i < qprev; ++i) l(i, start) = t_prev(i, local);
      for (index_t i = 0; i < nbig; ++i) l(qprev + i, start) = t_diag(i, local);
    }

    if (fold) {
      fold_qprev_ = qprev;
      fold_t_prev_ = std::move(t_prev);
      fold_t_diag_ = std::move(t_diag);
      folded_ = true;
    }
    pending_starts_.clear();
    pending_ = 0;
    big_begin_ = q_end;
    return q_end;
  }

  index_t bs_;
  index_t big_begin_ = 1;  // first column of the open big panel
  index_t pending_ = 0;    // pre-processed columns awaiting stage 2
  // ctx.cholesky_breakdowns before the open big panel's first stage 1.
  int breakdowns_at_open_ = 0;
  std::vector<index_t> pending_starts_;
  // The transform a fold_close flush kept back (see reset()).
  bool fold_close_ = false;
  bool folded_ = false;
  index_t fold_qprev_ = 0;
  dense::Matrix fold_t_prev_;
  dense::Matrix fold_t_diag_;
};

}  // namespace

std::unique_ptr<BlockOrthoManager> make_one_stage_manager(PanelKernel kernel) {
  return std::make_unique<OneStageManager>(kernel);
}

std::unique_ptr<BlockOrthoManager> make_two_stage_manager(index_t bs) {
  return std::make_unique<TwoStageManager>(bs);
}

}  // namespace tsbo::ortho
