#include "ortho/manager.hpp"

#include "dense/blas3.hpp"

#include <cassert>
#include <stdexcept>

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
// One-stage managers: every panel is fully orthogonalized on arrival.
// ---------------------------------------------------------------------------

class OneStageManager : public BlockOrthoManager {
 public:
  void note_mpk_start(OrthoContext&, MatrixView l, index_t start) override {
    // MPK always starts from a final orthonormal column: L(:, start) = e.
    set_unit_column(l, start);
  }

  index_t add_panel(OrthoContext& ctx, MatrixView basis, index_t q0, index_t s,
                    MatrixView r, MatrixView l) override {
    ConstMatrixView qprev = basis.columns(0, q0);
    MatrixView panel = basis.columns(q0, s);
    MatrixView r_prev = r.block(0, q0, q0, s);
    MatrixView r_diag = r.block(q0, q0, s, s);
    run(ctx, qprev, panel, r_prev, r_diag);
    copy_r_columns_to_l(r, l, q0, q0 + s);
    return q0 + s;
  }

  index_t finalize(OrthoContext&, MatrixView, index_t q_total, MatrixView,
                   MatrixView) override {
    return q_total;  // nothing pending
  }

  void reset(index_t) override {}

 protected:
  virtual void run(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
                   MatrixView r_prev, MatrixView r_diag) = 0;
};

class Bcgs2Manager final : public OneStageManager {
 public:
  explicit Bcgs2Manager(IntraKind intra) : intra_(intra) {}

  [[nodiscard]] std::string name() const override {
    switch (intra_) {
      case IntraKind::kCholQR2:
        return "BCGS2(CholQR2)";
      case IntraKind::kHHQR:
        return "BCGS2(HHQR)";
      case IntraKind::kShiftedCholQR3:
        return "BCGS2(sCholQR3)";
    }
    return "BCGS2";
  }

  [[nodiscard]] double syncs_per_s_steps(index_t s, index_t) const override {
    switch (intra_) {
      case IntraKind::kCholQR2:
        return 5.0;
      case IntraKind::kHHQR:
        return 3.0 + 3.0 * static_cast<double>(s);
      case IntraKind::kShiftedCholQR3:
        return 6.0;
    }
    return 5.0;
  }

 private:
  void run(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag) override {
    bcgs2(ctx, q, v, r_prev, r_diag, intra_);
  }

  IntraKind intra_;
};

class BcgsPipManager final : public OneStageManager {
 public:
  [[nodiscard]] std::string name() const override { return "BCGS-PIP"; }
  [[nodiscard]] double syncs_per_s_steps(index_t, index_t) const override {
    return 1.0;
  }

 private:
  void run(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag) override {
    bcgs_pip(ctx, q, v, r_prev, r_diag);
  }
};

class BcgsPip2Manager final : public OneStageManager {
 public:
  [[nodiscard]] std::string name() const override { return "BCGS-PIP2"; }
  [[nodiscard]] double syncs_per_s_steps(index_t, index_t) const override {
    return 2.0;
  }

 private:
  void run(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag) override {
    bcgs_pip2(ctx, q, v, r_prev, r_diag);
  }
};

// ---------------------------------------------------------------------------
// Two-stage manager (paper Fig. 5).
// ---------------------------------------------------------------------------

class TwoStageManager final : public BlockOrthoManager {
 public:
  explicit TwoStageManager(index_t bs) : bs_(bs) {
    if (bs <= 0) throw std::invalid_argument("TwoStageManager: bs <= 0");
  }

  [[nodiscard]] std::string name() const override { return "Two-stage"; }

  [[nodiscard]] double syncs_per_s_steps(index_t s, index_t bs) const override {
    return 1.0 + static_cast<double>(s) / static_cast<double>(bs > 0 ? bs : bs_);
  }

  void reset(index_t n_seed) override {
    // The open big panel starts right after the n_seed final columns.
    big_begin_ = n_seed;
    pending_ = 0;
    pending_starts_.clear();
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
  /// bookkeeping for Hessenberg assembly.
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
    bcgs_pip(ctx, qfinal, big, t_prev.view(), t_diag.view());

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

    pending_starts_.clear();
    pending_ = 0;
    big_begin_ = q_end;
    return q_end;
  }

  index_t bs_;
  index_t big_begin_ = 1;  // first column of the open big panel
  index_t pending_ = 0;    // pre-processed columns awaiting stage 2
  std::vector<index_t> pending_starts_;
};

}  // namespace

std::unique_ptr<BlockOrthoManager> make_bcgs2_manager(IntraKind intra) {
  return std::make_unique<Bcgs2Manager>(intra);
}

std::unique_ptr<BlockOrthoManager> make_bcgs_pip_manager() {
  return std::make_unique<BcgsPipManager>();
}

std::unique_ptr<BlockOrthoManager> make_bcgs_pip2_manager() {
  return std::make_unique<BcgsPip2Manager>();
}

std::unique_ptr<BlockOrthoManager> make_two_stage_manager(index_t bs) {
  return std::make_unique<TwoStageManager>(bs);
}

}  // namespace tsbo::ortho
