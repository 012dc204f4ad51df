#include "ortho/manager.hpp"

#include "dense/blas3.hpp"

#include <cassert>
#include <stdexcept>

namespace tsbo::ortho {

namespace {

/// Minimum new-direction fraction |r_cc| / ||R(:, last)|| of a raw
/// lookahead start column for the speculative panel to be kept.  A raw
/// column below this is dominated by already-spanned directions, and
/// the single-pass stage-1 of the panel speculated from it loses the
/// new content to cancellation — empirically the threshold where the
/// hand-off stops costing restart cycles (decayed monomial chains sit
/// at 1e-6..1e-8; healthy Newton/Chebyshev starts at 1e-1 and up).
constexpr double kLookaheadGuard = 0x1p-6;

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

  void reset() override {}

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

  void reset() override {
    big_begin_ = 1;
    seed_width_ = 1;
    pending_ = 0;
    pending_starts_.clear();
    raw_starts_.clear();
    last_raw_start_ = -1;
    last_raw_alpha_ = 1.0;
  }

  void reset_cycle(index_t n_seed) override {
    // Block GMRES seeds n_seed final columns (the CholQR'd residual
    // block); the open big panel starts right after them.
    reset();
    big_begin_ = n_seed;
    seed_width_ = n_seed;
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

  void note_mpk_start_raw(OrthoContext&, index_t start) override {
    // Lookahead hand-off: MPK consumes the column in its RAW state, so
    // L(:, start) = alpha * R(:, start) once the flush fixes R up —
    // the raw column's final-basis representation IS R(:, start),
    // whether the column ends up interior to a big panel or on a
    // boundary.
    raw_starts_.push_back({start, 1.0});
  }

  [[nodiscard]] double lookahead_scale(index_t start) const override {
    if (start == last_raw_start_) return last_raw_alpha_;
    for (const RawStart& rs : raw_starts_) {
      if (rs.start == start) return rs.alpha;
    }
    return 1.0;
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

  bool add_panel_begin(OrthoContext& ctx, MatrixView basis, index_t q0,
                       index_t s, bool overlap_credit) override {
    if (ctx.mixed_precision_gram) return false;  // dd reduce not split here
    // The lookahead hands MPK ONE raw column (note_mpk_start_raw); a
    // block cycle's b-wide MPK input has no split path.
    if (seed_width_ > 1) return false;
    if (big_begin_ == 0 || q0 < big_begin_) {
      throw std::logic_error("TwoStageManager: panels must arrive in order");
    }
    // Stage 1 begin: identical local Gram + reduce as add_panel's
    // bcgs_pip; the epilogue waits in add_panel_finish.  One global
    // reduce either way — the sync count is unchanged.
    split_ = bcgs_pip_begin(ctx, basis.columns(0, q0), basis.columns(q0, s));
    if (!overlap_credit) split_.pending.no_overlap_credit();
    return true;
  }

  index_t add_panel_finish(OrthoContext& ctx, MatrixView basis, index_t q0,
                           index_t s, MatrixView r, MatrixView l) override {
    if (!split_.active) {
      throw std::logic_error("TwoStageManager: finish without begin");
    }
    bcgs_pip_finish(ctx, split_, basis.columns(0, q0), basis.columns(q0, s),
                    r.block(0, q0, q0, s), r.block(q0, q0, s, s));
    pending_ += s;

    // Deferred normalization: the raw start recorded for the lookahead
    // is this panel's last column; its scale comes from the stage-1
    // Cholesky diagonal that just arrived.  Power of two, so the
    // solver's rescale of the speculative panel is exact.
    //
    // Quality guard: r(last, last) is the raw column's new-direction
    // magnitude and ||R(:, last)|| its full norm.  When the ratio drops
    // below kLookaheadGuard the speculative panel is dominated by
    // already-spanned directions and single-pass stage-1 would lose it
    // to cancellation (monomial bases decay this ratio geometrically).
    // Reject the speculation — scale 0 tells the solver to discard the
    // panel and regenerate from the processed column.  The test uses
    // only globally-reduced quantities, so every rank (and every
    // pipeline_depth) takes the same branch.
    const index_t last = q0 + s - 1;
    for (auto it = raw_starts_.begin(); it != raw_starts_.end(); ++it) {
      if (it->start != last) continue;
      double norm2 = 0.0;
      for (index_t i = 0; i <= last; ++i) norm2 += r(i, last) * r(i, last);
      const double r_cc = r(last, last);
      last_raw_start_ = last;
      if (!(r_cc * r_cc >= kLookaheadGuard * kLookaheadGuard * norm2)) {
        last_raw_alpha_ = 0.0;  // rejected (also catches NaN r_cc)
        raw_starts_.erase(it);
      } else {
        it->alpha = pow2_recip_scale(r_cc);
        last_raw_alpha_ = it->alpha;
      }
      break;
    }

    if (pending_ >= bs_) {
      return flush(ctx, basis, q0 + s, r, l);
    }
    return big_begin_;
  }

  index_t finalize(OrthoContext& ctx, MatrixView basis, index_t q_total,
                   MatrixView r, MatrixView l) override {
    if (pending_ > 0) return flush(ctx, basis, q_total, r, l);
    return q_total;
  }

  index_t rebase_after_breakdown(OrthoContext& ctx, MatrixView basis,
                                 index_t q_generated, MatrixView r,
                                 MatrixView l) override {
    // Speculative lookahead hand-offs at or beyond the failure point
    // die with the discarded columns.
    std::erase_if(raw_starts_,
                  [&](const RawStart& rs) { return rs.start >= q_generated; });
    // A stage-2 breakdown inside add_panel / add_panel_finish leaves
    // pending_ one panel ahead of what the solver accepted (that
    // panel's stage 1 succeeded before the flush threw); re-align to
    // the accepted prefix.
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
      raw_starts_.clear();
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
    // The stage-1 coefficients are fixed before stage 2 runs, so the
    // fix-up's R-block snapshot is result-independent trailing work:
    // it rides in the stage-2 fused-Gram reduce window.
    dense::Matrix rbig;
    bcgs_pip(ctx, qfinal, big, t_prev.view(), t_diag.view(), [&] {
      rbig = dense::copy_of(r.block(qprev, qprev, nbig, nbig));
    });

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

    // Lookahead raw starts: MPK consumed alpha times the raw column, so
    // L(:, start) = alpha * R(:, start) — scale the L column the
    // interior copy above just wrote (exact: alpha is a power of two).
    for (auto it = raw_starts_.begin(); it != raw_starts_.end();) {
      if (it->start >= qprev && it->start < q_end) {
        if (it->alpha != 1.0) {
          for (index_t i = 0; i <= it->start; ++i) {
            l(i, it->start) *= it->alpha;
          }
        }
        it = raw_starts_.erase(it);
      } else {
        ++it;
      }
    }

    pending_starts_.clear();
    pending_ = 0;
    big_begin_ = q_end;
    return q_end;
  }

  struct RawStart {
    index_t start;
    double alpha;
  };

  index_t bs_;
  index_t big_begin_ = 1;  // first column of the open big panel
  index_t seed_width_ = 1;  // block width of the current cycle
  index_t pending_ = 0;    // pre-processed columns awaiting stage 2
  std::vector<index_t> pending_starts_;
  std::vector<RawStart> raw_starts_;  // lookahead (raw-column) MPK starts
  index_t last_raw_start_ = -1;       // most recent scale, kept past flush
  double last_raw_alpha_ = 1.0;
  BcgsPipSplit split_;  // in-flight stage-1 state between begin and finish
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
