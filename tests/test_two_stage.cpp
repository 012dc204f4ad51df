// The two-stage block orthogonalization manager (paper Fig. 5) and the
// one-stage managers behind the same interface: R/L bookkeeping,
// big-panel finalization, orthogonality (Theorem V.1), sync counts
// (1 per s steps + 1 per bs steps), and Fig. 8 behaviour on glued
// matrices.

#include "dense/blas3.hpp"
#include "dense/svd.hpp"
#include "ortho/manager.hpp"
#include "par/spmd.hpp"
#include "synth/synthetic.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

/// Drives a manager the way the s-step solver does, but with
/// pre-generated panel columns instead of MPK output: column 0 is the
/// (normalized) first column of `v`, then panels of s columns are
/// copied in and handed to the manager.  Returns the basis (overwritten
/// in place) plus R and L.
struct ManagerRun {
  Matrix basis;
  Matrix r;
  Matrix l;
  index_t nfinal = 0;
};

ManagerRun run_manager(ortho::BlockOrthoManager& mgr, ortho::OrthoContext& ctx,
                       const Matrix& v, index_t s, bool finalize_at_end = true) {
  const index_t n = v.rows();
  const index_t m = v.cols() - 1;  // v columns: 1 seed + m panel columns
  ManagerRun out{dense::copy_of(v.view()), Matrix(m + 1, m + 1),
                 Matrix(m + 1, m + 1), 0};
  // Normalize the seed column like the solver does.
  {
    double nrm = 0.0;
    for (index_t i = 0; i < n; ++i) nrm += out.basis(i, 0) * out.basis(i, 0);
    nrm = std::sqrt(nrm);
    for (index_t i = 0; i < n; ++i) out.basis(i, 0) /= nrm;
  }
  out.r(0, 0) = 1.0;
  mgr.reset(1);
  for (index_t p = 0; p < m / s; ++p) {
    mgr.note_mpk_start(ctx, out.l.view(), p * s);
    out.nfinal = mgr.add_panel(ctx, out.basis.view(), p * s + 1, s,
                               out.r.view(), out.l.view());
  }
  if (finalize_at_end) {
    out.nfinal =
        mgr.finalize(ctx, out.basis.view(), m + 1, out.r.view(), out.l.view());
  }
  return out;
}

Matrix glued_with_seed(index_t n, int panels, index_t s, double kappa,
                       double growth, std::uint64_t seed) {
  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = panels;
  spec.panel_cols = s;
  spec.kappa_panel = kappa;
  spec.growth = growth;
  const Matrix panels_m = synth::glued(spec, seed);
  // Prepend a seed column (random, normalized later by the harness).
  Matrix v(n, panels_m.cols() + 1);
  const Matrix seed_col = synth::random_orthonormal(n, 1, seed + 999);
  dense::copy(seed_col.view(), v.view().columns(0, 1));
  dense::copy(panels_m.view(), v.view().columns(1, panels_m.cols()));
  return v;
}

TEST(TwoStageManager, FinalizesOnlyAtBigPanelBoundaries) {
  const index_t n = 1200, s = 5, bs = 15, m = 30;
  const Matrix v = glued_with_seed(n, m / s, s, 1e4, 1.0, 3);
  auto mgr = ortho::make_two_stage_manager(bs);
  ortho::OrthoContext ctx;

  ManagerRun run{dense::copy_of(v.view()), Matrix(m + 1, m + 1),
                 Matrix(m + 1, m + 1), 0};
  double nrm = 0.0;
  for (index_t i = 0; i < n; ++i) nrm += run.basis(i, 0) * run.basis(i, 0);
  nrm = std::sqrt(nrm);
  for (index_t i = 0; i < n; ++i) run.basis(i, 0) /= nrm;
  run.r(0, 0) = 1.0;
  mgr->reset(1);

  std::vector<index_t> finals;
  for (index_t p = 0; p < m / s; ++p) {
    mgr->note_mpk_start(ctx, run.l.view(), p * s);
    finals.push_back(mgr->add_panel(ctx, run.basis.view(), p * s + 1, s,
                                    run.r.view(), run.l.view()));
  }
  // bs = 15, s = 5: finalization after panels 3 and 6 only.
  EXPECT_EQ(finals, (std::vector<index_t>{1, 1, 16, 16, 16, 31}));
}

class ManagerKinds
    : public ::testing::TestWithParam<std::tuple<const char*, index_t>> {};

TEST_P(ManagerKinds, QrReconstructionAndOrthogonality) {
  const auto [kind, bs] = GetParam();
  const index_t n = 2000, s = 5, m = 30;
  const Matrix v = glued_with_seed(n, m / s, s, 1e5, 1.0, 7);

  std::unique_ptr<ortho::BlockOrthoManager> mgr;
  if (std::string(kind) == "bcgs2") {
    mgr = ortho::make_bcgs2_manager(ortho::IntraKind::kCholQR2);
  } else if (std::string(kind) == "pip2") {
    mgr = ortho::make_bcgs_pip2_manager();
  } else {
    mgr = ortho::make_two_stage_manager(bs);
  }
  ortho::OrthoContext ctx;
  const ManagerRun run = run_manager(*mgr, ctx, v, s);

  ASSERT_EQ(run.nfinal, m + 1);
  // Orthogonality of the whole final basis: O(eps) (Theorem V.1).
  EXPECT_LT(dense::orthogonality_error(run.basis.view()), 1e-12) << kind;

  // Q R == [seed/||seed||, panels]: verify the panel columns.
  Matrix qr(n, m + 1);
  dense::gemm_nn(1.0, run.basis.view(), run.r.view(), 0.0, qr.view());
  for (index_t j = 1; j <= m; ++j) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(qr(i, j), v(i, j), 1e-9) << kind << " col " << j;
    }
  }

  // L: unit columns at finalized MPK starts, final R elsewhere.
  EXPECT_DOUBLE_EQ(run.l(0, 0), 1.0);
  for (index_t j = 1; j < m; ++j) {
    if (j % s != 0) {
      for (index_t i = 0; i <= j; ++i) {
        ASSERT_NEAR(run.l(i, j), run.r(i, j), 1e-12) << kind << " col " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ManagerKinds,
    ::testing::Values(std::make_tuple("bcgs2", index_t{0}),
                      std::make_tuple("pip2", index_t{0}),
                      std::make_tuple("two_stage_bs5", index_t{5}),
                      std::make_tuple("two_stage_bs15", index_t{15}),
                      std::make_tuple("two_stage_bs30", index_t{30})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? std::to_string(std::get<1>(info.param))
                                      : "");
    });

TEST(TwoStageManager, MatchesPip2WhenBsEqualsS) {
  // Paper Section V: with bs = s the two-stage approach degenerates to
  // one-stage BCGS-PIP2 (same math, same per-panel finalization).
  const index_t n = 1000, s = 5, m = 20;
  const Matrix v = glued_with_seed(n, m / s, s, 1e4, 1.0, 11);

  ortho::OrthoContext ctx;
  auto two = ortho::make_two_stage_manager(s);
  auto pip2 = ortho::make_bcgs_pip2_manager();
  const ManagerRun a = run_manager(*two, ctx, v, s);
  const ManagerRun b = run_manager(*pip2, ctx, v, s);

  // Both produce an orthonormal basis spanning the same space with the
  // same column-by-column QR (identical up to rounding since both run
  // PIP then PIP on each panel; the two-stage "big panel" is the panel
  // itself).
  EXPECT_LT(dense::max_abs_diff(a.basis.view(), b.basis.view()), 1e-9);
  EXPECT_LT(dense::max_abs_diff(a.r.view(), b.r.view()), 1e-9);
}

TEST(TwoStageManager, SyncCountIsOnePerPanelPlusOnePerBigPanel) {
  const index_t n = 1500, s = 5, m = 30, bs = 15;
  const Matrix v = glued_with_seed(n, m / s, s, 1e3, 1.0, 13);

  par::spmd_run(2, [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v.view().block(static_cast<index_t>(range.begin), 0,
                       static_cast<index_t>(range.size()), v.cols()));
    // Seed normalization consistent across ranks: use global norm.
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    const double nrm = ortho::global_norm(
        ctx, std::span<const double>(local.col(0),
                                     static_cast<std::size_t>(local.rows())));
    for (index_t i = 0; i < local.rows(); ++i) local(i, 0) /= nrm;

    Matrix r(m + 1, m + 1), l(m + 1, m + 1);
    r(0, 0) = 1.0;
    auto mgr = ortho::make_two_stage_manager(bs);
    mgr->reset(1);
    comm.reset_stats();
    for (index_t p = 0; p < m / s; ++p) {
      mgr->note_mpk_start(ctx, l.view(), p * s);
      mgr->add_panel(ctx, local.view(), p * s + 1, s, r.view(), l.view());
    }
    // 6 panels x 1 reduce + 2 big panels x 1 reduce = 8.
    EXPECT_EQ(comm.stats().allreduces, 8u);
    EXPECT_DOUBLE_EQ(mgr->syncs_per_s_steps(s, bs), 1.0 + 5.0 / 15.0);
  });
}

TEST(TwoStageManager, Fig8GluedMatrixStaysOrthogonal) {
  // Scaled-down Fig. 8: glued panels with kappa 1e7 each and cumulative
  // kappa growing as 2^{j-1} 1e7.  Pre-processing must keep the big
  // panel condition number O(1)-ish and the final orthogonality O(eps).
  const index_t n = 4000, s = 5, m = 40, bs = 20;
  const Matrix v = glued_with_seed(n, m / s, s, 1e7, 2.0, 17);

  auto mgr = ortho::make_two_stage_manager(bs);
  ortho::OrthoContext ctx;
  const ManagerRun run = run_manager(*mgr, ctx, v, s);
  ASSERT_EQ(run.nfinal, m + 1);
  EXPECT_LT(dense::orthogonality_error(run.basis.view()), 1e-11);

  // The pre-processed (stage-1 only) basis would NOT be orthonormal:
  // verify stage 1 alone leaves a measurable error on this matrix.
  auto pip = ortho::make_bcgs_pip_manager();
  const ManagerRun once = run_manager(*pip, ctx, v, s);
  EXPECT_GT(dense::orthogonality_error(once.basis.view()),
            dense::orthogonality_error(run.basis.view()) * 10);
}

TEST(TwoStageManager, PartialBigPanelFlushesOnFinalize) {
  // m = 20, bs = 15: the last big panel holds only 5 columns and must
  // be finalized by finalize(), not add_panel().
  const index_t n = 900, s = 5, m = 20, bs = 15;
  const Matrix v = glued_with_seed(n, m / s, s, 1e3, 1.0, 19);
  auto mgr = ortho::make_two_stage_manager(bs);
  ortho::OrthoContext ctx;
  const ManagerRun run = run_manager(*mgr, ctx, v, s, /*finalize_at_end=*/true);
  EXPECT_EQ(run.nfinal, m + 1);
  EXPECT_LT(dense::orthogonality_error(run.basis.view()), 1e-12);
}

TEST(TwoStageManager, DeferredCloseMatchesMaterializedCorrection) {
  // A fold_close cycle skips the closing flush's update and TRSM and
  // folds its transform into Y instead.  Everything the flush computes
  // (R, L, the final-column count, the reduces) must come out identical
  // to a plain finalize, and Q Y from the kept stage-1 columns must
  // match Q Y from the finished basis to rounding.  The Fig. 8 glued
  // matrix leaves stage 1 far enough from exact that T_prev and T_diag
  // each move Q Y by more than the tolerance.
  const index_t n = 1500, s = 5, m = 30;
  const Matrix v = glued_with_seed(n, m / s, s, 1e7, 2.0, 23);
  for (const index_t bs : {5, 15, 30}) {
    for (const bool dd : {false, true}) {
      par::spmd_run(2, [&](par::Communicator& comm) {
        const auto range = par::block_row_range(n, comm.size(), comm.rank());
        const Matrix local = dense::copy_of(
            v.view().block(static_cast<index_t>(range.begin), 0,
                           static_cast<index_t>(range.size()), v.cols()));
        ortho::OrthoContext ctx;
        ctx.comm = &comm;
        ctx.mixed_precision_gram = dd;
        const double nrm = ortho::global_norm(
            ctx, std::span<const double>(
                     local.col(0), static_cast<std::size_t>(local.rows())));
        const auto run = [&](ortho::BlockOrthoManager& mgr, bool fold_close,
                             std::uint64_t& allreduces) {
          ManagerRun out{dense::copy_of(local.view()), Matrix(m + 1, m + 1),
                         Matrix(m + 1, m + 1), 0};
          for (index_t i = 0; i < out.basis.rows(); ++i) out.basis(i, 0) /= nrm;
          out.r(0, 0) = 1.0;
          mgr.reset(1, fold_close);
          comm.reset_stats();
          for (index_t p = 0; p < m / s; ++p) {
            mgr.note_mpk_start(ctx, out.l.view(), p * s);
            out.nfinal = mgr.add_panel(ctx, out.basis.view(), p * s + 1, s,
                                       out.r.view(), out.l.view());
          }
          out.nfinal = mgr.finalize(ctx, out.basis.view(), m + 1, out.r.view(),
                                    out.l.view());
          allreduces = comm.stats().allreduces;
          return out;
        };
        std::uint64_t sync_plain = 0;
        std::uint64_t sync_fold = 0;
        const auto plain_mgr = ortho::make_two_stage_manager(bs);
        const auto fold_mgr = ortho::make_two_stage_manager(bs);
        const ManagerRun plain = run(*plain_mgr, false, sync_plain);
        const ManagerRun kept = run(*fold_mgr, true, sync_fold);
        const std::string where = "bs=" + std::to_string(bs) +
                                  " dd=" + std::to_string(dd) +
                                  " rank=" + std::to_string(comm.rank());
        EXPECT_EQ(kept.nfinal, plain.nfinal) << where;
        EXPECT_EQ(sync_fold, sync_plain) << where;
        EXPECT_EQ(std::memcmp(kept.r.col(0), plain.r.col(0),
                              sizeof(double) * (m + 1) * (m + 1)), 0)
            << where;
        EXPECT_EQ(std::memcmp(kept.l.col(0), plain.l.col(0),
                              sizeof(double) * (m + 1) * (m + 1)), 0)
            << where;
        // Columns before the closing big panel are final on both paths;
        // the closing big panel itself kept its stage-1 columns.
        const index_t closed = m + 1 - bs;
        const auto col_bytes = sizeof(double) * kept.basis.rows();
        EXPECT_EQ(std::memcmp(kept.basis.col(0), plain.basis.col(0),
                              col_bytes * closed), 0)
            << where;
        EXPECT_NE(std::memcmp(kept.basis.col(closed), plain.basis.col(closed),
                              col_bytes * bs), 0)
            << where;

        // The solver multiplies the first m columns (the Hessenberg
        // columns); all m + 1 exercise the full T_diag.
        for (const index_t ncols : {m, m + 1}) {
          for (const index_t w : {1, 3}) {
            Matrix y(ncols, w);
            util::Xoshiro256 rng(static_cast<std::uint64_t>(100 + ncols + w));
            for (index_t j = 0; j < w; ++j) {
              for (index_t i = 0; i < ncols; ++i) y(i, j) = rng.normal();
            }
            Matrix y_fold = dense::copy_of(y.view());
            fold_mgr->fold_correction(y_fold.view());
            Matrix qy(local.rows(), w);
            Matrix qy_fold(local.rows(), w);
            dense::gemm_nn(1.0, plain.basis.view().columns(0, ncols), y.view(),
                           0.0, qy.view());
            dense::gemm_nn(1.0, kept.basis.view().columns(0, ncols),
                           y_fold.view(), 0.0, qy_fold.view());
            EXPECT_LT(dense::max_abs_diff(qy.view(), qy_fold.view()),
                      1e-12 * dense::frobenius_norm(qy.view()))
                << where << " ncols=" << ncols << " w=" << w;
          }
        }
      });
    }
  }
}

TEST(TwoStageManager, RejectsBadConfiguration) {
  EXPECT_THROW(ortho::make_two_stage_manager(0), std::invalid_argument);
  EXPECT_THROW(ortho::make_two_stage_manager(-5), std::invalid_argument);
}

TEST(Managers, NamesAndSyncAccounting) {
  EXPECT_EQ(ortho::make_bcgs2_manager(ortho::IntraKind::kCholQR2)->name(),
            "BCGS2(CholQR2)");
  EXPECT_EQ(ortho::make_bcgs_pip2_manager()->name(), "BCGS-PIP2");
  EXPECT_EQ(ortho::make_two_stage_manager(60)->name(), "Two-stage");

  EXPECT_DOUBLE_EQ(
      ortho::make_bcgs2_manager(ortho::IntraKind::kCholQR2)->syncs_per_s_steps(5, 60),
      5.0);
  EXPECT_DOUBLE_EQ(ortho::make_bcgs_pip2_manager()->syncs_per_s_steps(5, 60),
                   2.0);
  EXPECT_DOUBLE_EQ(ortho::make_two_stage_manager(60)->syncs_per_s_steps(5, 60),
                   1.0 + 5.0 / 60.0);
}

}  // namespace
