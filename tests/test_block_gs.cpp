// Inter-block orthogonalization: BCGS, BCGS2, BCGS-PIP, BCGS-PIP2 —
// reconstruction, orthogonality bounds (paper Theorems IV.1/IV.2),
// single-reduce property of PIP, synchronization counts.

#include "dense/blas3.hpp"
#include "dense/svd.hpp"
#include "ortho/block_gs.hpp"
#include "ortho/intra.hpp"
#include "par/spmd.hpp"
#include "synth/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

/// Orthogonalizes panels of `v0` sequentially with `algo`, returning
/// the accumulated Q and R.
struct PanelRun {
  Matrix q;  // n x total
  Matrix r;  // total x total (block upper triangular)
};

using BlockAlgo =
    std::function<void(ortho::OrthoContext&, dense::ConstMatrixView,
                       dense::MatrixView, dense::MatrixView, dense::MatrixView)>;

PanelRun run_panels(ortho::OrthoContext& ctx, const Matrix& v0, index_t s,
                    const BlockAlgo& algo) {
  const index_t n = v0.rows(), total = v0.cols();
  PanelRun out{dense::copy_of(v0.view()), Matrix(total, total)};
  for (index_t c0 = 0; c0 < total; c0 += s) {
    auto qprev = out.q.view().columns(0, c0);
    auto panel = out.q.view().columns(c0, s);
    auto r_prev = out.r.view().block(0, c0, c0, s);
    auto r_diag = out.r.view().block(c0, c0, s, s);
    algo(ctx, qprev, panel, r_prev, r_diag);
  }
  return out;
}

const BlockAlgo kBcgs2 = [](ortho::OrthoContext& c, dense::ConstMatrixView q,
                            dense::MatrixView v, dense::MatrixView rp,
                            dense::MatrixView rd) {
  ortho::bcgs2(c, q, v, rp, rd, ortho::IntraKind::kCholQR2);
};
const BlockAlgo kBcgs2Hhqr = [](ortho::OrthoContext& c,
                                dense::ConstMatrixView q, dense::MatrixView v,
                                dense::MatrixView rp, dense::MatrixView rd) {
  ortho::bcgs2(c, q, v, rp, rd, ortho::IntraKind::kHHQR);
};
const BlockAlgo kPip = [](ortho::OrthoContext& c, dense::ConstMatrixView q,
                          dense::MatrixView v, dense::MatrixView rp,
                          dense::MatrixView rd) {
  ortho::bcgs_pip(c, q, v, rp, rd);
};
const BlockAlgo kPip2 = [](ortho::OrthoContext& c, dense::ConstMatrixView q,
                           dense::MatrixView v, dense::MatrixView rp,
                           dense::MatrixView rd) {
  ortho::bcgs_pip2(c, q, v, rp, rd);
};

struct BlockCase {
  const char* name;
  BlockAlgo algo;
  double kappa_ok;  // panel kappa for which O(eps) orthogonality holds
  int syncs_per_panel;
};

class BlockAlgos : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockAlgos, ReconstructsQRandOrthogonality) {
  const auto& c = GetParam();
  synth::GluedSpec spec;
  spec.n = 2500;
  spec.panels = 5;
  spec.panel_cols = 5;
  spec.kappa_panel = c.kappa_ok;
  spec.growth = 1.0;
  const Matrix v0 = synth::glued(spec, 3);

  ortho::OrthoContext ctx;
  const PanelRun run = run_panels(ctx, v0, 5, c.algo);

  // Q R == V.
  Matrix qr(v0.rows(), v0.cols());
  dense::gemm_nn(1.0, run.q.view(), run.r.view(), 0.0, qr.view());
  const double scale = dense::frobenius_norm(v0.view());
  EXPECT_LT(dense::max_abs_diff(qr.view(), v0.view()), 1e-10 * scale) << c.name;

  // ||I - Q^T Q|| = O(eps) (Theorems IV.1 / IV.2).
  EXPECT_LT(dense::orthogonality_error(run.q.view()), 5e-13) << c.name;
}

TEST_P(BlockAlgos, SyncCountMatchesPaperAccounting) {
  const auto& c = GetParam();
  const index_t n = 800, s = 5;
  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = 3;
  spec.panel_cols = s;
  spec.kappa_panel = 1e2;
  const Matrix v0 = synth::glued(spec, 5);

  par::spmd_run(2, [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v0.view().block(static_cast<index_t>(range.begin), 0,
                        static_cast<index_t>(range.size()), v0.cols()));
    ortho::OrthoContext ctx;
    ctx.comm = &comm;

    Matrix r(v0.cols(), v0.cols());
    // Count syncs on the LAST panel (j > 1 path includes inter-block).
    for (index_t c0 = 0; c0 < v0.cols(); c0 += s) {
      auto qprev = local.view().columns(0, c0);
      auto panel = local.view().columns(c0, s);
      if (c0 == v0.cols() - s) comm.reset_stats();
      c.algo(ctx, qprev, panel, r.view().block(0, c0, c0, s),
             r.view().block(c0, c0, s, s));
    }
    EXPECT_EQ(static_cast<int>(comm.stats().allreduces +
                               comm.stats().broadcasts),
              c.syncs_per_panel)
        << c.name;
  });
}

TEST_P(BlockAlgos, DistributedMatchesSequential) {
  const auto& c = GetParam();
  const index_t n = 900, s = 3;
  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = 4;
  spec.panel_cols = s;
  spec.kappa_panel = 1e3;
  const Matrix v0 = synth::glued(spec, 7);

  ortho::OrthoContext seq;
  const PanelRun ref = run_panels(seq, v0, s, c.algo);

  Matrix q_dist(n, v0.cols());
  par::spmd_run(3, [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v0.view().block(static_cast<index_t>(range.begin), 0,
                        static_cast<index_t>(range.size()), v0.cols()));
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    Matrix r(v0.cols(), v0.cols());
    for (index_t c0 = 0; c0 < v0.cols(); c0 += s) {
      c.algo(ctx, local.view().columns(0, c0), local.view().columns(c0, s),
             r.view().block(0, c0, c0, s), r.view().block(c0, c0, s, s));
    }
    dense::copy(local.view(),
                q_dist.view().block(static_cast<index_t>(range.begin), 0,
                                    static_cast<index_t>(range.size()),
                                    v0.cols()));
  });
  // Local partial sums round differently than one sequential sweep, and
  // re-orthogonalization amplifies the difference by O(kappa); the
  // bases agree far beyond what the orthogonality tolerance needs.
  EXPECT_LT(dense::max_abs_diff(ref.q.view(), q_dist.view()), 1e-6) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BlockAlgos,
    ::testing::Values(BlockCase{"bcgs2_cholqr2", kBcgs2, 1e7, 5},
                      BlockCase{"pip2", kPip2, 1e7, 2},
                      BlockCase{"pip_single", kPip, 1e2, 1}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(BcgsPip, IsCholQrForFirstBlock) {
  // Paper note: with no previous blocks BCGS-PIP == CholQR (and PIP2 ==
  // CholQR2).
  const index_t n = 1000, s = 5;
  const Matrix v0 = synth::logscaled(n, s, 1e4, 9);

  Matrix v_pip = dense::copy_of(v0.view());
  Matrix r_pip(s, s);
  ortho::OrthoContext ctx;
  Matrix empty(n, 0);
  Matrix r_prev_empty(0, s);
  ortho::bcgs_pip(ctx, empty.view().columns(0, 0), v_pip.view(),
                  r_prev_empty.view(), r_pip.view());

  Matrix v_chol = dense::copy_of(v0.view());
  Matrix r_chol(s, s);
  ortho::cholqr(ctx, v_chol.view(), r_chol.view());

  EXPECT_LT(dense::max_abs_diff(v_pip.view(), v_chol.view()), 1e-14);
  EXPECT_LT(dense::max_abs_diff(r_pip.view(), r_chol.view()), 1e-12);
}

TEST(BcgsPip, SingleReduceRegardlessOfBasisSize) {
  // The defining property (paper Fig. 4a): one all-reduce even with a
  // large accumulated Q.
  const index_t n = 1200, s = 5;
  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = 8;
  spec.panel_cols = s;
  spec.kappa_panel = 10.0;
  const Matrix v0 = synth::glued(spec, 21);

  par::spmd_run(2, [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v0.view().block(static_cast<index_t>(range.begin), 0,
                        static_cast<index_t>(range.size()), v0.cols()));
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    Matrix r(v0.cols(), v0.cols());
    for (index_t c0 = 0; c0 < v0.cols(); c0 += s) {
      comm.reset_stats();
      ortho::bcgs_pip(ctx, local.view().columns(0, c0),
                      local.view().columns(c0, s),
                      r.view().block(0, c0, c0, s),
                      r.view().block(c0, c0, s, s));
      EXPECT_EQ(comm.stats().allreduces, 1u) << "panel at " << c0;
    }
  });
}

TEST(BcgsPip2, FixupMakesRProductExact) {
  // After PIP2 the accumulated R must satisfy QR == V *including* the
  // re-orthogonalization corrections (exact fix-up form of Fig. 4b).
  const index_t n = 1500, s = 5;
  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = 4;
  spec.panel_cols = s;
  spec.kappa_panel = 1e6;
  const Matrix v0 = synth::glued(spec, 33);

  ortho::OrthoContext ctx;
  const PanelRun run = run_panels(ctx, v0, s, kPip2);
  Matrix qr(n, v0.cols());
  dense::gemm_nn(1.0, run.q.view(), run.r.view(), 0.0, qr.view());
  EXPECT_LT(dense::max_abs_diff(qr.view(), v0.view()),
            1e-11 * dense::frobenius_norm(v0.view()));
  // R block upper triangular with positive diagonal.
  for (index_t j = 0; j < v0.cols(); ++j) {
    EXPECT_GT(run.r(j, j), 0.0);
    for (index_t i = j + 1; i < v0.cols(); ++i) EXPECT_EQ(run.r(i, j), 0.0);
  }
}

TEST(Bcgs2WithHhqr, HandlesIllConditionedPanels) {
  // The paper's stability reference: BCGS2 + HHQR keeps O(eps)
  // orthogonality even when CholQR-based variants are near their limit.
  synth::GluedSpec spec;
  spec.n = 1200;
  spec.panels = 3;
  spec.panel_cols = 5;
  spec.kappa_panel = 1e10;  // past CholQR2's reliable range
  const Matrix v0 = synth::glued(spec, 39);

  ortho::OrthoContext ctx;
  const PanelRun run = run_panels(ctx, v0, 5, kBcgs2Hhqr);
  EXPECT_LT(dense::orthogonality_error(run.q.view()), 1e-12);
}

TEST(BcgsProject, SinglePassProjectsButDoesNotNormalize) {
  const index_t n = 500;
  const Matrix q = synth::random_orthonormal(n, 6, 41);
  Matrix v = synth::logscaled(n, 3, 10.0, 43);
  Matrix r(6, 3);
  ortho::OrthoContext ctx;
  ortho::bcgs_project(ctx, q.view(), v.view(), r.view());
  // v is now orthogonal to range(q).
  Matrix c(6, 3);
  dense::gemm_tn(1.0, q.view(), v.view(), 0.0, c.view());
  EXPECT_LT(dense::frobenius_norm(c.view()), 1e-12);
}

TEST(BlockGs, PipOrthogonalityDegradesAsKappaSquaredBeforeReorth) {
  // Fig. 7 behaviour: after the FIRST BCGS-PIP pass the error is
  // kappa^2 * O(eps); the second pass brings it to O(eps).
  const index_t n = 2000, s = 5;
  for (const double kappa : {1e3, 1e5, 1e7}) {
    synth::GluedSpec spec;
    spec.n = n;
    spec.panels = 3;
    spec.panel_cols = s;
    spec.kappa_panel = kappa;
    const Matrix v0 = synth::glued(spec, 47);
    ortho::OrthoContext ctx;

    const PanelRun once = run_panels(ctx, v0, s, kPip);
    const PanelRun twice = run_panels(ctx, v0, s, kPip2);
    const double e1 = dense::orthogonality_error(once.q.view());
    const double e2 = dense::orthogonality_error(twice.q.view());
    EXPECT_LT(e2, 5e-13) << kappa;
    EXPECT_LT(e1, 1e-11 * kappa * kappa) << kappa;
    if (kappa >= 1e5) EXPECT_GT(e1, e2) << kappa;
  }
}

}  // namespace
