// Intra-block orthogonalization: CholQR, CholQR2, distributed HHQR —
// correctness, stability bounds (paper Fig. 6 behaviour),
// synchronization counts, breakdown handling.

#include "dense/blas3.hpp"
#include "dense/svd.hpp"
#include "ortho/intra.hpp"
#include "par/spmd.hpp"
#include "synth/synthetic.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

using IntraFn = std::function<void(ortho::OrthoContext&, dense::MatrixView,
                                   dense::MatrixView)>;

struct IntraCase {
  const char* name;
  IntraFn fn;
  double kappa_limit;    // kappa at which `stable_tol` orthogonality holds
  double stable_tol;     // orthogonality bound at kappa_limit
  double factor_tol;     // orthogonality bound at the mild kappa = 1e3
  int expected_reduces;  // per call at s = 5 (-1: don't check)
};

class IntraAlgos : public ::testing::TestWithParam<IntraCase> {};

TEST_P(IntraAlgos, FactorizesWellConditionedPanel) {
  const auto& c = GetParam();
  const index_t n = 3000, s = 5;
  const Matrix v0 = synth::logscaled(n, s, 1e3, 17);
  Matrix v = dense::copy_of(v0.view());
  Matrix r(s, s);
  ortho::OrthoContext ctx;
  c.fn(ctx, v.view(), r.view());

  // Q R == V, Q orthonormal (to the algorithm's kappa-dependent
  // accuracy: single-pass CholQR is kappa^2*eps),
  // R upper triangular with non-negative diagonal.
  Matrix qr(n, s);
  dense::gemm_nn(1.0, v.view(), r.view(), 0.0, qr.view());
  EXPECT_LT(dense::max_abs_diff(qr.view(), v0.view()), 1e-11);
  EXPECT_LT(dense::orthogonality_error(v.view()), c.factor_tol);
  for (index_t j = 0; j < s; ++j) {
    EXPECT_GE(r(j, j), 0.0) << c.name;
    for (index_t i = j + 1; i < s; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST_P(IntraAlgos, StableUpToDocumentedKappa) {
  const auto& c = GetParam();
  const index_t n = 2000, s = 5;
  const Matrix v0 = synth::logscaled(n, s, c.kappa_limit, 23);
  Matrix v = dense::copy_of(v0.view());
  Matrix r(s, s);
  ortho::OrthoContext ctx;
  ctx.policy = ortho::BreakdownPolicy::kShift;
  c.fn(ctx, v.view(), r.view());
  EXPECT_LT(dense::orthogonality_error(v.view()), c.stable_tol) << c.name;
}

TEST_P(IntraAlgos, DistributedMatchesSequential) {
  const auto& c = GetParam();
  const index_t n = 1200, s = 4;
  const Matrix v0 = synth::logscaled(n, s, 1e4, 29);

  Matrix v_seq = dense::copy_of(v0.view());
  Matrix r_seq(s, s);
  ortho::OrthoContext seq_ctx;
  c.fn(seq_ctx, v_seq.view(), r_seq.view());

  for (const int p : {2, 3}) {
    Matrix v_dist(n, s);
    Matrix r_dist(s, s);
    par::spmd_run(p, [&](par::Communicator& comm) {
      const auto range = par::block_row_range(n, comm.size(), comm.rank());
      Matrix local = dense::copy_of(v0.view().block(
          static_cast<index_t>(range.begin), 0,
          static_cast<index_t>(range.size()), s));
      Matrix r_local(s, s);
      ortho::OrthoContext ctx;
      ctx.comm = &comm;
      c.fn(ctx, local.view(), r_local.view());
      // Stitch local rows back for comparison.
      dense::copy(local.view(),
                  v_dist.view().block(static_cast<index_t>(range.begin), 0,
                                      static_cast<index_t>(range.size()), s));
      if (comm.rank() == 0) dense::copy(r_local.view(), r_dist.view());
    });
    // Deterministic reductions: distributed == sequential to rounding.
    EXPECT_LT(dense::max_abs_diff(r_seq.view(), r_dist.view()),
              1e-9 * dense::frobenius_norm(r_seq.view()))
        << c.name << " p=" << p;
    EXPECT_LT(dense::max_abs_diff(v_seq.view(), v_dist.view()), 1e-9)
        << c.name << " p=" << p;
  }
}

TEST_P(IntraAlgos, SynchronizationCountMatchesPaper) {
  const auto& c = GetParam();
  if (c.expected_reduces < 0) GTEST_SKIP();
  const index_t n = 600, s = 5;
  const Matrix v0 = synth::logscaled(n, s, 1e2, 31);
  par::spmd_run(2, [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v0.view().block(static_cast<index_t>(range.begin), 0,
                        static_cast<index_t>(range.size()), s));
    Matrix r(s, s);
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    comm.reset_stats();
    c.fn(ctx, local.view(), r.view());
    EXPECT_EQ(static_cast<int>(comm.stats().allreduces +
                               comm.stats().broadcasts),
              c.expected_reduces)
        << c.name;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, IntraAlgos,
    ::testing::Values(
        // Single-pass CholQR: orthogonality kappa^2 * eps (Fig. 6 law);
        // one reduce.  "Stable" only for modest kappa.
        IntraCase{"cholqr",
                  [](ortho::OrthoContext& c, dense::MatrixView v,
                     dense::MatrixView r) { ortho::cholqr(c, v, r); },
                  1e2, 1e-9, 1e-7, 1},
        // CholQR2: O(eps) up to kappa ~ eps^{-1/2} (Theorem IV.1).
        IntraCase{"cholqr2",
                  [](ortho::OrthoContext& c, dense::MatrixView v,
                     dense::MatrixView r) { ortho::cholqr2(c, v, r); },
                  1e6, 1e-12, 1e-13, 2},
        // HHQR: unconditionally O(eps).
        IntraCase{"hhqr",
                  [](ortho::OrthoContext& c, dense::MatrixView v,
                     dense::MatrixView r) { ortho::hhqr(c, v, r); },
                  1e14, 1e-12, 1e-13, -1}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(CholQr, OrthogonalityErrorGrowsAsKappaSquared) {
  // The Fig. 6 law: after one CholQR, ||I - Q^T Q|| ~ kappa(V)^2 eps.
  const index_t n = 2000, s = 5;
  double prev_err = 0.0;
  for (const double kappa : {1e2, 1e4, 1e6}) {
    Matrix v = synth::logscaled(n, s, kappa, 41);
    Matrix r(s, s);
    ortho::OrthoContext ctx;
    ortho::cholqr(ctx, v.view(), r.view());
    const double err = dense::orthogonality_error(v.view());
    const double bound = 16 * (n * s + s * (s + 1)) * 1.1e-16 * kappa * kappa;
    EXPECT_LT(err, bound) << "kappa " << kappa;
    EXPECT_GT(err, prev_err) << "kappa " << kappa;  // grows with kappa
    prev_err = err;
  }
}

TEST(CholQr, ThrowPolicySurfacesBreakdownPastEpsHalf) {
  // kappa = 1e12 >> eps^{-1/2}: the Gram matrix is numerically
  // indefinite.  Whether a given seed produces a negative pivot is
  // rounding-dependent, so sweep seeds and require that breakdowns
  // occur and are reported via the exception under kThrow.
  int breakdowns = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Matrix v = synth::logscaled(1500, 5, 1e12, seed);
    Matrix r(5, 5);
    ortho::OrthoContext ctx;
    ctx.policy = ortho::BreakdownPolicy::kThrow;
    try {
      ortho::cholqr(ctx, v.view(), r.view());
    } catch (const ortho::CholeskyBreakdown&) {
      EXPECT_EQ(ctx.cholesky_breakdowns, 1);
      ++breakdowns;
    }
  }
  EXPECT_GE(breakdowns, 1);
}

TEST(CholQr, ShiftPolicyRecoversAndCounts) {
  // Same sweep under kShift: every run must complete, and the runs
  // that broke down must record shift retries and stay finite.
  int breakdowns = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Matrix v = synth::logscaled(1500, 5, 1e12, seed);
    Matrix r(5, 5);
    ortho::OrthoContext ctx;
    ctx.policy = ortho::BreakdownPolicy::kShift;
    EXPECT_NO_THROW(ortho::cholqr(ctx, v.view(), r.view()));
    if (ctx.cholesky_breakdowns > 0) {
      EXPECT_GE(ctx.shift_retries, 1);
      ++breakdowns;
    }
    for (index_t j = 0; j < 5; ++j) {
      for (index_t i = 0; i < 1500; ++i) EXPECT_TRUE(std::isfinite(v(i, j)));
    }
  }
  EXPECT_GE(breakdowns, 1);
}

TEST(MixedPrecision, DdGramExtendsCholQr2Range) {
  // With double-double Gram accumulation, CholQR2 survives kappa well
  // past eps^{-1/2} (the paper's related-work mixed-precision variant).
  const index_t n = 1500, s = 5;
  Matrix v = synth::logscaled(n, s, 3e9, 53);
  Matrix r(s, s);
  ortho::OrthoContext ctx;
  ctx.mixed_precision_gram = true;
  ctx.policy = ortho::BreakdownPolicy::kThrow;
  EXPECT_NO_THROW(ortho::cholqr2(ctx, v.view(), r.view()));
  EXPECT_LT(dense::orthogonality_error(v.view()), 1e-11);
}

TEST(Hhqr, RequiresRankZeroToOwnPivotRows) {
  // 6 rows on rank 0 with s = 8 would underflow the pivot block.
  par::spmd_run(2, [&](par::Communicator& comm) {
    const index_t nloc = 6;
    Matrix v(nloc, 8);
    Matrix r(8, 8);
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    EXPECT_THROW(ortho::hhqr(ctx, v.view(), r.view()), std::invalid_argument);
  });
}

TEST(Hhqr, ObservedSyncsScaleWithColumns) {
  // The paper's point: HHQR needs O(s) synchronizations.
  const index_t n = 400;
  for (const index_t s : {2, 4, 8}) {
    const Matrix v0 = synth::logscaled(n, s, 1e2, 59);
    par::spmd_run(2, [&](par::Communicator& comm) {
      const auto range = par::block_row_range(n, comm.size(), comm.rank());
      Matrix local = dense::copy_of(
          v0.view().block(static_cast<index_t>(range.begin), 0,
                          static_cast<index_t>(range.size()), s));
      Matrix r(s, s);
      ortho::OrthoContext ctx;
      ctx.comm = &comm;
      comm.reset_stats();
      ortho::hhqr(ctx, local.view(), r.view());
      const auto syncs = comm.stats().allreduces + comm.stats().broadcasts;
      EXPECT_GE(syncs, static_cast<std::uint64_t>(2 * s));
      EXPECT_LE(syncs, static_cast<std::uint64_t>(3 * s + 2));
    });
  }
}

TEST(Hhqr, ReduceSecondsAreNotCountedAsHhqr) {
  // ortho/hhqr times the local work and ortho/reduce the collectives,
  // so on every rank the two buckets fit inside the call's wall time
  // even when the modeled fabric makes each collective slow.
  const index_t n = 4000, s = 8;
  const Matrix v0 = synth::logscaled(n, s, 1e2, 61);
  par::spmd_run(2, par::NetworkModel::cluster(), [&](par::Communicator& comm) {
    const auto range = par::block_row_range(n, comm.size(), comm.rank());
    Matrix local = dense::copy_of(
        v0.view().block(static_cast<index_t>(range.begin), 0,
                        static_cast<index_t>(range.size()), s));
    Matrix r(s, s);
    util::PhaseTimers timers;
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    ctx.timers = &timers;
    comm.barrier();
    const util::WallTimer wall;
    ortho::hhqr(ctx, local.view(), r.view());
    const double elapsed = wall.seconds();
    const double hhqr = timers.seconds(util::Phase::kOrthoHhqr);
    const double reduce = timers.seconds(util::Phase::kOrthoReduce);
    EXPECT_GT(hhqr, 0.0);
    EXPECT_GT(reduce, 0.0);
    EXPECT_LE(hhqr + reduce, elapsed) << "rank " << comm.rank();
  });
}

}  // namespace
