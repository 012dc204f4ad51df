// The two-stage block orthogonalization manager (paper Fig. 5) and the
// one-stage managers behind the same interface: R/L bookkeeping,
// big-panel finalization, orthogonality (Theorem V.1), sync counts
// (1 per s steps + 1 per bs steps), the stage-2 Gram precision, the
// bs = 1 manager as BCGS-PIP2 bit for bit, and Fig. 8 behaviour on
// glued matrices.

#include "api/options.hpp"
#include "dense/blas3.hpp"
#include "dense/svd.hpp"
#include "krylov/sstep_gmres.hpp"
#include "ortho/manager.hpp"
#include "par/spmd.hpp"
#include "synth/synthetic.hpp"
#include "util/fault.hpp"
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

/// The manager the solver builds for ortho registry key `scheme`.
std::unique_ptr<ortho::BlockOrthoManager> registry_manager(
    const std::string& scheme, index_t s, index_t bs, index_t m) {
  const api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=" + scheme + " s=" + std::to_string(s) +
      " bs=" + std::to_string(bs) + " m=" + std::to_string(m));
  return krylov::make_manager(opts.sstep_config());
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

  const std::string scheme = bs > 0                           ? "two_stage"
                             : std::string(kind) == "pip2" ? "bcgs_pip2"
                                                           : kind;
  const auto mgr = registry_manager(scheme, s, bs > 0 ? bs : m, m);
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

/// One BCGS-PIP2 parity case: the registry's `bcgs_pip2` manager, built
/// for step size `s_built` and block width `b`, fed panels of `s_fed`
/// block steps (s_fed * b flat columns).
struct Pip2Case {
  const char* what;
  index_t s_built;
  index_t s_fed;
  index_t b;
  long fault_ordinal;  ///< gram.chol@N:corrupt under kShift; -1 = none
};

/// Runs the panels of `v` (b seed columns, then m * b panel columns)
/// through the `bcgs_pip2` registry manager or, with `kernel`, through
/// a panel-by-panel ortho::bcgs_pip2 sweep with the one-stage R/L
/// bookkeeping; returns rank-indexed results and comm stats.
std::vector<std::pair<ManagerRun, par::CommStats>> run_pip2(
    const Pip2Case& c, const Matrix& v, index_t m, bool dd, int ranks,
    bool kernel) {
  const index_t sw = c.s_fed * c.b;
  const index_t ncols = v.cols();
  std::unique_ptr<par::FaultInjector> injector;
  if (c.fault_ordinal >= 0) {
    injector = std::make_unique<par::FaultInjector>(
        par::FaultPlan::parse("gram.chol@" + std::to_string(c.fault_ordinal) +
                              ":corrupt"),
        ranks);
  }
  std::vector<std::pair<ManagerRun, par::CommStats>> out(
      static_cast<std::size_t>(ranks));
  par::spmd_run(ranks, [&](par::Communicator& comm) {
    comm.set_fault_injector(injector.get());
    const auto range = par::block_row_range(v.rows(), comm.size(), comm.rank());
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    ctx.mixed_precision_gram = dd;
    ctx.policy = c.fault_ordinal >= 0 ? ortho::BreakdownPolicy::kShift
                                      : ortho::BreakdownPolicy::kThrow;
    ManagerRun run{dense::copy_of(v.view().block(
                       static_cast<index_t>(range.begin), 0,
                       static_cast<index_t>(range.size()), ncols)),
                   Matrix(ncols, ncols), Matrix(ncols, ncols), c.b};
    for (index_t t = 0; t < c.b; ++t) run.r(t, t) = 1.0;
    const auto mgr = registry_manager("bcgs_pip2", c.s_built * c.b, c.b * m,
                                      c.b * m);
    mgr->reset(c.b);
    comm.reset_stats();
    for (index_t start = 0; start + c.b < ncols; start += sw) {
      const index_t q0 = start + c.b;
      if (kernel) {
        for (index_t t = 0; t < c.b; ++t) {
          dense::fill(run.l.view().columns(start + t, 1), 0.0);
          run.l(start + t, start + t) = 1.0;
        }
        ortho::bcgs_pip2(ctx, run.basis.view().columns(0, q0),
                         run.basis.view().columns(q0, sw),
                         run.r.view().block(0, q0, q0, sw),
                         run.r.view().block(q0, q0, sw, sw));
        dense::copy(run.r.view().columns(q0, sw),
                    run.l.view().columns(q0, sw));
        run.nfinal = q0 + sw;
      } else {
        for (index_t t = 0; t < c.b; ++t) {
          mgr->note_mpk_start(ctx, run.l.view(), start + t);
        }
        run.nfinal = mgr->add_panel(ctx, run.basis.view(), q0, sw,
                                    run.r.view(), run.l.view());
        // Every panel closes on arrival, whatever width it comes in.
        EXPECT_EQ(run.nfinal, q0 + sw) << c.what << " q0=" << q0;
      }
    }
    if (!kernel) {
      run.nfinal = mgr->finalize(ctx, run.basis.view(), ncols, run.r.view(),
                                 run.l.view());
    }
    EXPECT_EQ(ctx.cholesky_breakdowns, c.fault_ordinal >= 0 ? 1 : 0)
        << c.what;
    out[static_cast<std::size_t>(comm.rank())] = {std::move(run), comm.stats()};
  });
  return out;
}

TEST(TwoStageManager, Pip2SchemeMatchesPip2KernelBitwise) {
  // Paper Section V: the two-stage scheme whose big panel is one panel
  // is BCGS-PIP2.  The `bcgs_pip2` scheme is the two-stage manager at
  // bs = 1, so its basis, R and L must equal a panel-by-panel sweep of
  // the free ortho::bcgs_pip2 kernel (what bench_fig07 times) bit for
  // bit, with the same reduces and reduce bytes: plain-double second
  // passes after a clean first pass, and a dd second pass after a
  // first pass that broke down and took a shifted retry.
  const index_t n = 900, m = 20;
  const Pip2Case cases[] = {
      {"s=5", 5, 5, 1, -1},
      // Panel 2's first pass (ordinals 2p, 2p + 1 per panel).
      {"s=5 shifted first pass", 5, 5, 1, 4},
      // The autopilot's shrink: built for s = 5, fed s = 2 panels.
      {"built s=5 fed s=2", 5, 2, 1, -1},
      {"block b=3", 5, 5, 3, -1},
  };
  for (const Pip2Case& c : cases) {
    const index_t sw = c.s_fed * c.b;
    synth::GluedSpec spec;
    spec.n = n;
    spec.panels = static_cast<int>(m / c.s_fed);
    spec.panel_cols = sw;
    spec.kappa_panel = 1e6;
    spec.growth = 1.0;
    const Matrix panels = synth::glued(spec, 31);
    Matrix v(n, c.b * (m + 1));
    dense::copy(synth::random_orthonormal(n, c.b, 32).view(),
                v.view().columns(0, c.b));
    dense::copy(panels.view(), v.view().columns(c.b, panels.cols()));
    for (const bool dd : {false, true}) {
      for (const int ranks : {1, 2}) {
        const auto got = run_pip2(c, v, m, dd, ranks, /*kernel=*/false);
        const auto want = run_pip2(c, v, m, dd, ranks, /*kernel=*/true);
        for (int rank = 0; rank < ranks; ++rank) {
          const std::string where = std::string(c.what) +
                                    " dd=" + std::to_string(dd) +
                                    " ranks=" + std::to_string(ranks) +
                                    " rank=" + std::to_string(rank);
          const auto& [a, a_stats] = got[static_cast<std::size_t>(rank)];
          const auto& [b, b_stats] = want[static_cast<std::size_t>(rank)];
          ASSERT_EQ(a.nfinal, v.cols()) << where;
          ASSERT_EQ(b.nfinal, v.cols()) << where;
          const auto same = [](const Matrix& x, const Matrix& y) {
            return std::memcmp(x.col(0), y.col(0), x.data().size_bytes()) == 0;
          };
          EXPECT_TRUE(same(a.basis, b.basis)) << where;
          EXPECT_TRUE(same(a.r, b.r)) << where;
          EXPECT_TRUE(same(a.l, b.l)) << where;
          EXPECT_EQ(a_stats.allreduces, b_stats.allreduces) << where;
          EXPECT_EQ(a_stats.bytes_allreduced, b_stats.bytes_allreduced)
              << where;
        }
      }
    }
  }
}

TEST(TwoStageManager, Stage2GramIsPlainDoubleAfterCleanStage1) {
  // bs = 15 > s = 5 with the dd Gram: stage 1 stays dd, and a big panel
  // whose three stage-1 factorizations all held reduces a plain-double
  // stage-2 Gram of (q + bs) x bs entries.  When a stage-1
  // factorization of that big panel took a shifted retry, the flush
  // keeps the dd Gram and moves twice the bytes.
  const index_t n = 1500, s = 5, m = 30, bs = 15;
  const Matrix v = glued_with_seed(n, m / s, s, 1e5, 1.0, 37);
  // Cholesky ordinals: panels 0-2 -> 0-2, flush -> 3, panels 3-5 -> 4-6,
  // flush -> 7.  Ordinal 5 shifts panel 4, in the second big panel.
  for (const long fault : {-1L, 5L}) {
    par::FaultInjector injector(
        par::FaultPlan::parse(fault < 0 ? std::string()
                                        : "gram.chol@" + std::to_string(fault) +
                                              ":corrupt"),
        2);
    par::spmd_run(2, [&](par::Communicator& comm) {
      comm.set_fault_injector(&injector);
      const auto range = par::block_row_range(n, comm.size(), comm.rank());
      Matrix local = dense::copy_of(
          v.view().block(static_cast<index_t>(range.begin), 0,
                         static_cast<index_t>(range.size()), v.cols()));
      ortho::OrthoContext ctx;
      ctx.comm = &comm;
      ctx.policy = ortho::BreakdownPolicy::kShift;
      const double nrm = ortho::global_norm(
          ctx, std::span<const double>(local.col(0),
                                       static_cast<std::size_t>(local.rows())));
      for (index_t i = 0; i < local.rows(); ++i) local(i, 0) /= nrm;
      ctx.mixed_precision_gram = true;

      Matrix r(m + 1, m + 1), l(m + 1, m + 1);
      r(0, 0) = 1.0;
      const auto mgr = registry_manager("two_stage", s, bs, m);
      mgr->reset(1);
      const auto d = static_cast<std::uint64_t>(sizeof(double));
      for (index_t p = 0; p < m / s; ++p) {
        const index_t q0 = p * s + 1;
        const std::uint64_t before = comm.stats().bytes_allreduced;
        mgr->note_mpk_start(ctx, l.view(), p * s);
        mgr->add_panel(ctx, local.view(), q0, s, r.view(), l.view());
        const std::uint64_t moved = comm.stats().bytes_allreduced - before;
        // Stage 1: the dd fused Gram, hi and lo words.
        const std::uint64_t stage1 =
            2 * static_cast<std::uint64_t>((q0 + s) * s) * d;
        if ((p + 1) * s % bs != 0) {
          EXPECT_EQ(moved, stage1) << "panel " << p;
          continue;
        }
        const index_t q = q0 + s - bs;  // final columns before the big panel
        const bool shifted = fault >= 0 && p == 5;
        const std::uint64_t stage2 =
            (shifted ? 2 : 1) * static_cast<std::uint64_t>((q + bs) * bs) * d;
        EXPECT_EQ(moved, stage1 + stage2)
            << "panel " << p << " fault=" << fault;
      }
      EXPECT_EQ(ctx.cholesky_breakdowns, fault < 0 ? 0 : 1);
    });
  }
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
  auto pip = ortho::make_one_stage_manager(ortho::bcgs_pip);
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

}  // namespace
