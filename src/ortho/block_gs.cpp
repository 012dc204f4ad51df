#include "ortho/block_gs.hpp"

#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "ortho/intra.hpp"

#include <cassert>

namespace tsbo::ortho {

namespace {

/// r_prev += t_prev * r_diag;  r_diag := t_diag * r_diag.
/// The exact re-orthogonalization coefficient update (the paper's
/// Fig. 4b lines 5-6; Fig. 2b's "T + R" is its first-order
/// approximation — we apply the exact form everywhere).
void reortho_fixup(ConstMatrixView t_prev, ConstMatrixView t_diag,
                   MatrixView r_prev, MatrixView r_diag) {
  if (r_prev.cols > 0 && r_prev.rows > 0) {
    dense::gemm_nn(1.0, t_prev, r_diag, 1.0, r_prev);
  }
  dense::Matrix tmp(r_diag.rows, r_diag.cols);
  dense::gemm_nn(1.0, t_diag, r_diag, 0.0, tmp.view());
  dense::copy(tmp.view(), r_diag);
}

}  // namespace

void bcgs_project(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
                  MatrixView r_prev) {
  assert(r_prev.rows == q.cols && r_prev.cols == v.cols);
  if (q.cols == 0) return;
  block_dot(ctx, q, v, r_prev);
  block_update(ctx, q, r_prev, v);
}

void bcgs2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag, IntraKind intra) {
  assert(r_diag.rows == v.cols && r_diag.cols == v.cols);
  const int breakdowns_before = ctx.cholesky_breakdowns;

  // First inter-block pass.
  bcgs_project(ctx, q, v, r_prev);

  // First intra-block factorization.
  switch (intra) {
    case IntraKind::kCholQR2:
      cholqr2(ctx, v, r_diag);
      break;
    case IntraKind::kHHQR:
      hhqr(ctx, v, r_diag);
      break;
    case IntraKind::kShiftedCholQR3:
      shifted_cholqr3(ctx, v, r_diag);
      break;
  }

  if (q.cols == 0) return;

  // Second inter-block pass + CholQR (paper Fig. 2b lines 10-15).
  // After a clean first pass kappa(V) = O(1), so the dd Gram buys no
  // stability here — drop to plain double (see ScopedGramPrecision).
  ScopedGramPrecision guard(ctx,
                            ctx.mixed_precision_gram &&
                                ctx.cholesky_breakdowns != breakdowns_before);
  dense::Matrix t_prev(q.cols, v.cols);
  dense::Matrix t_diag(v.cols, v.cols);
  bcgs_project(ctx, q, v, t_prev.view());
  cholqr(ctx, v, t_diag.view());
  reortho_fixup(t_prev.view(), t_diag.view(), r_prev, r_diag);
}

void bcgs_pip(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
              MatrixView r_prev, MatrixView r_diag) {
  assert(r_prev.rows == q.cols && r_prev.cols == v.cols);
  assert(r_diag.rows == v.cols && r_diag.cols == v.cols);
  const index_t nq = q.cols;
  const index_t s = v.cols;

  if (ctx.mixed_precision_gram) {
    // Mixed-precision BCGS-PIP: the fused Gram, the Pythagorean update
    // S = V^T V - r_prev^T r_prev, and the Cholesky all stay in
    // double-double — the subtraction is exactly where the condition
    // squaring bites (condition (5)), so rounding any of the three to
    // double would reintroduce the eps^{-1/2} cliff.  Still one fused
    // reduce.  r_prev is rounded for the working-precision update
    // V - Q r_prev; its products re-enter the dd subtraction exactly
    // via two_prod, keeping S consistent with the update actually
    // applied.
    dense::Matrix g_lo(nq + s, s);
    dense::Matrix g_hi(nq + s, s);
    fused_gram_dd(ctx, q, v, g_hi.view(), g_lo.view());
    dense::Matrix s_lo(s, s);
    dense::Matrix s_hi(s, s);
    dense::dd_round(g_hi.view().block(0, 0, nq, s),
                    g_lo.view().block(0, 0, nq, s), r_prev);

    {
      const ScopedPhase t(ctx.timers, Phase::kOrthoChol);
      if (nq > 0) {
        // r_prev^T r_prev on the threaded pair kernel, then one
        // elementwise dd subtraction from the V^T V block.
        dense::Matrix p_lo(s, s);
        dense::Matrix p_hi(s, s);
        dense::gemm_tn_dd(r_prev, r_prev, p_hi.view(), p_lo.view());
        for (index_t j = 0; j < s; ++j) {
          for (index_t i = 0; i < s; ++i) {
            const dense::dd acc =
                dense::dd_sub(dense::dd{g_hi(nq + i, j), g_lo(nq + i, j)},
                              dense::dd{p_hi(i, j), p_lo(i, j)});
            s_hi(i, j) = acc.hi;
            s_lo(i, j) = acc.lo;
          }
        }
      } else {
        dense::copy(g_hi.view().block(nq, 0, s, s), s_hi.view());
        dense::copy(g_lo.view().block(nq, 0, s, s), s_lo.view());
      }
    }
    chol_factor_dd(ctx, s_hi.view(), s_lo.view(), "BCGS-PIP");
    dense::dd_round(s_hi.view(), s_lo.view(), r_diag);
  } else {
    // G = [Q, V]^T V (Fig. 4a line 1): one fused reduce.
    dense::Matrix g(nq + s, s);
    fused_gram(ctx, q, v, g.view());
    // r_prev = Q^T V (top block of G); Pythagorean update
    // S = V^T V - r_prev^T r_prev, then Cholesky (Fig. 4a line 2).
    dense::copy(g.view().block(0, 0, nq, s), r_prev);
    dense::copy(g.view().block(nq, 0, s, s), r_diag);
    if (nq > 0) {
      const ScopedPhase t(ctx.timers, Phase::kOrthoChol);
      dense::gemm_tn(-1.0, r_prev, r_prev, 1.0, r_diag);
    }
    chol_factor(ctx, r_diag, "BCGS-PIP");
  }

  // V := (V - Q r_prev) r_diag^{-1} (Fig. 4a lines 3-4).
  block_update(ctx, q, r_prev, v);
  block_scale(ctx, r_diag, v);
}

void bcgs_pip2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
               MatrixView r_prev, MatrixView r_diag) {
  const int breakdowns_before = ctx.cholesky_breakdowns;
  bcgs_pip(ctx, q, v, r_prev, r_diag);
  // Re-orthogonalization of an O(1)-conditioned panel: plain double
  // suffices unless the first pass had to shift (see cholqr2).
  ScopedGramPrecision guard(ctx,
                            ctx.mixed_precision_gram &&
                                ctx.cholesky_breakdowns != breakdowns_before);
  dense::Matrix t_prev(q.cols, v.cols);
  dense::Matrix t_diag(v.cols, v.cols);
  bcgs_pip(ctx, q, v, t_prev.view(), t_diag.view());
  reortho_fixup(t_prev.view(), t_diag.view(), r_prev, r_diag);
}

}  // namespace tsbo::ortho
