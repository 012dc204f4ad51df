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
                  MatrixView r_prev, const OverlapHook& overlap) {
  assert(r_prev.rows == q.cols && r_prev.cols == v.cols);
  if (q.cols == 0) {
    if (overlap) overlap();
    return;
  }
  block_dot(ctx, q, v, r_prev, overlap);
  block_update(ctx, q, r_prev, v);
}

void bcgs2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag, IntraKind intra) {
  assert(r_diag.rows == v.cols && r_diag.cols == v.cols);
  const int breakdowns_before = ctx.cholesky_breakdowns;

  // First inter-block pass; the second pass's scratch allocation rides
  // in the reduce's overlap window (result-independent local work).
  dense::Matrix t_prev, t_diag;
  bcgs_project(ctx, q, v, r_prev, [&] {
    if (q.cols > 0) {
      t_prev = dense::Matrix(q.cols, v.cols);
      t_diag = dense::Matrix(v.cols, v.cols);
    }
  });

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
  bcgs_project(ctx, q, v, t_prev.view());
  cholqr(ctx, v, t_diag.view());
  reortho_fixup(t_prev.view(), t_diag.view(), r_prev, r_diag);
}

void bcgs_pip(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
              MatrixView r_prev, MatrixView r_diag,
              const OverlapHook& overlap) {
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
    dense::Matrix s_lo, s_hi;
    {
      // Pythagorean scratch allocation and caller-supplied trailing
      // work ride in the fused-reduce overlap window.
      PendingReduce pending =
          fused_gram_dd_ireduce(ctx, q, v, g_hi.view(), g_lo.view());
      s_lo = dense::Matrix(s, s);
      s_hi = dense::Matrix(s, s);
      if (overlap) overlap();
      pending.wait();
    }
    dense::dd_round(g_hi.view().block(0, 0, nq, s),
                    g_lo.view().block(0, 0, nq, s), r_prev);

    if (ctx.timers) ctx.timers->start("ortho/chol");
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
    if (ctx.timers) ctx.timers->stop("ortho/chol");
    chol_factor_dd(ctx, s_hi.view(), s_lo.view(), "BCGS-PIP");
    dense::dd_round(s_hi.view(), s_lo.view(), r_diag);
  } else {
    // G = [Q, V]^T V (Fig. 4a line 1): one fused reduce; caller-supplied
    // trailing work rides in its overlap window.
    dense::Matrix g(nq + s, s);
    {
      PendingReduce pending = fused_gram_ireduce(ctx, q, v, g.view());
      if (overlap) {
        overlap();
      } else {
        pending.no_overlap_credit();  // empty window: nothing was hidden
      }
      pending.wait();
    }
    // r_prev = Q^T V (top block of G); Pythagorean update
    // S = V^T V - r_prev^T r_prev, then Cholesky (Fig. 4a line 2).
    dense::copy(g.view().block(0, 0, nq, s), r_prev);
    dense::copy(g.view().block(nq, 0, s, s), r_diag);
    if (nq > 0) {
      if (ctx.timers) ctx.timers->start("ortho/chol");
      dense::gemm_tn(-1.0, r_prev, r_prev, 1.0, r_diag);
      if (ctx.timers) ctx.timers->stop("ortho/chol");
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
  // The second pass's scratch allocation overlaps the first pass's
  // fused-Gram reduce.
  dense::Matrix t_prev, t_diag;
  bcgs_pip(ctx, q, v, r_prev, r_diag, [&] {
    t_prev = dense::Matrix(q.cols, v.cols);
    t_diag = dense::Matrix(v.cols, v.cols);
  });
  // Re-orthogonalization of an O(1)-conditioned panel: plain double
  // suffices unless the first pass had to shift (see cholqr2).
  ScopedGramPrecision guard(ctx,
                            ctx.mixed_precision_gram &&
                                ctx.cholesky_breakdowns != breakdowns_before);
  bcgs_pip(ctx, q, v, t_prev.view(), t_diag.view());
  reortho_fixup(t_prev.view(), t_diag.view(), r_prev, r_diag);
}

}  // namespace tsbo::ortho
