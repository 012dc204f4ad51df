#include "ortho/multivector.hpp"

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <span>

namespace tsbo::ortho {

namespace {

/// Deterministic threaded local sum of squares; ranks then combine via
/// the (deterministic) all-reduce, keeping the result replicated exactly.
double reduced_sumsq(OrthoContext& ctx, std::span<const double> x) {
  double s = dense::sumsq(x);
  if (ctx.comm) {
    const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
    s = ctx.comm->allreduce_sum_scalar(s);
  }
  return s;
}

/// Global sum-reduce of a (possibly strided) view; one synchronization.
/// A strided view (a sub-block of the solver's R matrix) is packed,
/// reduced and unpacked: reducing the raw strided memory would corrupt
/// the surrounding coefficients.
void reduce_sum(OrthoContext& ctx, MatrixView c) {
  if (ctx.comm == nullptr) return;
  const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
  const std::size_t total =
      static_cast<std::size_t>(c.rows) * static_cast<std::size_t>(c.cols);
  if (c.ld == c.rows) {
    ctx.comm->allreduce_sum(std::span<double>(c.data, total));
  } else {
    util::aligned_vector<double> packed(total);
    dense::copy(c, MatrixView{packed.data(), c.rows, c.cols, c.rows});
    ctx.comm->allreduce_sum(packed);
    dense::copy(ConstMatrixView{packed.data(), c.rows, c.cols, c.rows}, c);
  }
}

/// Pair-form (double-double) counterpart; one fused dd all-reduce.
void reduce_sum_dd(OrthoContext& ctx, MatrixView hi, MatrixView lo) {
  if (ctx.comm == nullptr) return;
  const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
  const std::size_t total =
      static_cast<std::size_t>(hi.rows) * static_cast<std::size_t>(hi.cols);
  if (hi.ld == hi.rows && lo.ld == lo.rows) {
    ctx.comm->allreduce_sum_dd(std::span<double>(hi.data, total),
                               std::span<double>(lo.data, total));
  } else {
    util::aligned_vector<double> packed_hi(total), packed_lo(total);
    const MatrixView ph{packed_hi.data(), hi.rows, hi.cols, hi.rows};
    const MatrixView pl{packed_lo.data(), lo.rows, lo.cols, lo.rows};
    dense::copy(hi, ph);
    dense::copy(lo, pl);
    ctx.comm->allreduce_sum_dd(packed_hi, packed_lo);
    dense::copy(ph, hi);
    dense::copy(pl, lo);
  }
}

// `gram.stage1` fault seam: consulted once per fused stage-1 Gram,
// after the local gemm and before the reduce is published (a throw
// here leaves no collective half-open).  A corrupt flips the same bit
// of every rank's local partial at the same (row, col) — the reduced
// Gram is perturbed by a detectable 2^64-scale entry on all ranks
// identically.
void consult_gram_fault(OrthoContext& ctx, MatrixView g) {
  if (ctx.comm == nullptr) return;
  ctx.comm->consult_fault(par::FaultSite::kGramStage1, [g](long ordinal) {
    const long cells = static_cast<long>(g.rows) * static_cast<long>(g.cols);
    if (cells == 0) return;
    const long cell = ordinal % cells;
    par::FaultInjector::flip_bit(g.col(cell / g.rows)[cell % g.rows]);
  });
}

}  // namespace

void block_dot(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
               MatrixView c) {
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    if (ctx.mixed_precision_gram) {
      dense::gemm_tn_dd(a, b, c);
    } else {
      dense::gemm_tn(1.0, a, b, 0.0, c);
    }
  }
  reduce_sum(ctx, c);
}

void block_dot_dd(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
                  MatrixView c_hi, MatrixView c_lo) {
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    dense::gemm_tn_dd(a, b, c_hi, c_lo);
  }
  reduce_sum_dd(ctx, c_hi, c_lo);
}

void fused_gram(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                MatrixView g) {
  assert(g.rows == q.cols + v.cols && g.cols == v.cols);
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    MatrixView top = g.block(0, 0, q.cols, v.cols);
    MatrixView bottom = g.block(q.cols, 0, v.cols, v.cols);
    // Always working precision: the mixed-precision BCGS-PIP path goes
    // through fused_gram_dd, which keeps the pair form alive for the
    // Pythagorean update and Cholesky (rounding here would reintroduce
    // the eps^{-1/2} cliff this layer exists to remove).
    if (q.cols > 0) dense::gemm_tn(1.0, q, v, 0.0, top);
    dense::gemm_tn(1.0, v, v, 0.0, bottom);
  }
  consult_gram_fault(ctx, g);
  reduce_sum(ctx, g);
}

void fused_gram_dd(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                   MatrixView g_hi, MatrixView g_lo) {
  assert(g_hi.rows == q.cols + v.cols && g_hi.cols == v.cols);
  assert(g_lo.rows == g_hi.rows && g_lo.cols == g_hi.cols);
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    if (q.cols > 0) {
      dense::gemm_tn_dd(q, v, g_hi.block(0, 0, q.cols, v.cols),
                        g_lo.block(0, 0, q.cols, v.cols));
    }
    dense::gemm_tn_dd(v, v, g_hi.block(q.cols, 0, v.cols, v.cols),
                      g_lo.block(q.cols, 0, v.cols, v.cols));
  }
  consult_gram_fault(ctx, g_hi);
  reduce_sum_dd(ctx, g_hi, g_lo);
}

void block_update(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView c,
                  MatrixView v) {
  if (q.cols == 0) return;
  const ScopedPhase t(ctx.timers, Phase::kOrthoUpdate);
  dense::gemm_nn(-1.0, q, c, 1.0, v);
}

void block_scale(OrthoContext& ctx, ConstMatrixView r, MatrixView v) {
  const ScopedPhase t(ctx.timers, Phase::kOrthoTrsm);
  dense::trsm_right_upper(r, v);
}

namespace {

/// Shared breakdown-recovery scaffolding for the plain and dd Cholesky
/// paths.  `factor` attempts the factorization in place;
/// `retry_shifted(shift)` must restore the matrix and re-factor with
/// the diagonal shift.  Shifts follow Fukaya et al.: base =
/// 11 (n+1) u ||G||_1 at the path's unit roundoff u, growing 100x per
/// attempt — termination is guaranteed since a shift exceeding
/// ||G||_1 >= |lambda_min(G)| makes G + shift*I positive definite.
void chol_with_policy(OrthoContext& ctx, const std::string& what,
                      const char* indefinite_detail,
                      const char* persist_detail, double gnorm,
                      double unit_roundoff, index_t n,
                      const std::function<bool()>& factor,
                      const std::function<bool(double)>& retry_shifted) {
  const ScopedPhase t(ctx.timers, Phase::kOrthoChol);
  if (!factor()) {
    ctx.cholesky_breakdowns += 1;
    if (ctx.policy == BreakdownPolicy::kThrow) {
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              indefinite_detail);
    }
    // A non-finite Gram (overflowing basis) defeats the shift logic —
    // NaN shifts neither factor nor trip the growth bail-out — so fail
    // loudly instead of retrying forever.
    if (!std::isfinite(gnorm)) {
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              " (Gram matrix not finite)");
    }
    double shift = std::max(
        11.0 * (static_cast<double>(n) + 1.0) * unit_roundoff * gnorm,
        std::numeric_limits<double>::min());
    bool fixed = false;
    while (true) {
      ctx.shift_retries += 1;
      if (retry_shifted(shift)) {
        fixed = true;
        break;
      }
      if (shift > 2.0 * gnorm) break;  // mathematically impossible; bail
      shift *= 100.0;
    }
    if (!fixed) {
      throw CholeskyBreakdown("Cholesky breakdown in " + what +
                              persist_detail);
    }
  }
}

/// Records the diagonal-ratio conditioning estimate of a successful
/// Gram factorization: est = (max|r_ii| / min|r_ii|)^2 <= kappa_2(G).
/// `r` is the upper factor (the hi part suffices for the dd path — the
/// lo correction cannot move the ratio's order of magnitude).
void record_gram_kappa(OrthoContext& ctx, ConstMatrixView r) {
  if (r.rows == 0) return;
  double dmax = 0.0;
  double dmin = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < r.rows; ++i) {
    const double d = std::abs(r(i, i));
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  const double est = (dmin > 0.0 && dmax > 0.0)
                         ? (dmax / dmin) * (dmax / dmin)
                         : std::numeric_limits<double>::infinity();
  ctx.last_gram_kappa = est;
  ctx.gram_kappa_peak = std::max(ctx.gram_kappa_peak, est);
}

/// `gram.chol` fault seam: consulted once per Gram Cholesky, before
/// any factor or shift attempt.  Gram factorizations run on replicated
/// post-reduce data in a collectively-ordered sequence, so the ordinal
/// is identical on every rank at any thread count.  A corrupt forces
/// the factorization to report indefinite — the breakdown policy then
/// shifts or throws exactly as for a natural breakdown; throw and delay
/// act as at every other site.
bool consult_chol_fault(OrthoContext& ctx) {
  bool forced = false;
  if (ctx.comm != nullptr) {
    ctx.comm->consult_fault(par::FaultSite::kGramChol,
                            [&forced](long) { forced = true; });
  }
  return forced;
}

}  // namespace

void chol_factor(OrthoContext& ctx, MatrixView g, const std::string& what) {
  // Keep a pristine copy in case a shifted retry is needed.
  dense::Matrix saved = dense::copy_of(g);
  const bool forced = consult_chol_fault(ctx);
  chol_with_policy(
      ctx, what,
      " (Gram matrix numerically indefinite; condition (1)/(5)/(9) violated)",
      " persists after shifted retries", dense::one_norm(saved.view()),
      std::numeric_limits<double>::epsilon(), g.rows,
      [&] { return !forced && dense::potrf_upper(g).ok(); },
      [&](double shift) {
        dense::copy(saved.view(), g);
        return dense::potrf_upper_shifted(g, shift).ok();
      });
  record_gram_kappa(ctx, g);
}

void chol_factor_dd(OrthoContext& ctx, MatrixView g_hi, MatrixView g_lo,
                    const std::string& what) {
  dense::Matrix saved_hi = dense::copy_of(g_hi);
  dense::Matrix saved_lo = dense::copy_of(g_lo);
  const bool forced = consult_chol_fault(ctx);
  // Shifted retries start at u_dd * ||G||: the Gram entries are exact
  // to ~m * u_dd, so recovery perturbs ~1e16x less than the double
  // path's eps * ||G|| base.
  chol_with_policy(
      ctx, what,
      " (Gram matrix indefinite even at dd precision; kappa(V) beyond ~1e15)",
      " persists after shifted dd retries", dense::one_norm(saved_hi.view()),
      eft::kUnitRoundoff, g_hi.rows,
      [&] { return !forced && dense::potrf_upper_dd(g_hi, g_lo).ok(); },
      [&](double shift) {
        dense::copy(saved_hi.view(), g_hi);
        dense::copy(saved_lo.view(), g_lo);
        return dense::potrf_upper_dd_shifted(g_hi, g_lo, shift).ok();
      });
  record_gram_kappa(ctx, g_hi);
}

double global_norm(OrthoContext& ctx, std::span<const double> x) {
  return std::sqrt(reduced_sumsq(ctx, x));
}

void residual_gram(OrthoContext& ctx, ConstMatrixView r, MatrixView g) {
  assert(g.rows == r.cols && g.cols == r.cols);
  if (r.cols == 1) {
    g(0, 0) = reduced_sumsq(
        ctx, std::span<const double>(r.col(0), static_cast<std::size_t>(r.rows)));
    return;
  }
  block_dot(ctx, r, r, g);
}

void seed_block(OrthoContext& ctx, ConstMatrixView r, MatrixView g,
                MatrixView q) {
  assert(g.rows == r.cols && q.rows == r.rows && q.cols == r.cols);
  if (r.cols == 1) {
    const double gamma = std::sqrt(g(0, 0));
    g(0, 0) = gamma;
    const double inv = 1.0 / gamma;
    const double* rc = r.col(0);
    double* qc = q.col(0);
    for (index_t i = 0; i < r.rows; ++i) qc[i] = rc[i] * inv;
    return;
  }
  chol_factor(ctx, g, "block GMRES seed");
  dense::copy(r, q);
  block_scale(ctx, g, q);
}

}  // namespace tsbo::ortho
