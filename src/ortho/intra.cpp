#include "ortho/intra.hpp"

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "util/aligned.hpp"

#include <cassert>
#include <cmath>
#include <span>
#include <stdexcept>

namespace tsbo::ortho {

namespace {

/// r := t * r for small upper-triangular t, r (in place on r).
void triangular_accumulate(ConstMatrixView t, MatrixView r) {
  assert(t.rows == r.rows && t.cols == r.rows && r.rows == r.cols);
  dense::Matrix tmp(r.rows, r.cols);
  dense::gemm_nn(1.0, t, r, 0.0, tmp.view());
  dense::copy(tmp.view(), r);
}

/// Times one of hhqr's collectives into ortho/reduce, pausing the
/// enclosing ortho/hhqr phase for its duration so that no second lands
/// in both buckets (a null pointer times nothing).
class HhqrCollective {
 public:
  explicit HhqrCollective(util::PhaseTimers* timers) : timers_(timers) {
    if (timers_) {
      timers_->stop(Phase::kOrthoHhqr);
      timers_->start(Phase::kOrthoReduce);
    }
  }
  ~HhqrCollective() noexcept {
    if (timers_) {
      timers_->stop(Phase::kOrthoReduce);
      timers_->start(Phase::kOrthoHhqr);
    }
  }
  HhqrCollective(const HhqrCollective&) = delete;
  HhqrCollective& operator=(const HhqrCollective&) = delete;

 private:
  util::PhaseTimers* timers_;
};

}  // namespace

void cholqr(OrthoContext& ctx, MatrixView v, MatrixView r) {
  assert(r.rows == v.cols && r.cols == v.cols);
  if (ctx.mixed_precision_gram) {
    // Mixed-precision variant: the Gram matrix stays in double-double
    // from accumulation through the Cholesky factorization (kappa(G) =
    // kappa(V)^2 can exceed 1/eps long before V is numerically rank
    // deficient — rounding G to double first would make the
    // factorization break down regardless of how accurately G was
    // computed).  Only the factor R is rounded back for the TRSM.
    dense::Matrix g_lo(v.cols, v.cols);
    dense::Matrix g_hi(v.cols, v.cols);
    block_dot_dd(ctx, v, v, g_hi.view(), g_lo.view());
    chol_factor_dd(ctx, g_hi.view(), g_lo.view(), "CholQR");
    dense::dd_round(g_hi.view(), g_lo.view(), r);
    block_scale(ctx, r, v);
    return;
  }
  // Gram matrix with one reduce, redundant Cholesky on every rank
  // (deterministic reduction => identical factors), local TRSM.
  block_dot(ctx, v, v, r);
  chol_factor(ctx, r, "CholQR");
  block_scale(ctx, r, v);
}

void cholqr2(OrthoContext& ctx, MatrixView v, MatrixView r) {
  const int breakdowns_before = ctx.cholesky_breakdowns;
  cholqr(ctx, v, r);
  dense::Matrix t(v.cols, v.cols);
  {
    // A clean first pass leaves kappa(Q1) ~ 1 + eps * kappa(V) = O(1),
    // far below the double cliff, so the re-orthogonalization pass
    // gains no stability from the 5-10x-cost dd Gram — drop to the
    // plain path.  A first pass that needed shifted retries leaves
    // kappa(Q1) unbounded; keep dd for it.
    ScopedGramPrecision guard(
        ctx, ctx.mixed_precision_gram &&
                 ctx.cholesky_breakdowns != breakdowns_before);
    cholqr(ctx, v, t.view());
  }
  triangular_accumulate(t.view(), r);
}

void hhqr(OrthoContext& ctx, MatrixView v, MatrixView r) {
  assert(r.rows == v.cols && r.cols == v.cols);
  const index_t nloc = v.rows;
  const index_t s = v.cols;
  const int rank = ctx.comm ? ctx.comm->rank() : 0;
  const bool owns_pivots = rank == 0;
  // Collective validation: all ranks must agree to throw, otherwise the
  // non-throwing ranks would deadlock in the first reduction (the same
  // reason MPI codes validate before communicating).
  {
    double bad = (owns_pivots && nloc < s) ? 1.0 : 0.0;
    if (ctx.comm) bad = ctx.comm->allreduce_max_scalar(bad);
    if (bad != 0.0) {
      throw std::invalid_argument("hhqr: rank 0 must own at least s rows");
    }
  }

  // Reflector scales; reflector vectors overwrite v below the pivot row.
  util::aligned_vector<double> tau(static_cast<std::size_t>(s), 0.0);

  auto timed_reduce = [&](std::span<double> buf) {
    if (!ctx.comm) return;
    const HhqrCollective t(ctx.timers);
    ctx.comm->allreduce_sum(buf);
  };

  // The panel sweeps below run on the threaded BLAS-1 kernels; their
  // chunked reductions are deterministic, so every rank's local partial
  // is reproducible at any thread count.
  auto tail = [nloc](const double* col, index_t lo) {
    return std::span<const double>(col + lo, static_cast<std::size_t>(nloc - lo));
  };
  auto tail_mut = [nloc](double* col, index_t lo) {
    return std::span<double>(col + lo, static_cast<std::size_t>(nloc - lo));
  };

  // The local sweeps, forming Q and the sign normalization; the
  // reduces and the R broadcast time as ortho/reduce only.
  const ScopedPhase hhqr_phase(ctx.timers, Phase::kOrthoHhqr);
  for (index_t j = 0; j < s; ++j) {
    double* colj = v.col(j);
    // Fused reduce: [ sum of squares below and incl. pivot, pivot value ].
    // Pivot row j lives on rank 0 (block layout, row j global == local).
    const index_t lo = owns_pivots ? j : 0;
    const double nrm2_local = dense::sumsq(tail(colj, lo));
    double msg[2] = {nrm2_local, owns_pivots ? colj[j] : 0.0};
    timed_reduce(std::span<double>(msg, 2));
    const double normx = std::sqrt(msg[0]);
    const double alpha = msg[1];

    if (normx == 0.0) {
      tau[static_cast<std::size_t>(j)] = 0.0;
      r(j, j) = 0.0;
      continue;
    }
    const double beta = alpha >= 0.0 ? -normx : normx;
    const double v0 = alpha - beta;
    tau[static_cast<std::size_t>(j)] = -v0 / beta;
    const double inv_v0 = 1.0 / v0;
    // Scale my part of the reflector; pivot entry becomes implicit 1.
    dense::scal(inv_v0, tail_mut(colj, lo));
    if (owns_pivots) colj[j] = 1.0;

    // w = v^T V(:, j+1:s) as one fused GEMM (single reduce, single
    // stream of the reflector) followed by the rank-1 trailing update.
    const index_t rest = s - j - 1;
    if (rest > 0) {
      const ConstMatrixView vj{colj + lo, nloc - lo, 1, v.ld};
      MatrixView trailing = v.block(lo, j + 1, nloc - lo, rest);
      dense::Matrix w(1, rest);
      dense::gemm_tn(1.0, vj, trailing, 0.0, w.view());
      timed_reduce(w.data());
      dense::gemm_nn(-tau[static_cast<std::size_t>(j)], vj, w.view(), 1.0,
                     trailing);
    }
    // R(j, j) = beta; R(j, c) for c > j now sits in row j on rank 0 but
    // will be collected after the loop (rows 0..s-1 of v on rank 0).
    r(j, j) = beta;
  }

  // Collect R: rows 0..s-1 of the reduced v live on rank 0; broadcast so
  // every rank holds the replicated factor (one more synchronization).
  {
    util::aligned_vector<double> rbuf(static_cast<std::size_t>(s) * s, 0.0);
    if (owns_pivots) {
      for (index_t jj = 0; jj < s; ++jj) {
        for (index_t ii = 0; ii < jj; ++ii) {
          rbuf[static_cast<std::size_t>(jj) * s + ii] = v(ii, jj);
        }
        rbuf[static_cast<std::size_t>(jj) * s + jj] = r(jj, jj);
      }
    }
    if (ctx.comm) {
      const HhqrCollective t(ctx.timers);
      ctx.comm->broadcast(rbuf, 0);
    }
    for (index_t jj = 0; jj < s; ++jj) {
      for (index_t ii = 0; ii <= jj; ++ii) {
        r(ii, jj) = rbuf[static_cast<std::size_t>(jj) * s + ii];
      }
      for (index_t ii = jj + 1; ii < s; ++ii) r(ii, jj) = 0.0;
    }
  }

  // Form the explicit Q in place: apply reflectors in reverse order to
  // the identity columns.  Each application costs one reduce.
  dense::Matrix q(nloc, s);
  if (owns_pivots) {
    for (index_t j = 0; j < s; ++j) q(j, j) = 1.0;
  }
  for (index_t j = s - 1; j >= 0; --j) {
    const double tj = tau[static_cast<std::size_t>(j)];
    if (tj == 0.0) continue;
    const double* colj = v.col(j);
    const index_t lo = owns_pivots ? j : 0;
    const ConstMatrixView vj{colj + lo, nloc - lo, 1, v.ld};
    MatrixView qtail = q.view().block(lo, 0, nloc - lo, s);
    dense::Matrix w(1, s);
    dense::gemm_tn(1.0, vj, qtail, 0.0, w.view());
    timed_reduce(w.data());
    dense::gemm_nn(-tj, vj, w.view(), 1.0, qtail);
  }
  dense::copy(q.view(), v);

  // Sign-normalize: diag(R) >= 0 (BlkOrth convention of Fig. 1).
  for (index_t j = 0; j < s; ++j) {
    if (r(j, j) < 0.0) {
      for (index_t c = j; c < s; ++c) r(j, c) = -r(j, c);
      double* colj = v.col(j);
      for (index_t i = 0; i < nloc; ++i) colj[i] = -colj[i];
    }
  }
}

}  // namespace tsbo::ortho
