#include "ortho/cgs.hpp"

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace tsbo::ortho {

namespace {

/// c = Q^T v with one reduce ("dot-products" bucket).
void project(OrthoContext& ctx, ConstMatrixView q, std::span<const double> v,
             std::span<double> c) {
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    dense::gemv_t(1.0, q, v, 0.0, c);
  }
  if (ctx.comm) {
    const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
    ctx.comm->allreduce_sum(c);
  }
}

/// v -= Q c ("vector-updates" bucket).
void update(OrthoContext& ctx, ConstMatrixView q, std::span<const double> c,
            std::span<double> v) {
  const ScopedPhase t(ctx.timers, Phase::kOrthoUpdate);
  dense::gemv(-1.0, q, c, 1.0, v);
}

}  // namespace

void cgs2_step(OrthoContext& ctx, ConstMatrixView q, std::span<double> v,
               std::span<double> h) {
  const auto nq = static_cast<std::size_t>(q.cols);
  assert(h.size() == nq + 1);
  std::fill(h.begin(), h.end(), 0.0);

  if (nq > 0) {
    util::aligned_vector<double> c(nq, 0.0);
    project(ctx, q, v, c);
    update(ctx, q, c, v);
    for (std::size_t i = 0; i < nq; ++i) h[i] = c[i];

    // Re-orthogonalization pass.
    project(ctx, q, v, c);
    update(ctx, q, c, v);
    for (std::size_t i = 0; i < nq; ++i) h[i] += c[i];
  }

  const double nrm = global_norm(ctx, v);
  h[nq] = nrm;
  if (nrm > 0.0) {
    const ScopedPhase t(ctx.timers, Phase::kOrthoUpdate);
    dense::scal(1.0 / nrm, v);
  }
}

void mgs_step(OrthoContext& ctx, ConstMatrixView q, std::span<double> v,
              std::span<double> h) {
  const auto nq = static_cast<std::size_t>(q.cols);
  assert(h.size() == nq + 1);
  for (std::size_t k = 0; k < nq; ++k) {
    ConstMatrixView col = q.columns(static_cast<index_t>(k), 1);
    std::span<const double> qk(col.data, static_cast<std::size_t>(col.rows));
    double hk = dense::dot(qk, v);
    if (ctx.comm) {
      const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
      hk = ctx.comm->allreduce_sum_scalar(hk);
    }
    h[k] = hk;
    dense::axpy(-hk, qk, v);
  }
  const double nrm = global_norm(ctx, v);
  h[nq] = nrm;
  if (nrm > 0.0) dense::scal(1.0 / nrm, v);
}

}  // namespace tsbo::ortho
