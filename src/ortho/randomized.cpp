#include "ortho/randomized.hpp"

#include "dense/blas3.hpp"
#include "dense/householder.hpp"
#include "ortho/intra.hpp"
#include "sparse/generators.hpp"  // hash01

#include <cassert>
#include <cmath>
#include <span>

namespace tsbo::ortho {

void apply_sketch(dense::ConstMatrixView v, index_t row_begin, index_t k,
                  const SketchConfig& cfg, dense::MatrixView s_out) {
  assert(s_out.rows == k && s_out.cols == v.cols);
  const double scale = 1.0 / std::sqrt(static_cast<double>(cfg.nnz_per_coord));
  for (index_t i = 0; i < v.rows; ++i) {
    const auto gid = static_cast<std::uint64_t>(row_begin + i);
    for (int t = 0; t < cfg.nnz_per_coord; ++t) {
      // Two independent hashes: target sketch row and sign.
      const double h1 =
          sparse::hash01(gid * 64 + static_cast<std::uint64_t>(t), cfg.seed);
      const double h2 = sparse::hash01(
          gid * 64 + static_cast<std::uint64_t>(t) + 32, cfg.seed ^ 0xabcdef);
      const auto row = static_cast<index_t>(h1 * k);
      const double sign = h2 < 0.5 ? -scale : scale;
      for (index_t j = 0; j < v.cols; ++j) {
        s_out(row, j) += sign * v(i, j);
      }
    }
  }
}

void randomized_cholqr(OrthoContext& ctx, dense::MatrixView v,
                       dense::MatrixView r, index_t row_begin,
                       const SketchConfig& cfg) {
  assert(r.rows == v.cols && r.cols == v.cols);
  const index_t s = v.cols;
  const index_t k = cfg.rows_per_col * s;

  // Sketch locally, reduce globally (one small all-reduce).
  dense::Matrix sketch(k, s);
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoDot);
    apply_sketch(v, row_begin, k, cfg, sketch.view());
  }
  if (ctx.comm) {
    const ScopedPhase t(ctx.timers, Phase::kOrthoReduce);
    ctx.comm->allreduce_sum(
        std::span<double>(sketch.data().data(), sketch.data().size()));
  }

  // Tiny Householder QR of the sketch (redundant on every rank); the
  // resulting triangular factor preconditions V.
  dense::Matrix r_s;
  {
    const ScopedPhase t(ctx.timers, Phase::kOrthoChol);
    r_s = dense::extract_r(dense::geqrf(sketch.view()));
    // Guard against an (improbable) rank-deficient sketch.
    for (index_t j = 0; j < s; ++j) {
      if (r_s(j, j) == 0.0) r_s(j, j) = 1.0;
    }
  }
  block_scale(ctx, r_s.view(), v);

  // One CholQR finishes the job: V R_s^{-1} is O(1)-conditioned.
  cholqr(ctx, v, r);

  // r := r * r_s (combined factor).
  const ScopedPhase t(ctx.timers, Phase::kOrthoChol);
  dense::Matrix combined(s, s);
  dense::gemm_nn(1.0, r, r_s.view(), 0.0, combined.view());
  dense::copy(combined.view(), r);
}

}  // namespace tsbo::ortho
