#include "dense/dd.hpp"

#include "par/config.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsbo::dense {

namespace {
// Same cache tile as blas3.cpp: a 256-row slice of the tall operands
// stays resident while the dd accumulators live in registers.  Divides
// par::kReduceChunk, so reduction chunks are whole numbers of tiles.
constexpr index_t kRowBlock = 256;
static_assert(par::kReduceChunk % static_cast<std::size_t>(kRowBlock) == 0);

constexpr index_t kW = static_cast<index_t>(simd::kLanes);

// Vectorized dd accumulation (the prime SIMD target: two_sum/two_prod
// are branch-free, so every lane runs the exact scalar EFT sequence on
// its strided subsequence).  Accumulation order per [0, nb) range is
// fixed — two vector dd accumulators over stride 2*kW, folded lanewise
// then lane-by-lane in ascending order, scalar tail appended last — so
// the fixed-chunk reduction on top stays bit-identical at any thread
// count.

/// dd dot product of a0 and b over [0, nb).
inline dd dot_dd_range(const double* a0, const double* bj, index_t nb) {
  simd::VecDD va = simd::dd_zero(), vb = simd::dd_zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    simd::dd_add(va, simd::vec_two_prod(simd::load(a0 + r),
                                        simd::load(bj + r)));
    simd::dd_add(vb, simd::vec_two_prod(simd::load(a0 + r + kW),
                                        simd::load(bj + r + kW)));
  }
  for (; r + kW <= nb; r += kW) {
    simd::dd_add(va, simd::vec_two_prod(simd::load(a0 + r),
                                        simd::load(bj + r)));
  }
  simd::dd_add(va, vb);
  dd s = simd::reduce(va);
  for (; r < nb; ++r) dd_add(s, two_prod(a0[r], bj[r]));
  return s;
}

/// Two dd dot products sharing the streamed bj tile (the gemm_tn_dd
/// inner kernel): four vector dd accumulators keep the long
/// renormalization chains independent.
inline void dot2_dd_range(const double* a0, const double* a1,
                          const double* bj, index_t nb, dd& s0, dd& s1) {
  simd::VecDD v0a = simd::dd_zero(), v0b = simd::dd_zero();
  simd::VecDD v1a = simd::dd_zero(), v1b = simd::dd_zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    const simd::Vec b0 = simd::load(bj + r);
    const simd::Vec b1 = simd::load(bj + r + kW);
    simd::dd_add(v0a, simd::vec_two_prod(simd::load(a0 + r), b0));
    simd::dd_add(v0b, simd::vec_two_prod(simd::load(a0 + r + kW), b1));
    simd::dd_add(v1a, simd::vec_two_prod(simd::load(a1 + r), b0));
    simd::dd_add(v1b, simd::vec_two_prod(simd::load(a1 + r + kW), b1));
  }
  for (; r + kW <= nb; r += kW) {
    const simd::Vec b0 = simd::load(bj + r);
    simd::dd_add(v0a, simd::vec_two_prod(simd::load(a0 + r), b0));
    simd::dd_add(v1a, simd::vec_two_prod(simd::load(a1 + r), b0));
  }
  simd::dd_add(v0a, v0b);
  simd::dd_add(v1a, v1b);
  dd t0 = simd::reduce(v0a);
  dd t1 = simd::reduce(v1a);
  for (; r < nb; ++r) {
    dd_add(t0, two_prod(a0[r], bj[r]));
    dd_add(t1, two_prod(a1[r], bj[r]));
  }
  s0 = t0;
  s1 = t1;
}

}  // namespace

void gemm_tn_dd(ConstMatrixView a, ConstMatrixView b, MatrixView c_hi,
                MatrixView c_lo) {
  assert(c_hi.rows == a.cols && c_hi.cols == b.cols && a.rows == b.rows);
  assert(c_lo.rows == c_hi.rows && c_lo.cols == c_hi.cols);
  const index_t m = a.rows, p = a.cols, n = b.cols;
  if (p == 0 || n == 0) return;

  // Self-Gram detection: A^T A is symmetric and the (i, j) and (j, i)
  // dot products would run identical dd sequences (two_prod commutes),
  // so compute only i <= j and mirror — halving the dominant dd cost
  // of mixed-precision CholQR while staying bitwise symmetric.
  const bool symmetric = a.data == b.data && a.cols == b.cols && a.ld == b.ld;

  // Deterministic chunked reduction over the long row dimension: one
  // p x n dd partial block per fixed chunk (bounds depend only on m),
  // combined in ascending chunk order below — the same scheme as
  // gemm_tn, with dd arithmetic in both the tile loop and the combine.
  const std::size_t pn =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(n);
  const std::size_t nchunks =
      par::reduce_chunk_count(static_cast<std::size_t>(m));
  util::aligned_vector<dd> partials(std::max<std::size_t>(nchunks, 1) * pn);
  par::for_reduce_chunks(
      static_cast<std::size_t>(m),
      [&](std::size_t ci, std::size_t rb, std::size_t re) {
        dd* part = partials.data() + ci * pn;  // column-major p x n
        const auto rlo = static_cast<index_t>(rb);
        const auto rhi = static_cast<index_t>(re);
        for (index_t r0 = rlo; r0 < rhi; r0 += kRowBlock) {
          const index_t nb = std::min(kRowBlock, rhi - r0);
          for (index_t j = 0; j < n; ++j) {
            const double* bj = b.col(j) + r0;
            dd* pj = part + static_cast<std::size_t>(j) * p;
            const index_t ilim = symmetric ? j + 1 : p;
            index_t i = 0;
            // Two vectorized dd dot products per pass share the
            // streamed bj tile; the vector accumulators stay in
            // registers across the tile.
            for (; i + 1 < ilim; i += 2) {
              dd s0, s1;
              dot2_dd_range(a.col(i) + r0, a.col(i + 1) + r0, bj, nb, s0, s1);
              dd_add(pj[i], s0);
              dd_add(pj[i + 1], s1);
            }
            for (; i < ilim; ++i) {
              dd_add(pj[i], dot_dd_range(a.col(i) + r0, bj, nb));
            }
          }
        }
      });
  for (index_t j = 0; j < n; ++j) {
    const index_t ilim = symmetric ? j + 1 : p;
    for (index_t i = 0; i < ilim; ++i) {
      dd acc;
      for (std::size_t ci = 0; ci < nchunks; ++ci) {
        dd_add(acc, partials[ci * pn + static_cast<std::size_t>(j) * p +
                             static_cast<std::size_t>(i)]);
      }
      c_hi(i, j) = acc.hi;
      c_lo(i, j) = acc.lo;
    }
  }
  if (symmetric) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j + 1; i < p; ++i) {
        c_hi(i, j) = c_hi(j, i);
        c_lo(i, j) = c_lo(j, i);
      }
    }
  }
}

void gemm_tn_dd(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  assert(c.rows == a.cols && c.cols == b.cols && a.rows == b.rows);
  Matrix lo(c.rows, c.cols);
  Matrix hi(c.rows, c.cols);
  gemm_tn_dd(a, b, hi.view(), lo.view());
  dd_round(hi.view(), lo.view(), c);
}

void dd_round(ConstMatrixView hi, ConstMatrixView lo, MatrixView out) {
  assert(hi.rows == out.rows && hi.cols == out.cols);
  assert(lo.rows == out.rows && lo.cols == out.cols);
  for (index_t j = 0; j < out.cols; ++j) {
    for (index_t i = 0; i < out.rows; ++i) {
      out(i, j) = dd_to_double(dd{hi(i, j), lo(i, j)});
    }
  }
}

CholResult potrf_upper_dd(MatrixView a_hi, MatrixView a_lo) {
  assert(a_hi.rows == a_hi.cols);
  assert(a_lo.rows == a_hi.rows && a_lo.cols == a_hi.cols);
  const index_t n = a_hi.rows;
  const auto at = [&](index_t i, index_t j) -> dd {
    return {a_hi(i, j), a_lo(i, j)};
  };
  const auto put = [&](index_t i, index_t j, const dd& v) {
    a_hi(i, j) = v.hi;
    a_lo(i, j) = v.lo;
  };
  for (index_t j = 0; j < n; ++j) {
    // d = a_jj - sum_k r_kj^2, entirely in dd.
    dd d = at(j, j);
    for (index_t k = 0; k < j; ++k) {
      const dd rkj = at(k, j);
      d = dd_sub(d, dd_mul(rkj, rkj));
    }
    if (!(d.hi > 0.0) || !std::isfinite(d.hi)) {
      return {j + 1};
    }
    const dd rjj = dd_sqrt(d);
    put(j, j, rjj);
    for (index_t c = j + 1; c < n; ++c) {
      dd s = at(j, c);
      for (index_t k = 0; k < j; ++k) {
        s = dd_sub(s, dd_mul(at(k, j), at(k, c)));
      }
      put(j, c, dd_div(s, rjj));
    }
  }
  // Zero the strict lower triangles so the pair output is exactly R.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a_hi(i, j) = 0.0;
      a_lo(i, j) = 0.0;
    }
  }
  return {0};
}

CholResult potrf_upper_dd_shifted(MatrixView a_hi, MatrixView a_lo,
                                  double shift) {
  assert(a_hi.rows == a_hi.cols);
  for (index_t j = 0; j < a_hi.cols; ++j) {
    dd d{a_hi(j, j), a_lo(j, j)};
    dd_add(d, shift);
    a_hi(j, j) = d.hi;
    a_lo(j, j) = d.lo;
  }
  return potrf_upper_dd(a_hi, a_lo);
}

}  // namespace tsbo::dense
