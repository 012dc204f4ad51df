#pragma once
// Sparse matrix-vector products.
//
// All entry points share one pointer-based row kernel and are threaded
// over disjoint row ranges via par::ThreadPool; per-row accumulation
// order is fixed by the CSR layout, so results are bit-identical at any
// thread count.  On an SPMD rank thread they split across the rank's
// private lanes (see par/spmd.hpp); other concurrent callers degrade
// automatically.

#include "sparse/csr.hpp"
#include "util/simd.hpp"

#include <cstddef>
#include <span>

namespace tsbo::sparse {

/// y = A x
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y);

/// Rows [begin, end) only: y[begin..end) = A(begin..end, :) x.
/// Building block for threaded and rank-local products.
void spmv_rows(const CsrMatrix& a, ord begin, ord end,
               std::span<const double> x, std::span<double> y);

/// Row-mapped product for split row sets: row i of `a` is scattered to
/// y[rows[i]].  Same per-row kernel and accumulation order as
/// spmv_rows, so a partition of a matrix into row-subset blocks (e.g.
/// DistCsr's interior/boundary split) reproduces the unsplit product
/// bit for bit at any thread count.
void spmv_rows_mapped(const CsrMatrix& a, std::span<const ord> rows,
                      std::span<const double> x, std::span<double> y);

/// Multi-column row-mapped product: row i of `a` is scattered to
/// y[t*ldy + rows[i]] for each of the k right-hand columns.  The input
/// is k-interleaved — entry (j, t) of the logical n x k operand lives
/// at xk[j*k + t] — so one pass over the matrix streams all k columns.
/// Each column's per-row accumulation runs in ascending nnz order (one
/// SIMD lane per column, no gather), independent of the other columns;
/// the row partition across threads cannot change the bits.
void spmm_rows_mapped(const CsrMatrix& a, std::span<const ord> rows,
                      const double* xk, ord k, double* y, std::size_t ldy);

/// The block-path row kernel: for each row i in [begin, end), calls
/// f(i, acc) with acc = A(i, :) X as one simd::VecN<W>, where row j of
/// the W-column operand X is the W contiguous doubles at x[j*ldx].
/// Per nonzero, a_ij is broadcast against X's row in one vector FMA
/// (simd::mul_add_n), so lane t is column t's own chain in ascending
/// nnz order and rounds as the scalar `acc += a * x` loop of the same
/// build (the compiler fuses both or neither); at W = 1 and on the
/// scalar fallback VecN is that scalar loop.  Rows go in pairs, two
/// independent chains in flight, which reorders no chain.
template <std::size_t W, typename F>
inline void for_each_row_product(const CsrMatrix& a, std::size_t begin,
                                 std::size_t end, const double* x,
                                 std::size_t ldx, const F& f) {
  const offset* rp = a.row_ptr.data();
  const ord* col = a.col_idx.data();
  const double* val = a.values.data();
  const auto step = [&](simd::VecN<W>& acc, offset k) {
    const double* xrow = x + static_cast<std::size_t>(col[k]) * ldx;
    acc = simd::mul_add_n<W>(val[k], simd::load_n<W>(xrow), acc);
  };
  std::size_t i = begin;
  for (; i + 1 < end; i += 2) {
    simd::VecN<W> acc0 = simd::zero_n<W>(), acc1 = simd::zero_n<W>();
    offset k0 = rp[i], k1 = rp[i + 1];
    const offset e0 = rp[i + 1], e1 = rp[i + 2];
    for (; k0 < e0 && k1 < e1; ++k0, ++k1) {
      step(acc0, k0);
      step(acc1, k1);
    }
    for (; k0 < e0; ++k0) step(acc0, k0);
    for (; k1 < e1; ++k1) step(acc1, k1);
    f(i, acc0);
    f(i + 1, acc1);
  }
  if (i < end) {
    simd::VecN<W> acc = simd::zero_n<W>();
    for (offset k = rp[i], e = rp[i + 1]; k < e; ++k) step(acc, k);
    f(i, acc);
  }
}

}  // namespace tsbo::sparse
