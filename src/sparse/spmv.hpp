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

#include <span>

namespace tsbo::sparse {

/// y = A x
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y);

/// y = alpha * A x + beta * y
void spmv(double alpha, const CsrMatrix& a, std::span<const double> x,
          double beta, std::span<double> y);

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
/// Each column's per-row accumulation runs in plain serial order (no
/// SIMD gather), independent of the other columns; the row partition
/// across threads cannot change the bits.
void spmm_rows_mapped(const CsrMatrix& a, std::span<const ord> rows,
                      const double* xk, ord k, double* y, std::size_t ldy);

}  // namespace tsbo::sparse
