#include "sparse/spmv.hpp"

#include "par/config.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>

namespace tsbo::sparse {

namespace {

// Pointer-based row kernels shared by every public entry point.  Each
// row's accumulation order is fixed by the CSR layout (vector lanes at
// fixed offsets from the row start — x values gathered through the
// 32-bit column ordinals — then the scalar tail), so any row partition
// across threads reproduces the serial bits exactly.

constexpr offset kW = static_cast<offset>(simd::kLanes);

// Stencil rows (7-27 nnz) are too short to amortize gather latency and
// the horizontal reduce; they keep the plain serial-accumulation loop
// (measured at parity with unrolled variants — the row is index-load
// bound, not FMA-chain bound).  Wide rows (suitesparse-like irregular
// matrices) go through the gather-vectorized loop.  The split is on
// the row's nnz only — a per-build constant — so any row partition
// across threads reproduces the same bits.
constexpr offset kGatherMinRow = 4 * kW;

inline double row_dot(const double* val, const ord* col, offset len,
                      const double* x) {
  if (len >= kGatherMinRow) {
    simd::Vec acc0 = simd::zero(), acc1 = simd::zero();
    offset k = 0;
    for (; k + 2 * kW <= len; k += 2 * kW) {
      acc0 =
          simd::mul_add(simd::load(val + k), simd::gather(x, col + k), acc0);
      acc1 = simd::mul_add(simd::load(val + k + kW),
                           simd::gather(x, col + k + kW), acc1);
    }
    for (; k + kW <= len; k += kW) {
      acc0 =
          simd::mul_add(simd::load(val + k), simd::gather(x, col + k), acc0);
    }
    double s = simd::reduce_add(simd::add(acc0, acc1));
    for (; k < len; ++k) s += val[k] * x[col[k]];
    return s;
  }
  double s = 0.0;
  for (offset k = 0; k < len; ++k) s += val[k] * x[col[k]];
  return s;
}

inline void spmv_range(const CsrMatrix& a, ord begin, ord end,
                       const double* x, double* y) {
  const offset* rp = a.row_ptr.data();
  const ord* col = a.col_idx.data();
  const double* val = a.values.data();
  for (ord i = begin; i < end; ++i) {
    y[i] = row_dot(val + rp[i], col + rp[i], rp[i + 1] - rp[i], x);
  }
}

inline void spmv_range_scaled(double alpha, const CsrMatrix& a, ord begin,
                              ord end, const double* x, double beta,
                              double* y) {
  const offset* rp = a.row_ptr.data();
  const ord* col = a.col_idx.data();
  const double* val = a.values.data();
  for (ord i = begin; i < end; ++i) {
    const double s = row_dot(val + rp[i], col + rp[i], rp[i + 1] - rp[i], x);
    y[i] = alpha * s + beta * y[i];
  }
}

// Widest compile-time column chunk of spmm_rows_mapped.
constexpr ord kSpmmMaxCols = 8;

/// Rows [begin, end) of a W-column chunk: row i of `a` times columns
/// [0, W) of the k-interleaved operand x (entry (j, t) at x[j*k + t]),
/// scattered to y[t*ldy + rows[i]].  Each column accumulates in plain
/// serial nnz order, independent of W and of the other columns.
template <ord W>
inline void spmm_chunk(const offset* rp, const ord* col, const double* val,
                       const ord* rows, std::size_t begin, std::size_t end,
                       const double* x, ord k, double* y, std::size_t ldy) {
  for (std::size_t i = begin; i < end; ++i) {
    double acc[W];
    for (ord t = 0; t < W; ++t) acc[t] = 0.0;
    for (offset kk = rp[i]; kk < rp[i + 1]; ++kk) {
      const double* xrow =
          x + static_cast<std::size_t>(col[kk]) * static_cast<std::size_t>(k);
      const double akk = val[kk];
      for (ord t = 0; t < W; ++t) acc[t] += akk * xrow[t];
    }
    const std::size_t row = static_cast<std::size_t>(rows[i]);
    for (ord t = 0; t < W; ++t) {
      y[static_cast<std::size_t>(t) * ldy + row] = acc[t];
    }
  }
}

}  // namespace

void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y) {
  assert(static_cast<ord>(x.size()) == a.cols);
  assert(static_cast<ord>(y.size()) == a.rows);
  spmv_rows(a, 0, a.rows, x, y);
}

void spmv(double alpha, const CsrMatrix& a, std::span<const double> x,
          double beta, std::span<double> y) {
  assert(static_cast<ord>(x.size()) == a.cols);
  assert(static_cast<ord>(y.size()) == a.rows);
  par::parallel_for_grained(
      static_cast<std::size_t>(a.rows), [&](std::size_t b, std::size_t e) {
        spmv_range_scaled(alpha, a, static_cast<ord>(b), static_cast<ord>(e),
                          x.data(), beta, y.data());
      });
}

void spmv_rows(const CsrMatrix& a, ord begin, ord end,
               std::span<const double> x, std::span<double> y) {
  assert(begin >= 0 && end <= a.rows);
  if (end <= begin) return;
  par::parallel_for_grained(
      static_cast<std::size_t>(end - begin),
      [&](std::size_t b, std::size_t e) {
        spmv_range(a, begin + static_cast<ord>(b), begin + static_cast<ord>(e),
                   x.data(), y.data());
      });
}

void spmv_rows_mapped(const CsrMatrix& a, std::span<const ord> rows,
                      std::span<const double> x, std::span<double> y) {
  assert(rows.size() == static_cast<std::size_t>(a.rows));
  if (rows.empty()) return;
  const offset* rp = a.row_ptr.data();
  const ord* col = a.col_idx.data();
  const double* val = a.values.data();
  par::parallel_for_grained(rows.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      y[static_cast<std::size_t>(rows[i])] =
          row_dot(val + rp[i], col + rp[i], rp[i + 1] - rp[i], x.data());
    }
  });
}

void spmm_rows_mapped(const CsrMatrix& a, std::span<const ord> rows,
                      const double* xk, ord k, double* y, std::size_t ldy) {
  assert(rows.size() == static_cast<std::size_t>(a.rows));
  assert(k >= 1);
  if (rows.empty()) return;
  const offset* rp = a.row_ptr.data();
  const ord* col = a.col_idx.data();
  const double* val = a.values.data();
  // Column chunks of a compile-time width keep the accumulators in
  // registers; each column's per-row sum still runs in ascending nnz
  // order regardless of the chunking.
  par::parallel_for_grained(rows.size(), [&](std::size_t b, std::size_t e) {
    for (ord t0 = 0; t0 < k; t0 += kSpmmMaxCols) {
      const ord w = std::min<ord>(kSpmmMaxCols, k - t0);
      util::with_width<kSpmmMaxCols>(w, [&]<ord W>() {
        spmm_chunk<W>(rp, col, val, rows.data(), b, e, xk + t0, k,
                      y + static_cast<std::size_t>(t0) * ldy, ldy);
      });
    }
  });
}

}  // namespace tsbo::sparse
