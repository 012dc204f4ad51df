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

// Widest compile-time column chunk of spmm_rows_mapped.
constexpr std::size_t kSpmmMaxCols = 8;

}  // namespace

void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y) {
  assert(static_cast<ord>(x.size()) == a.cols);
  assert(static_cast<ord>(y.size()) == a.rows);
  spmv_rows(a, 0, a.rows, x, y);
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
  // Column chunks of a compile-time width keep the accumulators in one
  // register group (for_each_row_product); each column's per-row sum
  // still runs in ascending nnz order regardless of the chunking.
  par::parallel_for_grained(rows.size(), [&](std::size_t b, std::size_t e) {
    const auto ncols = static_cast<std::size_t>(k);
    for (std::size_t t0 = 0; t0 < ncols; t0 += kSpmmMaxCols) {
      double* const yc = y + t0 * ldy;
      util::with_width<kSpmmMaxCols>(
          std::min(kSpmmMaxCols, ncols - t0), [&]<std::size_t W>() {
            for_each_row_product<W>(
                a, b, e, xk + t0, ncols,
                [&](std::size_t i, const simd::VecN<W>& acc) {
                  double out[W] = {};
                  simd::store_n<W>(out, acc);
                  const auto row = static_cast<std::size_t>(rows[i]);
                  for (std::size_t t = 0; t < W; ++t) yc[t * ldy + row] = out[t];
                });
          });
    }
  });
}

}  // namespace tsbo::sparse
