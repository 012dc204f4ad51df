#include "dense/blas2.hpp"

#include "par/config.hpp"

#include <cassert>
#include <cstddef>

namespace tsbo::dense {

void gemv(double alpha, ConstMatrixView a, std::span<const double> x,
          double beta, std::span<double> y) {
  assert(static_cast<index_t>(x.size()) == a.cols);
  assert(static_cast<index_t>(y.size()) == a.rows);
  // Threaded over disjoint row ranges; the column sweep inside each
  // range keeps unit stride, and the per-element accumulation order
  // over j is fixed, so any row partition is exact.
  par::parallel_for_grained(y.size(), [&](std::size_t b, std::size_t e) {
    if (beta != 1.0) {
      for (std::size_t i = b; i < e; ++i) y[i] *= beta;
    }
    for (index_t j = 0; j < a.cols; ++j) {
      const double ax = alpha * x[static_cast<std::size_t>(j)];
      const double* col = a.col(j);
      for (std::size_t i = b; i < e; ++i) y[i] += ax * col[i];
    }
  });
}

void gemv_t(double alpha, ConstMatrixView a, std::span<const double> x,
            double beta, std::span<double> y) {
  assert(static_cast<index_t>(x.size()) == a.rows);
  assert(static_cast<index_t>(y.size()) == a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    const double* col = a.col(j);
    double s = 0.0;
    for (index_t i = 0; i < a.rows; ++i) s += col[i] * x[i];
    y[j] = alpha * s + beta * y[j];
  }
}

void trsv_upper(ConstMatrixView u, std::span<double> x) {
  assert(u.rows == u.cols);
  assert(static_cast<index_t>(x.size()) == u.rows);
  for (index_t j = u.cols - 1; j >= 0; --j) {
    x[j] /= u(j, j);
    const double xj = x[j];
    const double* col = u.col(j);
    for (index_t i = 0; i < j; ++i) x[i] -= xj * col[i];
  }
}

void trsv_lower(ConstMatrixView l, std::span<double> x) {
  assert(l.rows == l.cols);
  assert(static_cast<index_t>(x.size()) == l.rows);
  for (index_t j = 0; j < l.cols; ++j) {
    x[j] /= l(j, j);
    const double xj = x[j];
    const double* col = l.col(j);
    for (index_t i = j + 1; i < l.rows; ++i) x[i] -= xj * col[i];
  }
}

}  // namespace tsbo::dense
