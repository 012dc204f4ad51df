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

}  // namespace tsbo::dense
