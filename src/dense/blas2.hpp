#pragma once
// BLAS-2 style matrix-vector kernels (used by HHQR and small projected
// operations on the Hessenberg system).

#include "dense/matrix.hpp"

#include <span>

namespace tsbo::dense {

/// y = alpha * A x + beta * y
void gemv(double alpha, ConstMatrixView a, std::span<const double> x,
          double beta, std::span<double> y);

/// y = alpha * A^T x + beta * y
void gemv_t(double alpha, ConstMatrixView a, std::span<const double> x,
            double beta, std::span<double> y);

}  // namespace tsbo::dense
