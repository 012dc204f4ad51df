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

/// Solves U x = b in place (U upper triangular, non-unit diagonal).
void trsv_upper(ConstMatrixView u, std::span<double> x);

/// Solves L x = b in place (L lower triangular, non-unit diagonal).
void trsv_lower(ConstMatrixView l, std::span<double> x);

}  // namespace tsbo::dense
