#pragma once
// BLAS-1 style vector kernels.
//
// These are the building blocks of the *standard* GMRES orthogonalization
// path (the paper's performance baseline): dot products and axpys with
// no data reuse, which is exactly why the block (BLAS-3) algorithms win.
//
// All kernels are threaded through par::ThreadPool for long vectors.
// Reductions use the fixed-chunk deterministic scheme of
// par/config.hpp: results are bit-identical at any thread count.

#include <span>

namespace tsbo::dense {

/// x . y
double dot(std::span<const double> x, std::span<const double> y);

/// sum_i x_i^2 (unscaled; prefer nrm2 when overflow is a concern).
double sumsq(std::span<const double> x);

/// ||x||_2 computed with scaling against overflow/underflow.
double nrm2(std::span<const double> x);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// max_i |x_i|
double amax(std::span<const double> x);

}  // namespace tsbo::dense
