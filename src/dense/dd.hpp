#pragma once
// Double-double (compensated) matrix kernels for mixed-precision
// CholQR (paper related work: Yamazaki et al. [26], [27]).
//
// CholQR computes chol(V^T V); since kappa(V^T V) = kappa(V)^2, plain
// double arithmetic breaks down once kappa(V) exceeds ~eps^{-1/2}
// ~ 6.7e7 — *even if the Gram matrix were computed exactly*, because
// the factorization itself sees an indefinite matrix after rounding.
// The mixed-precision remedy therefore keeps the Gram matrix in
// software double-double (u_dd = 2^-104, util/eft.hpp) from the
// accumulation **through the Cholesky factorization**, and only rounds
// the triangular factor R back to double for the TRSM.  That moves the
// breakdown cliff from kappa(V) ~ eps^{-1/2} ~ 6.7e7 out to
// kappa(V) ~ u_dd^{-1/2} ~ 1e15, i.e. CholQR2 with a dd Gram delivers
// O(eps) orthogonality for any numerically full-rank (in double) V.
//
// Precision contract of the pair-output kernels: for double inputs the
// products are exact (two_prod) and the accumulation is normalized
// double-double, so an m-term Gram entry carries relative error
// <= ~m * u_dd ~ m * 4.9e-32 — indistinguishable from exact for every
// double-representable input of practical size.
//
// Determinism contract: gemm_tn_dd follows the kernel layer's
// fixed-chunk reduction scheme (par/config.hpp) — chunk boundaries
// depend only on the row count and per-chunk dd partials combine in
// ascending chunk order, so serial and threaded runs are bit-identical
// at any thread count.

#include "dense/cholesky.hpp"
#include "dense/matrix.hpp"
#include "util/eft.hpp"

namespace tsbo::dense {

// Scalar double-double arithmetic, re-exported from util/eft.hpp (the
// par layer shares the same definitions for its dd all-reduce).
using eft::dd;
using eft::quick_two_sum;
using eft::two_prod;
using eft::two_sum;
using eft::dd_add;
using eft::dd_div;
using eft::dd_mul;
using eft::dd_neg;
using eft::dd_sqrt;
using eft::dd_sub;

/// Rounds back to working precision.
inline double dd_to_double(const dd& x) { return eft::to_double(x); }

/// Block inner product C = A^T B with double-double accumulation,
/// rounded to double on output (A^T A, passed as the same view twice,
/// is bitwise symmetric).  Use the pair output + potrf_upper_dd when
/// the factorization must also run in dd.
void gemm_tn_dd(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// Pair-output block inner product: C = A^T B accumulated and returned
/// as the unevaluated normalized sum c_hi + c_lo.  This is the kernel
/// of mixed-precision CholQR — thread-parallel with the deterministic
/// fixed-chunk reduction (bit-identical at any thread count).
void gemm_tn_dd(ConstMatrixView a, ConstMatrixView b, MatrixView c_hi,
                MatrixView c_lo);

/// Elementwise rounding out = hi + lo of a pair-form matrix.
void dd_round(ConstMatrixView hi, ConstMatrixView lo, MatrixView out);

/// In-place upper Cholesky of the pair-form matrix A = a_hi + a_lo,
/// entirely in double-double: A = R^T R with R returned in pair form in
/// the upper triangles (strict lower triangles zeroed).  Succeeds for
/// kappa(A) up to ~u_dd^{-1} ~ 2e31, i.e. Gram matrices of V with
/// kappa(V) up to ~1e15.  Returns the 1-based index of the first
/// non-positive pivot on breakdown (LAPACK info convention).
CholResult potrf_upper_dd(MatrixView a_hi, MatrixView a_lo);

/// Shifted variant: factors (a_hi + a_lo) + shift * I.  The shift is
/// applied in dd, so it can be sized to u_dd * ||A|| rather than
/// eps * ||A|| — shifted retries perturb ~1e16x less than in double.
CholResult potrf_upper_dd_shifted(MatrixView a_hi, MatrixView a_lo,
                                  double shift);

}  // namespace tsbo::dense
