#pragma once
// Intra-block orthogonalization kernels (paper Section IV, Fig. 3).
//
// All routines replace V (rank-local rows x s) by its orthonormal Q in
// place and write the s x s upper-triangular factor into `r` so that
// Q r == V (up to rounding).  Synchronization counts, the paper's
// central accounting:
//   CholQR            1 reduce     (Gram + redundant Cholesky + TRSM)
//   CholQR2           2 reduces
//   HHQR              O(s) reduces (column-wise distributed Householder)
//
// Precision / conditioning contracts (eps ~ 1.1e-16, u_dd = 2^-104):
//   CholQR    orthogonality ~ kappa(V)^2 * eps; Cholesky breaks down
//             past kappa(V) ~ eps^{-1/2} ~ 6.7e7 (paper condition (1))
//   CholQR2   O(eps) orthogonality for kappa(V) < eps^{-1/2}
//   CholQR/CholQR2 with ctx.mixed_precision_gram: the Gram matrix is
//             accumulated AND factorized in double-double, extending
//             the valid range to kappa(V) up to ~u_dd^{-1/2} ~ 1e15
//             at unchanged synchronization count
//   HHQR      O(eps) for any numerically full-rank V
// Breakdowns surface per ctx.policy (throw vs shifted retry); see
// multivector.hpp.

#include "ortho/multivector.hpp"

namespace tsbo::ortho {

/// Cholesky QR (paper Fig. 3a).  One global reduce.
void cholqr(OrthoContext& ctx, MatrixView v, MatrixView r);

/// Cholesky QR twice (paper Fig. 3b).  Two global reduces; the factor
/// written to `r` is the product T * R of both passes.
void cholqr2(OrthoContext& ctx, MatrixView v, MatrixView r);

/// Distributed Householder QR: column-by-column reflectors spanning all
/// ranks, 2 reduces per column plus 1 broadcast-equivalent for R and
/// one reduce per column to form the explicit Q — the BLAS-1/2,
/// O(s)-synchronization behaviour the paper contrasts CholQR against.
/// Requires rank 0 to own at least s rows (1-D block layout, n >> s).
/// Its local work times into ortho/hhqr, its collectives into
/// ortho/reduce only.
void hhqr(OrthoContext& ctx, MatrixView v, MatrixView r);

}  // namespace tsbo::ortho
