#pragma once
// BLAS-3 style blocked kernels.
//
// These carry the paper's performance argument: block orthogonalization
// (BCGS/CholQR/BCGS-PIP) spends its local flops in GEMM with a block
// size of s+1 (one-stage) or bs+1 (two-stage second stage), and larger
// block sizes mean more reuse of the streamed tall operand per pass.
// The kernels below are row-blocked so that the panel tile stays in
// cache while the tall matrix streams through once, and threaded over
// row tiles via par::ThreadPool.  Reductions (gemm_tn, frobenius_norm)
// follow the fixed-chunk deterministic scheme of par/config.hpp, so
// results are bit-identical at any thread count.
//
// gemm_tn, gemm_nn and trsm_right_upper run register-blocked
// microkernels whose tile shapes are per-ISA compile-time constants.
// The blocking never changes an element's arithmetic, which is fixed
// as follows (kW = simd::kLanes):
//   gemm_tn  per 256-row tile, each output (i, j) has two vector
//            accumulators that alternate over 2*kW-row steps; a single
//            remaining kW step goes into the first; they fold as
//            reduce_add(add(va, vb)), then a scalar tail t += a*b.  The
//            tile's sum is added to the chunk partial once, tiles in
//            ascending order; 4096-row chunk partials are added to C as
//            C += alpha * partial in ascending chunk order, after the
//            beta prologue.
//   gemm_nn  after the beta prologue, each element is one FMA chain in
//            ascending l with the coefficient alpha * b(l, j).
//   trsm     each element is an FMA chain with -u(l, j) in ascending l,
//            skipping every (l, j) with u(l, j) == 0.0, ended by a
//            multiply by 1.0 / u(j, j).
//   gram_tn  every computed element has gemm_tn's arithmetic above
//            (alpha = 1, beta = 0): the Q^T V rows equal gemm_tn(Q, V)
//            and the V^T V block's upper triangle equals gemm_tn(V, V)
//            bit for bit.  Its strict lower triangle is not summed but
//            copied from the upper one, which changes no bit because
//            gemm_tn(V, V) is bitwise symmetric (each (i, j) and (j, i)
//            sum the same products in the same order).
// gemm_tn and gram_tn run their chunks inline below 1 M multiply-adds
// (m * p * n), and on the calling rank's lanes from there up; a
// single-lane rank or a nested caller runs the same chunk schedule
// inline.  Either way the bits are the same.

#include "dense/matrix.hpp"

namespace tsbo::dense {

/// C = alpha * A * B + beta * C   (A: m x k, B: k x n, C: m x n)
void gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// C = alpha * A^T * B + beta * C   (A: m x k, B: m x n, C: k x n)
///
/// This is the "GEMM for dot-products" of the paper's Fig. 2: the block
/// inner product Q^T V, and the fused Gram matrix [Q, V]^T V of
/// BCGS-PIP.  A and B stream; C is tiny and accumulates in cache.
void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// G = [Q V]^T V   (Q: m x q, V: m x s, G: (q + s) x s), overwriting G.
///
/// The fused BCGS-PIP Gram in one sweep over the rows: each 256-row
/// tile of Q and V is read once for every output, and in the V^T V
/// block only the register tiles on or above the diagonal are summed;
/// the strict lower triangle is mirrored after the chunk combine.  Q
/// and V are separate column sources, so they need not be adjacent in
/// memory (q = 0 is allowed).  Bitwise equal to gemm_tn(1, Q, V, 0, .)
/// stacked over gemm_tn(1, V, V, 0, .).
void gram_tn(ConstMatrixView q, ConstMatrixView v, MatrixView g);

/// C = alpha * A * B^T + beta * C   (A: m x k, B: n x k, C: m x n)
void gemm_nt(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// B := B * U^{-1}  with U upper triangular (the "TRSM for normalize"
/// of CholQR, paper Fig. 3a).  B is n x s tall-skinny.
void trsm_right_upper(ConstMatrixView u, MatrixView b);

/// Frobenius norm of a view.
double frobenius_norm(ConstMatrixView a);

}  // namespace tsbo::dense
