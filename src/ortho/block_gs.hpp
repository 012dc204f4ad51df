#pragma once
// Inter-block orthogonalization algorithms (paper Section IV).
//
// Each routine orthogonalizes the new panel V (rank-local rows x s)
// against the previously orthonormalized columns Q (rank-local rows x
// q) and internally, writing the coefficients into the caller's R
// blocks:   r_prev (q x s) and r_diag (s x s)  so that, on exit,
//   V_in == Q * r_prev + V_out * r_diag       (V_out orthonormal).
//
// Global synchronizations per call: see the scheme table in
// docs/algorithms.md.
//
// Conditioning contracts: the Pythagorean variants factor
// S = V^T V - (Q^T V)^T (Q^T V), which squares the conditioning like
// CholQR — valid while kappa([Q, V]) < eps^{-1/2} ~ 6.7e7 (paper
// condition (5)).  With ctx.mixed_precision_gram the fused Gram, the
// Pythagorean subtraction, and the Cholesky all run in double-double
// (only R is rounded back for the update/TRSM), extending validity to
// kappa([Q, V]) up to ~u_dd^{-1/2} ~ 1e15 at the same sync counts.
// bcgs_pip2 / bcgs2 then deliver O(eps) orthogonality; single-pass
// bcgs_pip leaves O(kappa^2 eps) (or O(kappa eps_dd)) residual
// orthogonality and is meant as a stage-1 pre-processing step.

#include "ortho/multivector.hpp"

namespace tsbo::ortho {

/// Intra-block algorithm used for the first factorization inside BCGS2.
enum class IntraKind {
  kCholQR2,  ///< BLAS-3, 2 reduces — the paper's performance choice
  kHHQR,     ///< BLAS-1/2, O(s) reduces — the stability reference
};

/// Single BCGS projection (paper Fig. 2a): r_prev = Q^T V; V -= Q r_prev.
/// One reduce.  No intra-block factorization.
void bcgs_project(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
                  MatrixView r_prev);

/// BCGS2 (paper Fig. 2b): first BCGS + intra-block factorization, then
/// a second BCGS + CholQR, with the exact triangular fix-ups
///   r_prev += T_prev * r_diag,   r_diag := T_diag * r_diag.
/// With q == 0 this reduces to the intra-block factorization alone.
void bcgs2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag,
           IntraKind intra = IntraKind::kCholQR2);

/// BCGS-PIP (paper Fig. 4a): single-reduce inter+intra pass via the
/// Pythagorean fused Gram matrix.  With q == 0 this is CholQR.
void bcgs_pip(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
              MatrixView r_prev, MatrixView r_diag);

/// BCGS-PIP's coefficients alone (Fig. 4a lines 1-2): the fused Gram,
/// its reduce and the Cholesky fill r_prev and r_diag, and V is left
/// as it was.  bcgs_pip is this call followed by the update and the
/// TRSM; the two-stage manager calls it alone for a flush whose basis
/// columns are read only through the GMRES correction Q y.
void bcgs_pip_factor(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                     MatrixView r_prev, MatrixView r_diag);

/// BCGS-PIP2 (paper Fig. 4b): BCGS-PIP twice with triangular fix-ups.
/// Two reduces.  With q == 0 this is CholQR2.  The `bcgs_pip2` solver
/// scheme runs the same passes through make_two_stage_manager(1)
/// (manager.hpp); this free kernel is the one bench_fig07 times.
void bcgs_pip2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
               MatrixView r_prev, MatrixView r_diag);

}  // namespace tsbo::ortho
