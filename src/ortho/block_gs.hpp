#pragma once
// Inter-block orthogonalization algorithms (paper Section IV).
//
// Each routine orthogonalizes the new panel V (rank-local rows x s)
// against the previously orthonormalized columns Q (rank-local rows x
// q) and internally, writing the coefficients into the caller's R
// blocks:   r_prev (q x s) and r_diag (s x s)  so that, on exit,
//   V_in == Q * r_prev + V_out * r_diag       (V_out orthonormal).
//
// Global synchronizations per call (the paper's accounting):
//   bcgs_project            1
//   bcgs2 (CholQR2 intra)   5   = 1 + 2 + 1 + 1        (Fig. 2b)
//   bcgs2 (HHQR intra)      O(s)
//   bcgs_pip                1                           (Fig. 4a)
//   bcgs_pip2               2                           (Fig. 4b)
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
  kCholQR2,       ///< BLAS-3, 2 reduces — the paper's performance choice
  kHHQR,          ///< BLAS-1/2, O(s) reduces — the stability reference
  kShiftedCholQR3 ///< 3 reduces; unconditionally stable for full-rank V
};

/// Single BCGS projection (paper Fig. 2a): r_prev = Q^T V; V -= Q r_prev.
/// One reduce.  No intra-block factorization.  `overlap` (optional)
/// runs inside the reduce's split-phase window — see OverlapHook.
void bcgs_project(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
                  MatrixView r_prev, const OverlapHook& overlap = nullptr);

/// BCGS2 (paper Fig. 2b): first BCGS + intra-block factorization, then
/// a second BCGS + CholQR, with the exact triangular fix-ups
///   r_prev += T_prev * r_diag,   r_diag := T_diag * r_diag.
/// With q == 0 this reduces to the intra-block factorization alone.
void bcgs2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
           MatrixView r_prev, MatrixView r_diag,
           IntraKind intra = IntraKind::kCholQR2);

/// BCGS-PIP (paper Fig. 4a): single-reduce inter+intra pass via the
/// Pythagorean fused Gram matrix.  With q == 0 this is CholQR.  The
/// fused Gram reduce is issued split-phase; `overlap` (optional) runs
/// while it is in flight, so trailing result-independent panel work
/// hides behind the modeled reduce latency.  Sync count unchanged.
void bcgs_pip(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
              MatrixView r_prev, MatrixView r_diag,
              const OverlapHook& overlap = nullptr);

/// BCGS-PIP2 (paper Fig. 4b): BCGS-PIP twice with triangular fix-ups.
/// Two reduces.  With q == 0 this is CholQR2.  The second pass's
/// scratch is allocated inside the first reduce's overlap window.
void bcgs_pip2(OrthoContext& ctx, ConstMatrixView q, MatrixView v,
               MatrixView r_prev, MatrixView r_diag);

}  // namespace tsbo::ortho
