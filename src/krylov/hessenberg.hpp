#pragma once
// Hessenberg assembly for s-step GMRES (paper Fig. 1 line 14).
//
// The solver maintains, in the final orthonormal basis Q:
//   R(:, k) — coefficients of the raw Krylov column v_k,
//   L(:, k) — coefficients of x_k, the column MPK actually applied A to
//             (unit vector for a final column; a stage-2 transform
//             column for a two-stage pre-processed column; R(:, k) for
//             a raw interior column).
// From the basis recurrence  A x_k = gamma_k v_{k+1} + theta_k x_k +
// sigma_k v_{k-1}  it follows that  H L = Rhat  with
//   Rhat(:, k) = gamma_k R(:, k+1) + theta_k L(:, k) + sigma_k rep(v_{k-1}),
// where rep(v_{k-1}) is L(:, k-1) if column k-1 was a panel start
// (its raw form was overwritten) and R(:, k-1) otherwise.  Since L is
// upper triangular with nonzero diagonal, H columns are recovered
// progressively left to right — matching the solver's per-(big-)panel
// convergence checks.

#include "dense/matrix.hpp"
#include "krylov/basis.hpp"

namespace tsbo::krylov {

/// Assembles H columns [c0, c1) into h ((m+1)*b x m*b storage), given
/// that columns [0, c0) were already assembled in previous calls.  `s`
/// is the panel size in blocks (identifies panel-start blocks j with
/// j % s == 0).  With block width b (block GMRES over b right-hand
/// sides) flat basis column c belongs to block c / b, the recurrence
/// steps are counted in BLOCKS (basis.step(c / b)), and H is block
/// Hessenberg with lower bandwidth b —
///   Rhat(:, c) = gamma R(:, c+b) + theta L(:, c) + sigma rep(c-b),
/// nonzero in rows 0..c+b, where rep is L(:, c-b) when block c/b - 1
/// was a panel-start block and R(:, c-b) otherwise.
void assemble_hessenberg(dense::ConstMatrixView r, dense::ConstMatrixView l,
                         const KrylovBasis& basis, index_t s, index_t c0,
                         index_t c1, dense::MatrixView h, index_t b = 1);

}  // namespace tsbo::krylov
