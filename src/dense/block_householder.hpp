#pragma once
// Householder-on-H least squares for block GMRES.
//
// Block GMRES with block width b produces a band Hessenberg matrix H
// (lower bandwidth b) and minimizes ||E1 S0 - H Y||_F columnwise, where
// S0 is the b x b R-factor of the seed residual block (phist's
// bgmres.m/bfgmres.m recurrences).  Givens rotations would need b
// rotations per column; the standard block technique instead applies
// ONE Householder reflector per column, spanning the b+1 rows
// [k, k+b], to annihilate the b subdiagonal entries at once.  The
// transformed right-hand side then carries every RHS column's residual
// norm for free: after k columns, RHS column t's minimal residual is
// the 2-norm of its rows [k, k+b) — the block generalization of the
// |g_{k+1}| readout of the scalar Givens solver (dense/givens.hpp).
//
// At b == 1 the class runs that Givens solver itself, so a width-1
// block solve carries the single-RHS GMRES bits.

#include "dense/givens.hpp"
#include "dense/matrix.hpp"

#include <optional>
#include <span>
#include <vector>

namespace tsbo::dense {

/// Progressive block least-squares solver for band Hessenberg systems.
/// Columns arrive one flat column at a time (s*b per panel in block
/// s-step GMRES); append_column() applies all previous reflectors,
/// generates one new length-(b+1) reflector, and updates the b-column
/// rotated RHS (at b == 1: one Givens rotation, see the header note).
class BlockHessenbergLeastSquares {
 public:
  /// max_cols: flat restart length m*b; s0: b x b seed R-factor (the
  /// CholQR factor of the initial residual block) forming the
  /// right-hand side E1 S0.
  BlockHessenbergLeastSquares(index_t max_cols, index_t b,
                              ConstMatrixView s0);

  /// Appends flat column k (0-based, k == cols()): h holds the k+b+1
  /// leading entries H(0..k+b, k).
  void append_column(std::span<const double> h);

  /// Minimal residual norm of RHS column t after cols() columns:
  /// ||G(cols()..cols()+b-1, t)||_2.
  [[nodiscard]] double residual_norm(index_t t) const;

  [[nodiscard]] index_t cols() const { return ncols_; }
  [[nodiscard]] index_t block_width() const { return b_; }

  /// Y (cols() x b): column t minimizes ||E1 s0(:, t) - H y_t||, the
  /// coefficients of the GMRES correction Q(:, 0:cols()) Y.  Givens
  /// back-substitution at b == 1, Householder at b > 1.
  [[nodiscard]] Matrix coefficients() const;

 private:
  std::optional<HessenbergLeastSquares> givens_;  // the b == 1 solver
  index_t b_;
  index_t ncols_ = 0;
  Matrix r_;     // transformed H, (max_cols + b) x max_cols
  Matrix v_;     // Householder vectors, (b + 1) x max_cols (v[0] == 1)
  Matrix g_;     // transformed RHS, (max_cols + b) x b
  std::vector<double> beta_;  // reflector scalars
};

}  // namespace tsbo::dense
