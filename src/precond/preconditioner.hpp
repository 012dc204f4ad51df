#pragma once
// Preconditioner interface.
//
// The paper applies SpMV "typically combined with a preconditioner"
// (Section I) and evaluates a local Gauss-Seidel preconditioner (block
// Jacobi with Gauss-Seidel in each block, Fig. 13).  All provided
// preconditioners are *local*: apply() touches only the rank's own rows
// and requires no communication, exactly like the paper's block-Jacobi
// family.  Solvers use right preconditioning (solve A M^{-1} u = b,
// x = M^{-1} u), so the Krylov residual norm is the true residual norm.

#include <cstddef>
#include <span>
#include <string>

namespace tsbo::precond {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// y = M^{-1} x on the rank-local rows.  x and y have the local
  /// length; aliasing x == y is not allowed.
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;

  /// Multi-column apply: column t of the n x ncols column-major operand
  /// x (leading dimension ldx) maps to column t of y (ldy).  All
  /// provided preconditioners are local and column-independent, so the
  /// default is a per-column apply() loop — each column's bits match a
  /// single-vector apply exactly.  ChebyshevPolynomial overrides it to
  /// fuse the sweep (its block is streamed once per chunk of up to four
  /// columns, across the rank's lanes); any override must keep each
  /// column's bits equal to a lone apply().
  virtual void apply_multi(std::size_t n, std::size_t ncols, const double* x,
                           std::size_t ldx, double* y, std::size_t ldy) const {
    for (std::size_t t = 0; t < ncols; ++t) {
      apply(std::span<const double>(x + t * ldx, n),
            std::span<double>(y + t * ldy, n));
    }
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace tsbo::precond
