#pragma once
// Local Chebyshev polynomial preconditioner.
//
// y = p_d(D^{-1} A_local) D^{-1} x approximates A_local^{-1} x on the
// rank-local diagonal block using the standard Chebyshev iteration on
// an eigenvalue interval estimate.  Communication-free (block Jacobi
// across ranks), so it composes with s-step GMRES without extra
// synchronization — the property the paper's preconditioner discussion
// (Section III) needs.
//
// The matrix-dependent construction work — extracting the diagonal
// block, inverting the diagonal, and running the power method for the
// eigenvalue interval — lives in ChebyshevSetup so a long-lived
// service (src/service/) can pay for it once per operator and reuse it
// across solves.  The fused constructors delegate to the same code
// path, so both routes yield bitwise-identical preconditioners.
//
// apply_multi (the block solver's path) runs the columns in chunks of
// up to kMaxWidth, one compile-time-width recurrence per chunk, with
// the chunk's iterate, search direction and scaled product kept
// row-major (k-interleaved) so each nonzero of the scaled SpMV loads
// the chunk's W iterate values in one contiguous vector read and
// updates them with one vector FMA (sparse::for_each_row_product);
// apply() is the width-1 chunk.  Every pass splits its rows over the
// rank's lanes.

#include "precond/preconditioner.hpp"
#include "sparse/dist_csr.hpp"
#include "util/aligned.hpp"

#include <memory>
#include <vector>

namespace tsbo::precond {

/// Power-method steps of the estimated-interval setup: the default of
/// ChebyshevPolynomial(a, degree), and what the solver service's cached
/// setups use, so both build bitwise-identical setups.
inline constexpr int kChebyshevPowerIters = 10;

/// Reusable Chebyshev setup for one rank's operator block: the
/// ghost-stripped diagonal block, its inverted diagonal, and the
/// estimated (or explicitly given) eigenvalue interval of the
/// Jacobi-scaled block.  Depends only on the matrix and the interval
/// parameters — not on the polynomial degree, which is an apply-time
/// parameter.  Immutable after construction.
struct ChebyshevSetup {
  /// Estimates the interval with `power_iters` power-method steps and
  /// the standard heuristics lmax *= 1.1, lmin = lmax / 30 (Ifpack2
  /// defaults).
  ChebyshevSetup(const sparse::DistCsr& a, int power_iters);

  /// Explicit eigenvalue interval (no estimation) — for operators
  /// whose spectrum is known.
  ChebyshevSetup(const sparse::DistCsr& a, double lmin, double lmax);

  sparse::CsrMatrix block;  ///< rank-local diagonal block, ghosts dropped
  util::aligned_vector<double> inv_diag;
  double lmax = 1.0;
  double lmin = 0.1;

  /// y = D^{-1} A_local x on the stored block (the operator the power
  /// method and the Chebyshev recurrence both iterate with), split over
  /// the calling rank's lanes; the recurrence's width-1 row loop.
  void scaled_spmv(std::span<const double> x, std::span<double> y) const;

  /// Approximate heap footprint (operator-cache byte accounting).
  [[nodiscard]] std::size_t bytes() const;

 private:
  explicit ChebyshevSetup(const sparse::DistCsr& a);
};

class ChebyshevPolynomial final : public Preconditioner {
 public:
  /// degree: polynomial degree (number of local SpMVs per apply).
  /// The eigenvalue interval of the Jacobi-scaled block is estimated
  /// with `power_iters` power-method steps; the standard heuristics
  /// lmax *= 1.1, lmin = lmax / 30 are applied (Ifpack2 defaults).
  explicit ChebyshevPolynomial(const sparse::DistCsr& a, int degree = 4,
                               int power_iters = kChebyshevPowerIters);

  /// Explicit eigenvalue interval of the Jacobi-scaled block (no
  /// estimation) — for operators whose spectrum is known.
  ChebyshevPolynomial(const sparse::DistCsr& a, int degree, double lmin,
                      double lmax);

  /// Shares a prebuilt setup (the operator-cache path).  Bitwise
  /// identical to the fused constructors for the same matrix and
  /// interval parameters.
  ChebyshevPolynomial(std::shared_ptr<const ChebyshevSetup> setup, int degree);

  /// The width-1 call of apply_multi's recurrence.
  void apply(std::span<const double> x, std::span<double> y) const override;

  /// Fused multi-column apply: columns go in chunks of 1..kMaxWidth,
  /// each chunk one compile-time-width recurrence whose scaled SpMV
  /// streams the block once for the whole chunk; every pass splits its
  /// rows over the rank's lanes.  Each column's bits equal a lone
  /// apply() of that column.
  void apply_multi(std::size_t n, std::size_t ncols, const double* x,
                   std::size_t ldx, double* y, std::size_t ldy) const override;

  [[nodiscard]] std::string name() const override { return "Chebyshev"; }

  [[nodiscard]] double lambda_max() const { return setup_->lmax; }

 private:
  std::shared_ptr<const ChebyshevSetup> setup_;
  int degree_;
  /// Widest column chunk of apply_multi.
  static constexpr std::size_t kMaxWidth = 4;

  template <std::size_t W>
  void apply_chunk(const double* x, std::size_t ldx, double* y,
                   std::size_t ldy) const;

  // Per-instance scratch, n x W row-major for a W-column chunk (entry
  // (i, t) at [i*W + t]): the search direction p, the scaled product
  // z = D^{-1}A y, and the iterate y (a width-1 chunk iterates in the
  // output column itself, so y_ stays empty until a wider chunk runs).
  // Sized n at construction and grown to n*W by the first W-wide
  // chunk.  Applies mutate these, so instances are not safe for
  // concurrent applies even though the shared setup is.
  mutable util::aligned_vector<double> p_, z_, y_;
};

}  // namespace tsbo::precond
