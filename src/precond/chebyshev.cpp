#include "precond/chebyshev.hpp"

#include "par/config.hpp"
#include "sparse/spmv.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace tsbo::precond {

namespace {

/// z = D^{-1} A y on rows [begin, end) of n x W row-major operands:
/// each row's W sums come from sparse::for_each_row_product (one lane
/// per column, ascending nnz order, one vector FMA per nonzero) and are
/// scaled and stored as one vector.  The scale is the same single
/// multiply per entry, so a column's bits do not depend on the width
/// of the chunk it rides in.
template <std::size_t W>
void scaled_spmv_rows(const sparse::CsrMatrix& a, const double* inv_diag,
                      std::size_t begin, std::size_t end, const double* y,
                      double* z) {
  sparse::for_each_row_product<W>(
      a, begin, end, y, W, [&](std::size_t i, const simd::VecN<W>& acc) {
        simd::store_n<W>(z + i * W, simd::mul_n<W>(acc, inv_diag[i]));
      });
}

/// Stores entry(i, t), the new y of column t at row i, for rows
/// [begin, end): into the n x W row-major iterate yk, or, when
/// `to_output` (the last pass of a W > 1 chunk), into the column-major
/// output y.  At W = 1 the iterate is the output column.
template <std::size_t W, typename Entry>
void store_rows(std::size_t begin, std::size_t end, bool to_output,
                double* yk, double* y, std::size_t ldy, const Entry& entry) {
  if (W > 1 && to_output) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t t = 0; t < W; ++t) y[t * ldy + i] = entry(i, t);
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t t = 0; t < W; ++t) yk[i * W + t] = entry(i, t);
    }
  }
}

}  // namespace

ChebyshevSetup::ChebyshevSetup(const sparse::DistCsr& a) {
  // Rank-local diagonal block (ghosts dropped), built from the
  // DistCsr interior/boundary split — see local_diagonal_block().
  block = a.local_diagonal_block();
  const sparse::ord n = block.rows;

  inv_diag.assign(static_cast<std::size_t>(n), 1.0);
  for (sparse::ord i = 0; i < n; ++i) {
    const double d = block.at(i, i);
    if (d != 0.0) inv_diag[static_cast<std::size_t>(i)] = 1.0 / d;
  }
}

ChebyshevSetup::ChebyshevSetup(const sparse::DistCsr& a, int power_iters)
    : ChebyshevSetup(a) {
  // Power method on D^{-1} A_local for lambda_max.
  const sparse::ord n = block.rows;
  util::aligned_vector<double> v(static_cast<std::size_t>(n), 1.0),
      w(static_cast<std::size_t>(n));
  double lambda = 1.0;
  for (int it = 0; it < power_iters; ++it) {
    scaled_spmv(v, w);
    double nrm = 0.0;
    for (const double val : w) nrm += val * val;
    nrm = std::sqrt(nrm);
    if (nrm == 0.0) break;
    lambda = nrm;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = w[i] / nrm;
  }
  lmax = 1.1 * lambda;  // Ifpack2-style safety factor
  lmin = lmax / 30.0;   // default eigRatio
}

ChebyshevSetup::ChebyshevSetup(const sparse::DistCsr& a, double lmin_in,
                               double lmax_in)
    : ChebyshevSetup(a) {
  lmin = lmin_in;
  lmax = lmax_in;
}

void ChebyshevSetup::scaled_spmv(std::span<const double> x,
                                 std::span<double> y) const {
  assert(x.size() == inv_diag.size() && y.size() == inv_diag.size());
  par::parallel_for_grained(x.size(), [&](std::size_t b, std::size_t e) {
    scaled_spmv_rows<1>(block, inv_diag.data(), b, e, x.data(), y.data());
  });
}

std::size_t ChebyshevSetup::bytes() const {
  return block.storage_bytes() + inv_diag.capacity() * sizeof(double);
}

ChebyshevPolynomial::ChebyshevPolynomial(const sparse::DistCsr& a, int degree,
                                         double lmin, double lmax)
    : ChebyshevPolynomial(std::make_shared<const ChebyshevSetup>(a, lmin, lmax),
                          degree) {}

ChebyshevPolynomial::ChebyshevPolynomial(const sparse::DistCsr& a, int degree,
                                         int power_iters)
    : ChebyshevPolynomial(
          std::make_shared<const ChebyshevSetup>(a, power_iters), degree) {}

ChebyshevPolynomial::ChebyshevPolynomial(
    std::shared_ptr<const ChebyshevSetup> setup, int degree)
    : setup_(std::move(setup)), degree_(degree) {
  assert(setup_ != nullptr);
  const auto n = setup_->inv_diag.size();
  p_.assign(n, 0.0);
  z_.assign(n, 0.0);
}

void ChebyshevPolynomial::apply(std::span<const double> x,
                                std::span<double> y) const {
  assert(x.size() == setup_->inv_diag.size() &&
         y.size() == setup_->inv_diag.size());
  apply_chunk<1>(x.data(), x.size(), y.data(), y.size());
}

void ChebyshevPolynomial::apply_multi([[maybe_unused]] std::size_t n,
                                      std::size_t ncols, const double* x,
                                      std::size_t ldx, double* y,
                                      std::size_t ldy) const {
  assert(n == setup_->inv_diag.size());
  for (std::size_t t0 = 0; t0 < ncols; t0 += kMaxWidth) {
    util::with_width<kMaxWidth>(
        std::min(kMaxWidth, ncols - t0), [&]<std::size_t W>() {
          apply_chunk<W>(x + t0 * ldx, ldx, y + t0 * ldy, ldy);
        });
  }
}

template <std::size_t W>
void ChebyshevPolynomial::apply_chunk(const double* x, std::size_t ldx,
                                      double* y, std::size_t ldy) const {
  const std::size_t n = setup_->inv_diag.size();
  const double* inv_diag = setup_->inv_diag.data();
  if (degree_ < 1) {
    for (std::size_t t = 0; t < W; ++t) std::fill_n(y + t * ldy, n, 0.0);
    return;
  }
  if (p_.size() < n * W) {
    p_.resize(n * W);
    z_.resize(n * W);
  }
  if (W > 1 && y_.size() < n * W) y_.resize(n * W);
  double* const p = p_.data();
  double* const z = z_.data();
  // The iterate: row-major scratch for W > 1; at W = 1 the two layouts
  // coincide, so the recurrence iterates in the output column itself.
  double* const yk = W > 1 ? y_.data() : y;
  // Chebyshev acceleration (Saad, "Iterative Methods for Sparse Linear
  // Systems", Alg. 12.1) on the Jacobi-scaled system D^{-1}A y = D^{-1}x
  // over the interval [lmin, lmax], from y = 0.
  const double theta = 0.5 * (setup_->lmax + setup_->lmin);
  const double delta = 0.5 * (setup_->lmax - setup_->lmin);
  const double sigma1 = theta / delta;
  double rho = 1.0 / sigma1;

  // r = D^{-1} x; p = r / theta; y = 0 + p.  Each pass stores y into
  // the iterate, the last one into the output.
  par::parallel_for_grained(n, [&](std::size_t b, std::size_t e) {
    store_rows<W>(b, e, degree_ == 1, yk, y, ldy,
                  [&](std::size_t i, std::size_t t) {
                    const double r = x[t * ldx + i] * inv_diag[i];
                    const double pv = r / theta;
                    p[i * W + t] = pv;
                    return 0.0 + pv;
                  });
  });
  for (int k = 1; k < degree_; ++k) {
    par::parallel_for_grained(n, [&](std::size_t b, std::size_t e) {
      scaled_spmv_rows<W>(setup_->block, inv_diag, b, e, yk, z);
    });
    const double rho_next = 1.0 / (2.0 * sigma1 - rho);
    const double c1 = rho_next * rho;
    const double c2 = 2.0 * rho_next / delta;
    // r = D^{-1}x - D^{-1}A y; p = c1 p + c2 r; y += p.  z is read back
    // from the SpMV pass's store: formed in a register, its product
    // could contract into r's subtraction and change the bits.
    par::parallel_for_grained(n, [&](std::size_t b, std::size_t e) {
      store_rows<W>(b, e, k + 1 == degree_, yk, y, ldy,
                    [&](std::size_t i, std::size_t t) {
                      const double r =
                          x[t * ldx + i] * inv_diag[i] - z[i * W + t];
                      const double pv = c1 * p[i * W + t] + c2 * r;
                      p[i * W + t] = pv;
                      return yk[i * W + t] + pv;
                    });
    });
    rho = rho_next;
  }
}

}  // namespace tsbo::precond
