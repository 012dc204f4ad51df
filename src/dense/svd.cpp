#include "dense/svd.hpp"

#include "dense/blas3.hpp"
#include "dense/householder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tsbo::dense {

namespace {

/// One-sided Jacobi on a square (or modestly tall) matrix held in `w`:
/// orthogonalizes columns pairwise; on exit the column norms are the
/// singular values.
std::vector<double> jacobi_singular_values(Matrix w) {
  const index_t n = w.rows(), s = w.cols();
  assert(n >= s);
  const double tol = 1e-14;
  const int max_sweeps = 60;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (index_t p = 0; p < s - 1; ++p) {
      for (index_t q = p + 1; q < s; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        const double* cp = w.col(p);
        const double* cq = w.col(q);
        for (index_t i = 0; i < n; ++i) {
          app += cp[i] * cp[i];
          aqq += cq[i] * cq[i];
          apq += cp[i] * cq[i];
        }
        if (std::abs(apq) <= tol * std::sqrt(app * aqq)) continue;
        converged = false;

        // Classic Jacobi rotation zeroing the (p,q) Gram entry.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0)
                             ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                             : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = c * t;
        double* mp = w.col(p);
        double* mq = w.col(q);
        for (index_t i = 0; i < n; ++i) {
          const double vp = mp[i], vq = mq[i];
          mp[i] = c * vp - sn * vq;
          mq[i] = sn * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  std::vector<double> sv(s);
  for (index_t j = 0; j < s; ++j) {
    const double* cj = w.col(j);
    double ss = 0.0;
    for (index_t i = 0; i < n; ++i) ss += cj[i] * cj[i];
    sv[j] = std::sqrt(ss);
  }
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

}  // namespace

std::vector<double> singular_values(ConstMatrixView a) {
  assert(a.rows >= a.cols);
  if (a.cols == 0) return {};
  if (a.rows > 2 * a.cols) {
    // QR-reduce first: sigma(A) == sigma(R) and Householder QR is
    // backward stable, so small singular values survive.
    HouseholderQR f = geqrf(a);
    return jacobi_singular_values(extract_r(f));
  }
  return jacobi_singular_values(copy_of(a));
}

double cond_2(ConstMatrixView a) {
  const std::vector<double> sv = singular_values(a);
  if (sv.empty()) return 1.0;
  const double smin = sv.back();
  if (smin <= 0.0) return std::numeric_limits<double>::infinity();
  return sv.front() / smin;
}

double norm_2(ConstMatrixView a) {
  if (a.rows < a.cols) {
    // Transpose to tall orientation; singular values are shared.
    Matrix t(a.cols, a.rows);
    for (index_t j = 0; j < a.cols; ++j) {
      for (index_t i = 0; i < a.rows; ++i) t(j, i) = a(i, j);
    }
    const auto sv = singular_values(t.view());
    return sv.empty() ? 0.0 : sv.front();
  }
  const auto sv = singular_values(a);
  return sv.empty() ? 0.0 : sv.front();
}

double orthogonality_error(ConstMatrixView a) {
  Matrix g(a.cols, a.cols);
  gemm_tn(1.0, a, a, 0.0, g.view());
  for (index_t j = 0; j < a.cols; ++j) g(j, j) -= 1.0;
  return norm_2(g.view());
}

}  // namespace tsbo::dense
