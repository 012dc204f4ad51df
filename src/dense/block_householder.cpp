#include "dense/block_householder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsbo::dense {

BlockHessenbergLeastSquares::BlockHessenbergLeastSquares(index_t max_cols,
                                                         index_t b,
                                                         ConstMatrixView s0)
    : b_(b) {
  assert(b >= 1 && s0.rows == b && s0.cols == b);
  if (b == 1) {
    givens_.emplace(max_cols, s0(0, 0));
    return;
  }
  r_ = Matrix(max_cols + b, max_cols);
  v_ = Matrix(b + 1, max_cols);
  g_ = Matrix(max_cols + b, b);
  beta_.assign(static_cast<std::size_t>(max_cols), 0.0);
  for (index_t t = 0; t < b; ++t) {
    for (index_t i = 0; i < b; ++i) g_(i, t) = s0(i, t);
  }
}

void BlockHessenbergLeastSquares::append_column(std::span<const double> h) {
  if (givens_) {
    givens_->append_column(h);
    ++ncols_;
    return;
  }
  const index_t k = ncols_;
  assert(k < r_.cols());
  assert(static_cast<index_t>(h.size()) == k + b_ + 1);
  double* col = r_.col(k);
  for (index_t i = 0; i <= k + b_; ++i) col[i] = h[static_cast<std::size_t>(i)];

  // Apply the previous reflectors in order; reflector j spans the b+1
  // rows [j, j+b] (v[0] == 1 implicit).
  for (index_t j = 0; j < k; ++j) {
    if (beta_[static_cast<std::size_t>(j)] == 0.0) continue;
    const double* vj = v_.col(j);
    double dot = col[j];
    for (index_t i = 1; i <= b_; ++i) dot += vj[i] * col[j + i];
    dot *= beta_[static_cast<std::size_t>(j)];
    col[j] -= dot;
    for (index_t i = 1; i <= b_; ++i) col[j + i] -= dot * vj[i];
  }

  // One new reflector annihilates the b subdiagonal entries at once
  // (Golub & Van Loan alg. 5.1.1 `house`, stable v0 branch): the
  // transformed diagonal becomes mu = ||H(k..k+b, k)|| >= 0.
  const double alpha = col[k];
  double sigma = 0.0;
  for (index_t i = 1; i <= b_; ++i) sigma += col[k + i] * col[k + i];
  double* vk = v_.col(k);
  vk[0] = 1.0;
  if (sigma == 0.0) {
    beta_[static_cast<std::size_t>(k)] = 0.0;
    for (index_t i = 1; i <= b_; ++i) vk[i] = 0.0;
  } else {
    const double mu = std::sqrt(alpha * alpha + sigma);
    const double v0 =
        alpha <= 0.0 ? alpha - mu : -sigma / (alpha + mu);  // == alpha - mu
    const double beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
    beta_[static_cast<std::size_t>(k)] = beta;
    for (index_t i = 1; i <= b_; ++i) vk[i] = col[k + i] / v0;
    col[k] = mu;
    for (index_t i = 1; i <= b_; ++i) col[k + i] = 0.0;
    // Update every RHS column's rows [k, k+b].
    for (index_t t = 0; t < b_; ++t) {
      double* gc = g_.col(t);
      double dot = gc[k];
      for (index_t i = 1; i <= b_; ++i) dot += vk[i] * gc[k + i];
      dot *= beta;
      gc[k] -= dot;
      for (index_t i = 1; i <= b_; ++i) gc[k + i] -= dot * vk[i];
    }
  }
  ++ncols_;
}

double BlockHessenbergLeastSquares::residual_norm(index_t t) const {
  assert(t >= 0 && t < b_);
  if (givens_) return givens_->residual_norm();
  double s = 0.0;
  for (index_t i = 0; i < b_; ++i) {
    const double g = g_(ncols_ + i, t);
    s += g * g;
  }
  return std::sqrt(s);
}

Matrix BlockHessenbergLeastSquares::coefficients() const {
  Matrix y(ncols_, b_);
  if (givens_) {
    const std::vector<double> y1 = givens_->solve_y();
    std::copy(y1.begin(), y1.end(), y.col(0));
    return y;
  }
  for (index_t t = 0; t < b_; ++t) {
    for (index_t i = ncols_ - 1; i >= 0; --i) {
      double s = g_(i, t);
      for (index_t j = i + 1; j < ncols_; ++j) s -= r_(i, j) * y(j, t);
      y(i, t) = s / r_(i, i);
    }
  }
  return y;
}

}  // namespace tsbo::dense
