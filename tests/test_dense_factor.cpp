// Cholesky, Householder QR, Givens least squares, Jacobi SVD, and
// double-double kernels.

#include "dense/blas3.hpp"
#include "dense/cholesky.hpp"
#include "dense/dd.hpp"
#include "dense/givens.hpp"
#include "dense/householder.hpp"
#include "dense/svd.hpp"
#include "synth/synthetic.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

Matrix spd_matrix(index_t n, std::uint64_t seed) {
  const Matrix a = random_matrix(2 * n, n, seed);
  Matrix g(n, n);
  dense::gemm_tn(1.0, a.view(), a.view(), 0.0, g.view());
  for (index_t i = 0; i < n; ++i) g(i, i) += n;  // well-conditioned
  return g;
}

TEST(Cholesky, FactorsSpdMatrix) {
  Matrix g = spd_matrix(8, 42);
  const Matrix g0 = dense::copy_of(g.view());
  const auto res = dense::potrf_upper(g.view());
  ASSERT_TRUE(res.ok());

  // R^T R == G and the strict lower triangle is zeroed.
  Matrix rr(8, 8);
  dense::gemm_tn(1.0, g.view(), g.view(), 0.0, rr.view());
  EXPECT_LT(dense::max_abs_diff(rr.view(), g0.view()), 1e-10 * 8);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t i = j + 1; i < 8; ++i) EXPECT_EQ(g(i, j), 0.0);
    EXPECT_GT(g(j, j), 0.0);
  }
}

TEST(Cholesky, ReportsIndefiniteMatrixWithPivotIndex) {
  Matrix g = Matrix::identity(5);
  g(3, 3) = -1.0;  // indefinite at pivot 4 (1-based)
  const auto res = dense::potrf_upper(g.view());
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.info, 4);
}

TEST(Cholesky, ShiftRecoversNearSingular) {
  Matrix g = Matrix::identity(4);
  g(2, 2) = -1e-18;  // numerically zero pivot
  Matrix g2 = dense::copy_of(g.view());
  EXPECT_FALSE(dense::potrf_upper(g.view()).ok());
  EXPECT_TRUE(dense::potrf_upper_shifted(g2.view(), 1e-12).ok());
}

TEST(Cholesky, OneNorm) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 0) = -3.0;
  a(0, 1) = 2.0;
  a(1, 1) = 1.0;
  EXPECT_DOUBLE_EQ(dense::one_norm(a.view()), 4.0);
}

class HouseholderShapes
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HouseholderShapes, QrReconstructsAndQOrthonormal) {
  const auto [n, s] = GetParam();
  const Matrix a = random_matrix(n, s, 1234 + n + s);
  auto [q, r] = dense::householder_qr(a.view());

  // Q R == A
  Matrix qr(n, s);
  dense::gemm_nn(1.0, q.view(), r.view(), 0.0, qr.view());
  EXPECT_LT(dense::max_abs_diff(qr.view(), a.view()), 1e-11 * n);

  // ||I - Q^T Q|| = O(eps), R upper triangular with non-negative diag.
  EXPECT_LT(dense::orthogonality_error(q.view()), 1e-13 * n);
  for (index_t j = 0; j < s; ++j) {
    EXPECT_GE(r(j, j), 0.0);
    for (index_t i = j + 1; i < s; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HouseholderShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(10, 10),
                                           std::make_pair(100, 5),
                                           std::make_pair(500, 21),
                                           std::make_pair(64, 1)));

TEST(Householder, HandlesRankDeficientColumns) {
  Matrix a(20, 3);
  util::Xoshiro256 rng(9);
  for (index_t i = 0; i < 20; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = 2.0 * a(i, 0);  // dependent column
    a(i, 2) = rng.normal();
  }
  auto [q, r] = dense::householder_qr(a.view());
  Matrix qr(20, 3);
  dense::gemm_nn(1.0, q.view(), r.view(), 0.0, qr.view());
  EXPECT_LT(dense::max_abs_diff(qr.view(), a.view()), 1e-12 * 20);
  EXPECT_NEAR(r(1, 1), 0.0, 1e-13 * dense::frobenius_norm(a.view()));
}

TEST(Givens, RotationAnnihilates) {
  double r = 0.0;
  const auto g = dense::make_givens(3.0, 4.0, r);
  EXPECT_DOUBLE_EQ(r, 5.0);
  EXPECT_NEAR(-g.s * 3.0 + g.c * 4.0, 0.0, 1e-15);
  EXPECT_NEAR(g.c * 3.0 + g.s * 4.0, 5.0, 1e-15);

  const auto gz = dense::make_givens(-2.0, 0.0, r);
  EXPECT_DOUBLE_EQ(r, 2.0);
  EXPECT_DOUBLE_EQ(gz.c, -1.0);
}

TEST(Givens, LeastSquaresMatchesNormalEquations) {
  // Hessenberg system from a tiny Arnoldi-like recurrence.
  const index_t m = 6;
  Matrix h(m + 1, m);
  util::Xoshiro256 rng(31);
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i <= j + 1; ++i) h(i, j) = rng.normal();
    h(j + 1, j) += 3.0;  // keep subdiagonal well sized
  }
  const double gamma = 2.5;

  dense::HessenbergLeastSquares ls(m, gamma);
  for (index_t j = 0; j < m; ++j) {
    ls.append_column(std::span<const double>(h.col(j), static_cast<std::size_t>(j) + 2));
  }
  const std::vector<double> y = ls.solve_y();

  // Residual of the solved LS problem must be orthogonal to range(H).
  std::vector<double> res(m + 1, 0.0);
  res[0] = gamma;
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i <= j + 1; ++i) res[static_cast<std::size_t>(i)] -= h(i, j) * y[static_cast<std::size_t>(j)];
  }
  double rnorm = 0.0;
  for (const double v : res) rnorm += v * v;
  rnorm = std::sqrt(rnorm);
  EXPECT_NEAR(ls.residual_norm(), rnorm, 1e-10);

  for (index_t j = 0; j < m; ++j) {
    double dot = 0.0;
    for (index_t i = 0; i <= j + 1; ++i) dot += h(i, j) * res[static_cast<std::size_t>(i)];
    EXPECT_NEAR(dot, 0.0, 1e-9);
  }
}

TEST(Givens, ResidualDecreasesMonotonically) {
  const index_t m = 12;
  dense::HessenbergLeastSquares ls(m, 1.0);
  util::Xoshiro256 rng(77);
  double prev = 1.0;
  std::vector<double> col(m + 1);
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i <= j + 1; ++i) col[static_cast<std::size_t>(i)] = rng.normal();
    ls.append_column(std::span<const double>(col.data(), static_cast<std::size_t>(j) + 2));
    EXPECT_LE(ls.residual_norm(), prev + 1e-14);
    prev = ls.residual_norm();
  }
}

TEST(Svd, ExactSingularValuesOfLogscaled) {
  // synth::logscaled builds X diag(sigma) Y^T with known sigma.
  for (const double kappa : {1e2, 1e6, 1e10, 1e14}) {
    const Matrix v = synth::logscaled(500, 5, kappa, 3);
    const auto sv = dense::singular_values(v.view());
    ASSERT_EQ(sv.size(), 5u);
    EXPECT_NEAR(sv.front(), 1.0, 1e-10);
    EXPECT_NEAR(sv.back() * kappa, 1.0, 1e-4 * kappa * 1e-10 + 1e-2);
    EXPECT_NEAR(dense::cond_2(v.view()) / kappa, 1.0, 1e-2);
  }
}

TEST(Svd, TallInputUsesQrReduction) {
  const Matrix v = synth::logscaled(4000, 4, 1e8, 5);
  EXPECT_NEAR(dense::cond_2(v.view()) / 1e8, 1.0, 1e-2);
}

TEST(Svd, Norm2OfIdentityPerturbation) {
  Matrix a = Matrix::identity(6);
  a(2, 4) = 1e-7;
  const double n2 = dense::norm_2(a.view());
  EXPECT_GT(n2, 1.0);
  EXPECT_LT(n2, 1.0 + 1e-6);
}

TEST(Svd, OrthogonalityErrorMetric) {
  const Matrix q = synth::random_orthonormal(300, 8, 21);
  EXPECT_LT(dense::orthogonality_error(q.view()), 1e-14 * 300);
  Matrix bad = dense::copy_of(q.view());
  for (index_t i = 0; i < 300; ++i) bad(i, 0) = bad(i, 1);  // rank collapse
  EXPECT_GT(dense::orthogonality_error(bad.view()), 0.5);
}

TEST(Svd, RankDeficientReportsInfiniteCondition) {
  Matrix a(50, 3);
  util::Xoshiro256 rng(4);
  for (index_t i = 0; i < 50; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = a(i, 0);
    a(i, 2) = rng.normal();
  }
  EXPECT_TRUE(std::isinf(dense::cond_2(a.view())) ||
              dense::cond_2(a.view()) > 1e15);
}

TEST(DoubleDouble, TwoSumAndTwoProdAreExact) {
  const auto s = dense::two_sum(1.0, 1e-20);
  EXPECT_DOUBLE_EQ(s.hi, 1.0);
  EXPECT_DOUBLE_EQ(s.lo, 1e-20);

  // two_prod must capture the rounding error of the double product
  // exactly: hi == fl(a*b) and hi + lo == a*b in extended precision.
  const double a = 1.0 + 1e-8;
  const double b = 1.0 - 1e-8;
  const auto p = dense::two_prod(a, b);
  EXPECT_DOUBLE_EQ(p.hi, a * b);
  const long double exact =
      static_cast<long double>(a) * static_cast<long double>(b);
  EXPECT_NEAR(static_cast<double>(static_cast<long double>(p.hi) +
                                  static_cast<long double>(p.lo) - exact),
              0.0, 1e-25);
  EXPECT_NE(p.lo, 0.0);  // the product is not exactly representable
}

TEST(DoubleDouble, DotBeatsDoubleOnCancellation) {
  // Sum of alternating large/small products that cancels catastrophically.
  const index_t n = 4000;
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  util::Xoshiro256 rng(8);
  long double exact = 0.0L;
  for (index_t i = 0; i < n; ++i) {
    const double xv = rng.normal() * (i % 2 == 0 ? 1e8 : 1.0);
    const double yv = rng.normal() * (i % 2 == 0 ? 1e8 : 1.0);
    x[static_cast<std::size_t>(i)] = xv;
    y[static_cast<std::size_t>(i)] = yv;
    exact += static_cast<long double>(xv) * static_cast<long double>(yv);
  }
  // The dd dot as block_dot runs it: an n x 1 by n x 1 gemm_tn_dd.
  double dd = 0.0;
  dense::gemm_tn_dd(dense::ConstMatrixView{x.data(), n, 1, n},
                    dense::ConstMatrixView{y.data(), n, 1, n},
                    dense::MatrixView{&dd, 1, 1, 1});
  double plain = 0.0;
  for (index_t i = 0; i < n; ++i) {
    plain += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
  }
  // The long-double reference itself carries ~n * 2^-64 noise; dd must
  // agree with it to near that level and beat the plain double sum.
  const double err_dd = std::abs(
      static_cast<double>(static_cast<long double>(dd) - exact) /
      static_cast<double>(std::abs(exact)));
  const double err_plain = std::abs(
      static_cast<double>(static_cast<long double>(plain) - exact) /
      static_cast<double>(std::abs(exact)));
  EXPECT_LT(err_dd, 1e-15);
  EXPECT_LT(err_dd, err_plain + 1e-18);
}

TEST(DoubleDouble, GramMatchesHighPrecision) {
  const Matrix a = random_matrix(300, 4, 15);
  Matrix g(4, 4);
  dense::gemm_tn_dd(a.view(), a.view(), g.view());
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      long double exact = 0.0L;
      for (index_t r = 0; r < 300; ++r) {
        exact += static_cast<long double>(a(r, i)) * static_cast<long double>(a(r, j));
      }
      EXPECT_NEAR(g(i, j), static_cast<double>(exact), 1e-13);
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

}  // namespace
