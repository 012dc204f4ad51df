// BLAS-1/2/3 kernels against naive references.

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/blas3.hpp"
#include "dense/matrix.hpp"
#include "par/config.hpp"
#include "par/thread_pool.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

namespace {

using namespace tsbo;
using dense::ConstMatrixView;
using dense::index_t;
using dense::Matrix;

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

Matrix ref_gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b,
                   double beta, ConstMatrixView c0) {
  Matrix c = dense::copy_of(c0);
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < c.cols(); ++j) {
      double s = 0.0;
      for (index_t k = 0; k < a.cols; ++k) s += a(i, k) * b(k, j);
      c(i, j) = alpha * s + beta * c0(i, j);
    }
  }
  return c;
}

TEST(Blas1, DotMatchesNaive) {
  util::Xoshiro256 rng(7);
  std::vector<double> x(1001), y(1001);
  util::fill_normal(rng, x);
  util::fill_normal(rng, y);
  double ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) ref += x[i] * y[i];
  EXPECT_NEAR(dense::dot(x, y), ref, 1e-10 * std::abs(ref) + 1e-12);
}

TEST(Blas1, Nrm2RobustToScale) {
  std::vector<double> x = {3e150, 4e150};
  EXPECT_DOUBLE_EQ(dense::nrm2(x), 5e150);
  std::vector<double> tiny = {3e-160, 4e-160};
  EXPECT_NEAR(dense::nrm2(tiny) / 5e-160, 1.0, 1e-12);
  std::vector<double> zero(5, 0.0);
  EXPECT_EQ(dense::nrm2(zero), 0.0);
}

TEST(Blas1, AxpyScalAmax) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  std::vector<double> y = {0.5, 0.5, 0.5};
  dense::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], -3.5);
  EXPECT_DOUBLE_EQ(y[2], 6.5);
  dense::scal(-1.0, y);
  EXPECT_DOUBLE_EQ(y[1], 3.5);
  EXPECT_DOUBLE_EQ(dense::amax(y), 6.5);
}

TEST(Blas2, GemvBothTranspositions) {
  const Matrix a = random_matrix(17, 9, 11);
  std::vector<double> x(9), y(17, 1.0);
  util::Xoshiro256 rng(3);
  util::fill_normal(rng, x);

  std::vector<double> y_ref(17);
  for (index_t i = 0; i < 17; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 9; ++j) s += a(i, j) * x[j];
    y_ref[static_cast<std::size_t>(i)] = 2.0 * s + 3.0 * 1.0;
  }
  dense::gemv(2.0, a.view(), x, 3.0, y);
  for (index_t i = 0; i < 17; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref[static_cast<std::size_t>(i)], 1e-12);
  }

  std::vector<double> xt(17), yt(9, 0.0);
  util::fill_normal(rng, xt);
  dense::gemv_t(1.0, a.view(), xt, 0.0, yt);
  for (index_t j = 0; j < 9; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 17; ++i) s += a(i, j) * xt[static_cast<std::size_t>(i)];
    EXPECT_NEAR(yt[static_cast<std::size_t>(j)], s, 1e-12);
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 101);
  const Matrix b = random_matrix(k, n, 102);
  const Matrix c0 = random_matrix(m, n, 103);

  Matrix c = dense::copy_of(c0.view());
  dense::gemm_nn(1.7, a.view(), b.view(), -0.3, c.view());
  const Matrix ref = ref_gemm_nn(1.7, a.view(), b.view(), -0.3, c0.view());
  EXPECT_LT(dense::max_abs_diff(c.view(), ref.view()), 1e-11 * (k + 1));
}

TEST_P(GemmShapes, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  // C (k x n) = A^T (k x m) * B (m x n)
  const Matrix a = random_matrix(m, k, 201);
  const Matrix b = random_matrix(m, n, 202);
  Matrix c(k, n);
  dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t r = 0; r < m; ++r) s += a(r, i) * b(r, j);
      EXPECT_NEAR(c(i, j), s, 1e-10 * (m + 1));
    }
  }
}

TEST_P(GemmShapes, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  // C (m x n) = A (m x k) * B^T with B (n x k)
  const Matrix a = random_matrix(m, k, 301);
  const Matrix b = random_matrix(n, k, 302);
  Matrix c(m, n);
  dense::gemm_nt(1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t r = 0; r < k; ++r) s += a(i, r) * b(j, r);
      EXPECT_NEAR(c(i, j), s, 1e-10 * (k + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 3, 2),
                      std::make_tuple(64, 6, 6), std::make_tuple(257, 5, 7),
                      std::make_tuple(300, 13, 13), std::make_tuple(1000, 2, 61),
                      std::make_tuple(33, 61, 4)));

TEST(Blas3, TrsmRightUpperInvertsUpperProduct) {
  const index_t n = 200, s = 7;
  Matrix b0 = random_matrix(n, s, 55);
  Matrix u(s, s);
  util::Xoshiro256 rng(56);
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = 0; i < j; ++i) u(i, j) = rng.normal();
    u(j, j) = 2.0 + rng.uniform();  // well away from zero
  }
  Matrix b(n, s);
  dense::gemm_nn(1.0, b0.view(), u.view(), 0.0, b.view());  // b = b0 * U
  dense::trsm_right_upper(u.view(), b.view());              // b = b0 again
  EXPECT_LT(dense::max_abs_diff(b.view(), b0.view()), 1e-12 * s);
}

TEST(Blas3, GramIsBitwiseSymmetric) {
  // gemm_tn(A, A) needs no symmetrizing pass before a Cholesky: every
  // (i, j) and (j, i) entry sums the same products in the same order,
  // whatever the register tile either one falls in and however many
  // lanes the rank pool has.
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 7u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
  }
  for (const index_t m : {1, 7, 255, 4097, 32768, 32771}) {
    for (const index_t n : {1, 2, 5, 7, 20, 60, 61, 65}) {
      const Matrix a = random_matrix(m, n, 500 + m + n);
      for (const auto& pool : pools) {
        par::ScopedRankPool scope(*pool);
        Matrix g(n, n);
        dense::gemm_tn(1.0, a.view(), a.view(), 0.0, g.view());
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < j; ++i) {
            ASSERT_EQ(std::memcmp(&g(i, j), &g(j, i), sizeof(double)), 0)
                << "m=" << m << " n=" << n << " lanes=" << pool->size() + 1
                << " (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(Blas3, GramTnMatchesTwoGemmTnBitwise) {
  // gram_tn's one pass and half triangle move no bit: [Q V]^T V must
  // equal gemm_tn(Q, V) stacked over gemm_tn(V, V), with Q and V as
  // separate allocations and as adjacent views into one basis at a row
  // and column offset (ld > rows), into a G pre-filled with NaN, at
  // every lane count.
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 7u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const index_t m : {1, 7, 255, 4097, 32768, 32771}) {
    const Matrix basis = random_matrix(m + 1, 2 + 224 + 240, 900 + m);
    for (const index_t nq : {0, 1, 5, 56, 224}) {
      for (const index_t s : {1, 2, 5, 7, 20, 60, 61, 240}) {
        const index_t p = nq + s;
        const ConstMatrixView qa = basis.view().block(1, 2, m, nq);
        const ConstMatrixView va = basis.view().block(1, 2 + nq, m, s);
        const Matrix q = dense::copy_of(qa);
        const Matrix v = dense::copy_of(va);
        Matrix expect(p, s);
        dense::gemm_tn(1.0, q.view(), v.view(), 0.0,
                       expect.view().block(0, 0, nq, s));
        dense::gemm_tn(1.0, v.view(), v.view(), 0.0,
                       expect.view().block(nq, 0, s, s));
        // Separate allocations at every lane count; the adjacent views
        // (a layout question, not a schedule one) on the widest pool.
        for (std::size_t run = 0; run <= pools.size(); ++run) {
          const bool adjacent = run == pools.size();
          par::ThreadPool& pool = *pools[std::min(run, pools.size() - 1)];
          par::ScopedRankPool scope(pool);
          Matrix g(p, s);
          std::fill(g.data().begin(), g.data().end(), nan);
          dense::gram_tn(adjacent ? qa : q.view(), adjacent ? va : v.view(),
                         g.view());
          ASSERT_EQ(std::memcmp(g.data().data(), expect.data().data(),
                                g.data().size() * sizeof(double)),
                    0)
              << "m=" << m << " nq=" << nq << " s=" << s
              << " lanes=" << pool.size() + 1 << " adjacent=" << adjacent;
        }
      }
    }
  }
}

TEST(Blas3, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(dense::frobenius_norm(a.view()), 5.0);
}

TEST(MatrixView, BlockAndColumnsViews) {
  Matrix m(6, 5);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 6; ++i) m(i, j) = i + 10.0 * j;
  }
  auto blk = m.view().block(2, 1, 3, 2);
  EXPECT_EQ(blk.rows, 3);
  EXPECT_EQ(blk.cols, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(blk(2, 1), 24.0);
  blk(0, 0) = -1.0;
  EXPECT_DOUBLE_EQ(m(2, 1), -1.0);

  auto cols = m.view().columns(3, 2);
  EXPECT_DOUBLE_EQ(cols(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(cols(5, 1), 45.0);
}

TEST(MatrixView, CopyAndMaxAbsDiff) {
  const Matrix a = random_matrix(10, 4, 5);
  Matrix b(10, 4);
  dense::copy(a.view(), b.view());
  EXPECT_EQ(dense::max_abs_diff(a.view(), b.view()), 0.0);
  b(3, 2) += 0.5;
  EXPECT_DOUBLE_EQ(dense::max_abs_diff(a.view(), b.view()), 0.5);
}

}  // namespace
