// Thread-parallel kernel layer: parallel-vs-serial bitwise equality for
// the deterministic chunked kernels, plus ThreadPool stress tests.

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/blas3.hpp"
#include "par/config.hpp"
#include "par/thread_pool.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

/// Thread counts the kernels must agree across: serial, even, odd
/// (exercises remainder chunks), and whatever the host offers.
std::vector<unsigned> sweep_thread_counts() {
  return {1u, 2u, 7u, std::max(1u, std::thread::hardware_concurrency())};
}

/// Restores the global threading config after each test, and lowers the
/// dispatch grain so modest test sizes actually cross the threshold.
class ParKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_grain_ = par::parallel_grain();
    par::set_parallel_grain(512);
  }
  void TearDown() override {
    par::set_num_threads(0);
    par::set_parallel_grain(saved_grain_);
  }

 private:
  std::size_t saved_grain_ = 0;
};

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << "entry (" << i << ", " << j << ")";
    }
  }
}

// Uneven row count: several reduction chunks plus a remainder.
constexpr index_t kRows = 3 * 4096 + 517;

TEST_F(ParKernels, GemmTnBitwiseAcrossThreadCounts) {
  const Matrix a = random_matrix(kRows, 7, 1);
  const Matrix b = random_matrix(kRows, 5, 2);
  const Matrix c0 = random_matrix(7, 5, 3);

  Matrix ref;
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    Matrix c = dense::copy_of(c0.view());
    dense::gemm_tn(0.5, a.view(), b.view(), -2.0, c.view());
    if (ref.rows() == 0) {
      ref = std::move(c);
    } else {
      SCOPED_TRACE(testing::Message() << "threads = " << t);
      expect_bitwise_equal(ref, c);
    }
  }
}

TEST_F(ParKernels, GemmNnBitwiseAcrossThreadCounts) {
  const Matrix q = random_matrix(kRows, 6, 4);
  const Matrix r = random_matrix(6, 4, 5);
  const Matrix v0 = random_matrix(kRows, 4, 6);

  Matrix ref;
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    Matrix v = dense::copy_of(v0.view());
    dense::gemm_nn(-1.0, q.view(), r.view(), 1.0, v.view());
    if (ref.rows() == 0) {
      ref = std::move(v);
    } else {
      SCOPED_TRACE(testing::Message() << "threads = " << t);
      expect_bitwise_equal(ref, v);
    }
  }
}

TEST_F(ParKernels, TrsmBitwiseAcrossThreadCounts) {
  const Matrix u0 = random_matrix(5, 5, 7);
  Matrix u(5, 5);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i <= j; ++i) u(i, j) = u0(i, j);
    u(j, j) += 4.0;  // well-conditioned triangle
  }
  const Matrix b0 = random_matrix(kRows, 5, 8);

  Matrix ref;
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    Matrix b = dense::copy_of(b0.view());
    dense::trsm_right_upper(u.view(), b.view());
    if (ref.rows() == 0) {
      ref = std::move(b);
    } else {
      SCOPED_TRACE(testing::Message() << "threads = " << t);
      expect_bitwise_equal(ref, b);
    }
  }
}

// ---- Unblocked reference kernels ------------------------------------
// Copies of dense/blas3.cpp's loops before register blocking: two
// outputs (gemm_tn) or two inner columns (gemm_nn) per pass over a
// 256-row tile, gemm_tn folding 4096-row chunks in ascending order.  The
// blocked kernels promise every output element exactly this arithmetic.
namespace unblocked {

constexpr index_t kW = static_cast<index_t>(simd::kLanes);
constexpr index_t kRowBlock = 256;
constexpr index_t kChunk = 4096;

void fused_axpy2(double b0, const double* a0, double b1, const double* a1,
                 double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  const simd::Vec v1 = simd::set1(b1);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::Vec acc = simd::load(cj + i);
    acc = simd::mul_add(v0, simd::load(a0 + i), acc);
    acc = simd::mul_add(v1, simd::load(a1 + i), acc);
    simd::store(cj + i, acc);
  }
  for (; i < nb; ++i) {
    cj[i] = simd::mul_add(b1, a1[i], simd::mul_add(b0, a0[i], cj[i]));
  }
}

void fused_axpy1(double b0, const double* a0, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::store(cj + i,
                simd::mul_add(v0, simd::load(a0 + i), simd::load(cj + i)));
  }
  for (; i < nb; ++i) cj[i] = simd::mul_add(b0, a0[i], cj[i]);
}

void dot2(const double* a0, const double* a1, const double* bj, index_t nb,
          double& s0, double& s1) {
  simd::Vec v0a = simd::zero(), v0b = simd::zero();
  simd::Vec v1a = simd::zero(), v1b = simd::zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    const simd::Vec b0 = simd::load(bj + r);
    const simd::Vec b1 = simd::load(bj + r + kW);
    v0a = simd::mul_add(simd::load(a0 + r), b0, v0a);
    v0b = simd::mul_add(simd::load(a0 + r + kW), b1, v0b);
    v1a = simd::mul_add(simd::load(a1 + r), b0, v1a);
    v1b = simd::mul_add(simd::load(a1 + r + kW), b1, v1b);
  }
  for (; r + kW <= nb; r += kW) {
    const simd::Vec b0 = simd::load(bj + r);
    v0a = simd::mul_add(simd::load(a0 + r), b0, v0a);
    v1a = simd::mul_add(simd::load(a1 + r), b0, v1a);
  }
  double t0 = simd::reduce_add(simd::add(v0a, v0b));
  double t1 = simd::reduce_add(simd::add(v1a, v1b));
  for (; r < nb; ++r) {
    t0 += a0[r] * bj[r];
    t1 += a1[r] * bj[r];
  }
  s0 = t0;
  s1 = t1;
}

double dot1(const double* a0, const double* bj, index_t nb) {
  simd::Vec v0a = simd::zero(), v0b = simd::zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
    v0b = simd::mul_add(simd::load(a0 + r + kW), simd::load(bj + r + kW), v0b);
  }
  for (; r + kW <= nb; r += kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
  }
  double s = simd::reduce_add(simd::add(v0a, v0b));
  for (; r < nb; ++r) s += a0[r] * bj[r];
  return s;
}

void scale_columns(double beta, dense::MatrixView c) {
  if (beta == 1.0) return;
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      c(i, j) = beta == 0.0 ? 0.0 : c(i, j) * beta;
    }
  }
}

void gemm_tn(double alpha, dense::ConstMatrixView a, dense::ConstMatrixView b,
             double beta, dense::MatrixView c) {
  const index_t m = a.rows, p = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || m == 0 || p == 0 || n == 0) return;
  std::vector<double> part(static_cast<std::size_t>(p) * n);
  for (index_t c0 = 0; c0 < m; c0 += kChunk) {
    std::fill(part.begin(), part.end(), 0.0);
    const index_t rhi = std::min(m, c0 + kChunk);
    for (index_t r0 = c0; r0 < rhi; r0 += kRowBlock) {
      const index_t nb = std::min(kRowBlock, rhi - r0);
      for (index_t j = 0; j < n; ++j) {
        const double* bj = b.col(j) + r0;
        double* pj = part.data() + static_cast<std::size_t>(j) * p;
        index_t i = 0;
        for (; i + 1 < p; i += 2) {
          double s0 = 0.0, s1 = 0.0;
          dot2(a.col(i) + r0, a.col(i + 1) + r0, bj, nb, s0, s1);
          pj[i] += s0;
          pj[i + 1] += s1;
        }
        for (; i < p; ++i) pj[i] += dot1(a.col(i) + r0, bj, nb);
      }
    }
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* pj = part.data() + static_cast<std::size_t>(j) * p;
      for (index_t i = 0; i < p; ++i) cj[i] += alpha * pj[i];
    }
  }
}

void gemm_nn(double alpha, dense::ConstMatrixView a, dense::ConstMatrixView b,
             double beta, dense::MatrixView c) {
  const index_t m = a.rows, k = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;
  for (index_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const index_t ib = std::min(kRowBlock, m - i0);
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j) + i0;
      index_t l = 0;
      for (; l + 1 < k; l += 2) {
        fused_axpy2(alpha * b(l, j), a.col(l) + i0, alpha * b(l + 1, j),
                    a.col(l + 1) + i0, cj, ib);
      }
      for (; l < k; ++l) fused_axpy1(alpha * b(l, j), a.col(l) + i0, cj, ib);
    }
  }
}

void trsm_right_upper(dense::ConstMatrixView u, dense::MatrixView b) {
  const index_t m = b.rows, s = b.cols;
  for (index_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const index_t ib = std::min(kRowBlock, m - i0);
    for (index_t j = 0; j < s; ++j) {
      double* bj = b.col(j) + i0;
      for (index_t l = 0; l < j; ++l) {
        const double ulj = u(l, j);
        if (ulj == 0.0) continue;
        fused_axpy1(-ulj, b.col(l) + i0, bj, ib);
      }
      const double inv = 1.0 / u(j, j);
      const simd::Vec vinv = simd::set1(inv);
      index_t i = 0;
      for (; i + kW <= ib; i += kW) {
        simd::store(bj + i, simd::mul(vinv, simd::load(bj + i)));
      }
      for (; i < ib; ++i) bj[i] *= inv;
    }
  }
}

}  // namespace unblocked

/// Bitwise view comparison (memcmp, so -0.0 vs +0.0 and NaN payloads
/// count as differences).
::testing::AssertionResult same_bits(dense::ConstMatrixView want,
                                     dense::ConstMatrixView got) {
  for (index_t j = 0; j < want.cols; ++j) {
    for (index_t i = 0; i < want.rows; ++i) {
      const double w = want(i, j), g = got(i, j);
      if (std::memcmp(&w, &g, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "entry (" << i << ", " << j << "): want " << w << ", got "
               << g;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(ParKernels, BlockedKernelsMatchUnblockedReferenceBitwise) {
  // Row counts around the vector width, the 256-row tile and the
  // 4096-row reduction chunk; widths around every register-tile shape.
  const index_t kWidth = static_cast<index_t>(simd::kLanes);
  const std::vector<index_t> rows = {1, kWidth - 1, 255, 256, 257, 4097, 32771};
  const std::vector<index_t> widths = {1, 2, 3, 4, 5, 6, 7, 20, 60, 61, 65};
  const index_t wmax = 65;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // {alpha, beta, C starts as NaN}: general, beta = 0 over NaN, alpha = 0.
  struct Scalars {
    double alpha, beta;
    bool nan_c;
  };
  const Scalars cases[] = {{0.75, -0.5, false}, {1.0, 0.0, true},
                           {0.0, 2.0, false}};
  // Installed per check; built once (a pool spawns lanes - 1 threads).
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 7u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
  }

  for (const index_t m : rows) {
    // Column- and row-offset sub-views of larger matrices (ld > rows).
    const Matrix abig = random_matrix(m + 3, wmax + 1, 10 + m);
    const Matrix bbig = random_matrix(m + 5, wmax + 2, 20 + m);
    const Matrix small = random_matrix(wmax + 1, wmax + 2, 30);
    const Matrix gram_init = random_matrix(wmax + 1, wmax + 1, 35);
    const Matrix cinit = random_matrix(m + 2, wmax + 1, 40 + m);
    for (const index_t p : widths) {
      for (const index_t n : widths) {
        const dense::ConstMatrixView a = abig.view().block(1, 1, m, p);
        const dense::ConstMatrixView b = bbig.view().block(2, 2, m, n);
        const dense::ConstMatrixView r = small.view().block(1, 2, p, n);
        for (const Scalars& sc : cases) {
          // The prologue cases need no long accumulations.
          if (&sc != &cases[0] && m > 4097) continue;
          const auto start = [&](dense::ConstMatrixView src) {
            Matrix out = dense::copy_of(src);
            if (sc.nan_c) std::fill(out.data().begin(), out.data().end(), nan);
            return out;
          };
          // gemm_tn: C (p x n) = alpha A^T B + beta C, an offset view.
          const Matrix tn_init = start(gram_init.block(0, 0, p + 1, n + 1));
          Matrix tn_want = dense::copy_of(tn_init.view());
          unblocked::gemm_tn(sc.alpha, a, b, sc.beta,
                             tn_want.block(1, 1, p, n));
          // gemm_nn: C (m x n) = alpha A R + beta C, an offset view.
          const Matrix nn_init = start(cinit.block(0, 0, m + 2, n + 1));
          Matrix nn_want = dense::copy_of(nn_init.view());
          unblocked::gemm_nn(sc.alpha, a, r, sc.beta,
                             nn_want.block(2, 1, m, n));
          for (const auto& pool : pools) {
            par::ScopedRankPool scope(*pool);
            SCOPED_TRACE(testing::Message()
                         << "m=" << m << " p=" << p << " n=" << n
                         << " alpha=" << sc.alpha << " beta=" << sc.beta
                         << " lanes=" << pool->size() + 1);
            Matrix tn_got = dense::copy_of(tn_init.view());
            dense::gemm_tn(sc.alpha, a, b, sc.beta, tn_got.block(1, 1, p, n));
            ASSERT_TRUE(same_bits(tn_want.view(), tn_got.view())) << "gemm_tn";
            Matrix nn_got = dense::copy_of(nn_init.view());
            dense::gemm_nn(sc.alpha, a, r, sc.beta, nn_got.block(2, 1, m, n));
            ASSERT_TRUE(same_bits(nn_want.view(), nn_got.view())) << "gemm_nn";
          }
        }
      }
    }
    // trsm: U has whole columns of exact-zero off-diagonals (every third
    // column) and scattered ones, and B holds -0.0 entries, so a zero
    // coefficient that were applied instead of skipped would flip the
    // sign of a zero.
    for (const index_t n : widths) {
      Matrix u = random_matrix(n + 1, n + 1, 50 + n);
      for (index_t j = 0; j <= n; ++j) {
        u(j, j) = 2.0 + std::abs(u(j, j));
        for (index_t i = 0; i < j; ++i) {
          if (j % 3 == 1 || (i + 2 * j) % 5 == 0) u(i, j) = 0.0;
        }
      }
      Matrix b_init = random_matrix(m + 3, n + 1, 60 + n);
      for (std::size_t e = 0; e < b_init.data().size(); e += 3) {
        b_init.data()[e] = -0.0;
      }
      const dense::ConstMatrixView uv = u.view().block(1, 1, n, n);
      Matrix want = dense::copy_of(b_init.view());
      unblocked::trsm_right_upper(uv, want.block(2, 1, m, n));
      for (const auto& pool : pools) {
        par::ScopedRankPool scope(*pool);
        SCOPED_TRACE(testing::Message() << "trsm m=" << m << " n=" << n
                                        << " lanes=" << pool->size() + 1);
        Matrix got = dense::copy_of(b_init.view());
        dense::trsm_right_upper(uv, got.block(2, 1, m, n));
        ASSERT_TRUE(same_bits(want.view(), got.view())) << "trsm";
      }
    }
  }
}

TEST_F(ParKernels, SpmvBitwiseAcrossThreadCounts) {
  const sparse::CsrMatrix a = sparse::laplace2d_9pt(113, 97);
  const Matrix xm = random_matrix(a.cols, 1, 9);
  const std::vector<double> x(xm.data().begin(), xm.data().end());

  std::vector<double> ref;
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
    sparse::spmv(a, x, y);
    if (ref.empty()) {
      ref = y;
    } else {
      EXPECT_EQ(ref, y) << "threads = " << t;
    }
  }
}

TEST_F(ParKernels, Blas1ReductionsBitwiseAcrossThreadCounts) {
  const Matrix a = random_matrix(kRows, 2, 11);
  const std::span<const double> x(a.col(0), static_cast<std::size_t>(kRows));
  const std::span<const double> y(a.col(1), static_cast<std::size_t>(kRows));

  par::set_num_threads(1);
  const double dot1 = dense::dot(x, y);
  const double nrm1 = dense::nrm2(x);
  const double sq1 = dense::sumsq(x);
  const double amax1 = dense::amax(x);
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    EXPECT_EQ(dot1, dense::dot(x, y)) << "threads = " << t;
    EXPECT_EQ(nrm1, dense::nrm2(x)) << "threads = " << t;
    EXPECT_EQ(sq1, dense::sumsq(x)) << "threads = " << t;
    EXPECT_EQ(amax1, dense::amax(x)) << "threads = " << t;
  }
}

TEST_F(ParKernels, RepeatedRunsAreBitwiseIdentical) {
  const Matrix a = random_matrix(kRows, 9, 12);
  const Matrix b = random_matrix(kRows, 9, 13);
  par::set_num_threads(std::max(2u, std::thread::hardware_concurrency()));
  Matrix first(9, 9);
  dense::gemm_tn(1.0, a.view(), b.view(), 0.0, first.view());
  for (int rep = 0; rep < 5; ++rep) {
    Matrix c(9, 9);
    dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c.view());
    expect_bitwise_equal(first, c);
  }
}

TEST_F(ParKernels, GemvBitwiseAcrossThreadCounts) {
  const Matrix a = random_matrix(kRows, 6, 14);
  const Matrix xm = random_matrix(6, 1, 15);
  const std::vector<double> x(xm.data().begin(), xm.data().end());

  std::vector<double> ref;
  for (const unsigned t : sweep_thread_counts()) {
    par::set_num_threads(t);
    std::vector<double> y(static_cast<std::size_t>(kRows), 0.5);
    dense::gemv(2.0, a.view(), x, -0.5, y);
    if (ref.empty()) {
      ref = y;
    } else {
      EXPECT_EQ(ref, y) << "threads = " << t;
    }
  }
}

TEST_F(ParKernels, EnvAndExplicitThreadCountPrecedence) {
  par::set_num_threads(3);
  EXPECT_EQ(par::num_threads(), 3u);
  ASSERT_EQ(setenv("TSBO_NUM_THREADS", "5", 1), 0);
  EXPECT_EQ(par::num_threads(), 3u);  // explicit setting wins until reset
  par::set_num_threads(0);            // re-resolve: env wins over hardware
  EXPECT_EQ(par::num_threads(), 5u);
  ASSERT_EQ(unsetenv("TSBO_NUM_THREADS"), 0);
  par::set_num_threads(0);
  EXPECT_GE(par::num_threads(), 1u);
}

// ---- ThreadPool stress -----------------------------------------------

TEST(ThreadPoolStress, EmptyRangeNeverInvokes) {
  par::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolStress, RangeSmallerThanChunkRunsInlineOnce) {
  par::ThreadPool pool(8);
  std::atomic<int> calls{0};
  std::atomic<long> covered{0};
  pool.parallel_for(5, [&](std::size_t b, std::size_t e) {
    calls.fetch_add(1);
    covered.fetch_add(static_cast<long>(e - b));
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(covered.load(), 5);
}

TEST(ThreadPoolStress, ExceptionPropagatesToCaller) {
  par::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100000,
                        [&](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            if (i == 31337) throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPoolStress, PoolSurvivesExceptionsAndStaysCorrect) {
  par::ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_THROW(pool.parallel_for(
                     50000, [&](std::size_t, std::size_t) {
                       throw std::runtime_error("every chunk throws");
                     }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(50000);
    pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    long total = 0;
    for (const auto& h : hits) total += h.load();
    EXPECT_EQ(total, 50000);
  }
}

TEST(ThreadPoolStress, GrainedHelpersHandleConcurrentCallers) {
  // Kernels invoked from many threads at once (the SPMD pattern) must
  // fall back to serial execution instead of corrupting the shared
  // pool, with identical results.
  par::set_parallel_grain(256);
  par::set_num_threads(4);
  const Matrix a = random_matrix(20000, 3, 21);
  const Matrix b = random_matrix(20000, 3, 22);
  Matrix expected(3, 3);
  dense::gemm_tn(1.0, a.view(), b.view(), 0.0, expected.view());

  std::vector<Matrix> results(8);
  std::vector<std::thread> callers;
  callers.reserve(results.size());
  for (auto& out : results) {
    callers.emplace_back([&a, &b, &out] {
      out = Matrix(3, 3);
      dense::gemm_tn(1.0, a.view(), b.view(), 0.0, out.view());
    });
  }
  for (auto& th : callers) th.join();
  for (const Matrix& c : results) expect_bitwise_equal(expected, c);
  par::set_num_threads(0);
  par::set_parallel_grain(0);
}

}  // namespace
