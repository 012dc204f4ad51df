// SIMD kernel layer: per-lane bit-equality of the vectorized EFT
// primitives against the scalar util/eft.hpp sequences, fixed-order
// horizontal reductions, remainder-loop edge cases (n not divisible by
// the lane width, n < lane width), bitwise thread-count parity for
// every vectorized kernel, the aligned-storage invariant of
// dense::Matrix / util::aligned_vector, and the dd kappa boundary
// re-pinned under the SIMD build.

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "dense/svd.hpp"
#include "ortho/intra.hpp"
#include "par/config.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "synth/synthetic.hpp"
#include "util/aligned.hpp"
#include "util/eft.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

constexpr std::size_t kW = simd::kLanes;

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

util::aligned_vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::aligned_vector<double> v(n, 0.0);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, v);
  return v;
}

// ---------------------------------------------------------------------------
// The layer itself: ISA dispatch, per-lane EFT equality, reductions.
// ---------------------------------------------------------------------------

TEST(Simd, IsaNameAndLaneWidthConsistent) {
  const std::string isa = simd::isa_name();
#if defined(TSBO_DISABLE_SIMD)
  EXPECT_EQ(isa, "scalar");
#endif
  if (isa == "avx512") {
    EXPECT_EQ(kW, 8u);
  } else if (isa == "avx2" || isa == "scalar") {
    EXPECT_EQ(kW, 4u);
  } else if (isa == "neon") {
    EXPECT_EQ(kW, 2u);
  } else {
    FAIL() << "unknown isa " << isa;
  }
}

TEST(Simd, VectorEftMatchesScalarPerLane) {
  // two_sum / quick_two_sum / two_prod are branch-free, so each vector
  // lane must reproduce the scalar EFT bit-for-bit — including the
  // correctly rounded FMA residual of two_prod.
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    double a[kW], b[kW];
    for (std::size_t l = 0; l < kW; ++l) {
      a[l] = rng.normal() * std::ldexp(1.0, static_cast<int>(l * 7) % 40);
      b[l] = rng.normal();
    }
    const simd::Vec va = simd::load(a);
    const simd::Vec vb = simd::load(b);

    const simd::VecDD ts = simd::vec_two_sum(va, vb);
    const simd::VecDD tp = simd::vec_two_prod(va, vb);
    double ts_hi[kW], ts_lo[kW], tp_hi[kW], tp_lo[kW];
    simd::store(ts_hi, ts.hi);
    simd::store(ts_lo, ts.lo);
    simd::store(tp_hi, tp.hi);
    simd::store(tp_lo, tp.lo);
    for (std::size_t l = 0; l < kW; ++l) {
      const eft::dd s = eft::two_sum(a[l], b[l]);
      const eft::dd p = eft::two_prod(a[l], b[l]);
      EXPECT_EQ(ts_hi[l], s.hi) << l;
      EXPECT_EQ(ts_lo[l], s.lo) << l;
      EXPECT_EQ(tp_hi[l], p.hi) << l;
      EXPECT_EQ(tp_lo[l], p.lo) << l;
    }
  }
}

TEST(Simd, DdAccumulationMatchesScalarPerLaneStride) {
  // Lane l of a vectorized dd product accumulation must equal the
  // scalar renormalized accumulation of the lane's strided subsequence
  // x[l], x[l + W], x[l + 2W], ... — the exact property that makes the
  // vectorized gemm_tn_dd a per-lane transcription of the scalar one.
  const std::size_t n = kW * 37;
  const auto x = random_vector(n, 21);
  const auto y = random_vector(n, 22);

  simd::VecDD acc = simd::dd_zero();
  for (std::size_t i = 0; i < n; i += kW) {
    simd::dd_add(acc,
                 simd::vec_two_prod(simd::load(x.data() + i),
                                    simd::load(y.data() + i)));
  }
  double hi[kW], lo[kW];
  simd::store(hi, acc.hi);
  simd::store(lo, acc.lo);

  for (std::size_t l = 0; l < kW; ++l) {
    eft::dd ref;
    for (std::size_t i = l; i < n; i += kW) {
      eft::dd_add(ref, eft::two_prod(x[i], y[i]));
    }
    EXPECT_EQ(hi[l], ref.hi) << l;
    EXPECT_EQ(lo[l], ref.lo) << l;
  }

  // The plain-Vec accumulate overload (dd sum of doubles) must equally
  // match eft::dd_add(dd&, double) per lane.
  simd::VecDD acc2 = simd::dd_zero();
  for (std::size_t i = 0; i < n; i += kW) {
    simd::dd_add(acc2, simd::load(x.data() + i));
  }
  simd::store(hi, acc2.hi);
  simd::store(lo, acc2.lo);
  for (std::size_t l = 0; l < kW; ++l) {
    eft::dd ref;
    for (std::size_t i = l; i < n; i += kW) eft::dd_add(ref, x[i]);
    EXPECT_EQ(hi[l], ref.hi) << l;
    EXPECT_EQ(lo[l], ref.lo) << l;
  }
}

TEST(Simd, ReduceAddIsFixedPairwiseOrder) {
  double lanes[kW];
  for (std::size_t l = 0; l < kW; ++l) {
    lanes[l] = std::ldexp(1.0, static_cast<int>(l) * 3) + 1.0 / (l + 1.0);
  }
  // Reference: the documented pairwise fold.
  double t[kW];
  std::memcpy(t, lanes, sizeof(t));
  for (std::size_t width = kW; width > 1; width /= 2) {
    for (std::size_t l = 0; l < width / 2; ++l) t[l] = t[2 * l] + t[2 * l + 1];
  }
  EXPECT_EQ(simd::reduce_add(simd::load(lanes)), t[0]);
}

TEST(Simd, ReduceDdFoldsLanesAscending) {
  simd::VecDD acc = simd::dd_zero();
  double hi[kW], lo[kW];
  for (std::size_t l = 0; l < kW; ++l) {
    hi[l] = std::ldexp(1.0, static_cast<int>(l * 13) % 30);
    lo[l] = hi[l] * 1e-18;
  }
  acc.hi = simd::load(hi);
  acc.lo = simd::load(lo);
  eft::dd ref{hi[0], lo[0]};
  for (std::size_t l = 1; l < kW; ++l) eft::dd_add(ref, eft::dd{hi[l], lo[l]});
  const eft::dd got = simd::reduce(acc);
  EXPECT_EQ(got.hi, ref.hi);
  EXPECT_EQ(got.lo, ref.lo);
}

TEST(Simd, PartialWidthTouchesExactlyWLanes) {
  // VecN<W> carries one row of a k-interleaved block operand: load_n
  // and store_n must move exactly W lanes (sentinels past W untouched,
  // -0.0 kept), and each lane of mul_add_n / mul_n must be the scalar
  // a * b + c / multiply of this build bit for bit, on every ISA build.
  constexpr std::size_t kPad = 16;
  const std::uint64_t sentinel = 0x7ff8'dead'beef'0001ULL;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  util::Xoshiro256 rng(5);
  for (std::size_t w = 1; w <= 8; ++w) {
    util::with_width<std::size_t{8}>(w, [&]<std::size_t W>() {
      SCOPED_TRACE(testing::Message() << "W=" << W);
      // Exactly W elements, so a read past lane W - 1 leaves the buffer.
      const double a = 1.0 + std::ldexp(1.0, -30);
      std::vector<double> src(W), b(W), c(W);
      util::fill_normal(rng, src);
      util::fill_normal(rng, b);
      // c = -(a*b rounded): a fused a*b + c leaves the product's rounding
      // error, mul + add leaves 0, so a lane fused differently from the
      // scalar expression shows.
      for (std::size_t l = 0; l < W; ++l) c[l] = -(a * b[l]);
      src[0] = -0.0;
      c[W - 1] = -0.0;
      std::vector<double> dst(kPad, std::bit_cast<double>(sentinel));
      simd::store_n<W>(dst.data(), simd::load_n<W>(src.data()));
      for (std::size_t l = 0; l < kPad; ++l) {
        ASSERT_EQ(bits(dst[l]), l < W ? bits(src[l]) : sentinel) << l;
      }

      std::vector<double> fma_out(kPad, std::bit_cast<double>(sentinel));
      std::vector<double> mul_out(fma_out);
      const simd::VecN<W> vb = simd::load_n<W>(b.data());
      simd::store_n<W>(fma_out.data(), simd::mul_add_n<W>(
                                           a, vb, simd::load_n<W>(c.data())));
      // mul_n on another operand: a product shared with the FMA above
      // would keep the compiler from fusing the FMA.
      simd::store_n<W>(mul_out.data(),
                       simd::mul_n<W>(simd::load_n<W>(src.data()), a));
      std::vector<double> zeros(W, std::bit_cast<double>(sentinel));
      simd::store_n<W>(zeros.data(), simd::zero_n<W>());
      for (std::size_t l = 0; l < kPad; ++l) {
        if (l >= W) {
          ASSERT_EQ(bits(fma_out[l]), sentinel) << l;
          ASSERT_EQ(bits(mul_out[l]), sentinel) << l;
          continue;
        }
        ASSERT_EQ(bits(fma_out[l]), bits(a * b[l] + c[l])) << l;
        ASSERT_EQ(bits(mul_out[l]), bits(src[l] * a)) << l;
        ASSERT_EQ(bits(zeros[l]), bits(0.0)) << l;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Remainder-loop edge cases: n not divisible by the lane width, and
// n < lane width, for the vectorized kernels.
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotRemainderEdgeCases) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kW - 1, kW, kW + 1, 2 * kW + 3,
        4 * kW + 1, std::size_t{4096} + kW + 3}) {
    const auto x = random_vector(n, 100 + n);
    const auto y = random_vector(n, 200 + n);
    long double ref = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
      ref += static_cast<long double>(x[i]) * static_cast<long double>(y[i]);
    }
    const double got = dense::dot(x, y);
    EXPECT_NEAR(got, static_cast<double>(ref),
                1e-12 * (1.0 + std::abs(static_cast<double>(ref))))
        << n;
  }
}

TEST(SimdKernels, DotDdRemainderEdgeCases) {
  // The dd dot (an n x 1 by n x 1 gemm_tn_dd, as block_dot runs it) is
  // exact to ~n * u_dd, so a long-double reference must agree to its
  // own precision (~1e-19 relative).  The lengths straddle the vector
  // width and, past 256, the kernel's row-tile boundary.
  for (const std::size_t n :
       {std::size_t{1}, kW - 1, kW, kW + 1, 2 * kW + 1, 3 * kW - 1,
        std::size_t{256} + kW + 1}) {
    const auto x = random_vector(n, 300 + n);
    const auto y = random_vector(n, 400 + n);
    long double ref = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
      ref += static_cast<long double>(x[i]) * static_cast<long double>(y[i]);
    }
    const auto rows = static_cast<index_t>(n);
    double got = 0.0;
    dense::gemm_tn_dd(dense::ConstMatrixView{x.data(), rows, 1, rows},
                      dense::ConstMatrixView{y.data(), rows, 1, rows},
                      dense::MatrixView{&got, 1, 1, 1});
    EXPECT_NEAR(got, static_cast<double>(ref),
                1e-15 * (1.0 + std::abs(static_cast<double>(ref))))
        << n;
  }
}

TEST(SimdKernels, GemmSmallerThanLaneWidth) {
  // m < kW exercises the pure-tail path of every GEMM inner loop.
  const auto m = static_cast<index_t>(kW - 1);
  const Matrix a = random_matrix(m, 3, 31);
  const Matrix b = random_matrix(m, 2, 32);
  Matrix c(3, 2);
  dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      long double ref = 0.0L;
      for (index_t r = 0; r < m; ++r) {
        ref += static_cast<long double>(a(r, i)) *
               static_cast<long double>(b(r, j));
      }
      EXPECT_NEAR(c(i, j), static_cast<double>(ref), 1e-13) << i << "," << j;
    }
  }

  Matrix q = random_matrix(m, 2, 33);
  const Matrix r2 = random_matrix(2, 2, 34);
  Matrix v = random_matrix(m, 2, 35);
  const Matrix v0 = dense::copy_of(v.view());
  dense::gemm_nn(-1.0, q.view(), r2.view(), 1.0, v.view());
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < m; ++i) {
      long double ref = v0(i, j);
      for (index_t l = 0; l < 2; ++l) {
        ref -= static_cast<long double>(q(i, l)) *
               static_cast<long double>(r2(l, j));
      }
      EXPECT_NEAR(v(i, j), static_cast<double>(ref), 1e-13) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise thread-count parity for every vectorized kernel.
// ---------------------------------------------------------------------------

/// Restores the global threading config after each test, and lowers the
/// dispatch grain so modest test sizes actually cross the threshold.
class SimdParKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_grain_ = par::parallel_grain();
    par::set_parallel_grain(512);
  }
  void TearDown() override {
    par::set_num_threads(0);
    par::set_parallel_grain(saved_grain_);
  }

  static std::vector<unsigned> sweep() {
    return {1u, 2u, 7u, std::max(1u, std::thread::hardware_concurrency())};
  }

 private:
  std::size_t saved_grain_ = 0;
};

TEST_F(SimdParKernels, Blas1BitwiseAcrossThreadCounts) {
  // Several reduction chunks plus a ragged tail.
  const std::size_t n = 3 * 4096 + 2 * kW + 5;
  const auto x = random_vector(n, 41);
  const auto y = random_vector(n, 42);

  struct Ref {
    double dot, sumsq, nrm2, amax;
    util::aligned_vector<double> axpy, scal;
  } ref{};
  for (const unsigned t : sweep()) {
    par::set_num_threads(t);
    const double d = dense::dot(x, y);
    const double s = dense::sumsq(x);
    const double nr = dense::nrm2(x);
    const double am = dense::amax(x);
    util::aligned_vector<double> ya(y);
    dense::axpy(0.37, x, ya);
    util::aligned_vector<double> xs(x);
    dense::scal(1.0 / 3.0, xs);
    if (t == 1u) {
      ref = {d, s, nr, am, ya, xs};
      continue;
    }
    EXPECT_EQ(d, ref.dot) << t;
    EXPECT_EQ(s, ref.sumsq) << t;
    EXPECT_EQ(nr, ref.nrm2) << t;
    EXPECT_EQ(am, ref.amax) << t;
    ASSERT_TRUE(ya == ref.axpy) << t;
    ASSERT_TRUE(xs == ref.scal) << t;
  }
}

TEST_F(SimdParKernels, Blas3BitwiseAcrossThreadCounts) {
  const index_t m = 2 * 4096 + 517;
  const index_t p = 7, nn = 5;
  const Matrix a = random_matrix(m, p, 51);
  const Matrix b = random_matrix(m, nn, 52);
  const Matrix small = random_matrix(p, nn, 53);
  Matrix u = random_matrix(nn, nn, 54);
  for (index_t j = 0; j < nn; ++j) u(j, j) = 4.0 + j;  // well-conditioned

  Matrix tn_ref, nn_ref, nt_ref, tr_ref;
  double fro_ref = 0.0;
  for (const unsigned t : sweep()) {
    par::set_num_threads(t);
    Matrix tn(p, nn);
    dense::gemm_tn(1.0, a.view(), b.view(), 0.0, tn.view());
    Matrix vnn = dense::copy_of(b.view());
    dense::gemm_nn(-1.0, a.view(), small.view(), 1.0, vnn.view());
    Matrix vnt = dense::copy_of(a.view());
    dense::gemm_nt(0.5, b.view(), small.view(), 1.0, vnt.view());
    Matrix vtr = dense::copy_of(b.view());
    dense::trsm_right_upper(u.view(), vtr.view());
    const double fro = dense::frobenius_norm(a.view());
    if (t == 1u) {
      tn_ref = std::move(tn);
      nn_ref = std::move(vnn);
      nt_ref = std::move(vnt);
      tr_ref = std::move(vtr);
      fro_ref = fro;
      continue;
    }
    EXPECT_EQ(dense::max_abs_diff(tn.view(), tn_ref.view()), 0.0) << t;
    EXPECT_EQ(dense::max_abs_diff(vnn.view(), nn_ref.view()), 0.0) << t;
    EXPECT_EQ(dense::max_abs_diff(vnt.view(), nt_ref.view()), 0.0) << t;
    EXPECT_EQ(dense::max_abs_diff(vtr.view(), tr_ref.view()), 0.0) << t;
    EXPECT_EQ(fro, fro_ref) << t;
  }
}

TEST_F(SimdParKernels, GemmTnDdBitwiseAcrossThreadCounts) {
  const index_t m = 4096 + 2 * static_cast<index_t>(kW) + 3;
  const Matrix a = random_matrix(m, 5, 61);
  const Matrix b = random_matrix(m, 4, 62);
  Matrix ref_hi, ref_lo;
  for (const unsigned t : sweep()) {
    par::set_num_threads(t);
    Matrix hi(5, 4), lo(5, 4);
    dense::gemm_tn_dd(a.view(), b.view(), hi.view(), lo.view());
    if (t == 1u) {
      ref_hi = std::move(hi);
      ref_lo = std::move(lo);
      continue;
    }
    EXPECT_EQ(dense::max_abs_diff(hi.view(), ref_hi.view()), 0.0) << t;
    EXPECT_EQ(dense::max_abs_diff(lo.view(), ref_lo.view()), 0.0) << t;
  }
}

TEST_F(SimdParKernels, SpmvBitwiseAcrossThreadCountsBothRowPaths) {
  // 9-pt stencil rows take the short-row scalar path; a few dense rows
  // (>= 4 * kW nnz) exercise the gather-vectorized path.
  sparse::CsrMatrix a = sparse::laplace2d_9pt(37, 41);
  {
    std::vector<sparse::Triplet> t;
    const sparse::ord n = a.rows;
    for (sparse::ord i = 0; i < n; ++i) {
      for (sparse::offset k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        t.push_back({i, a.col_idx[static_cast<std::size_t>(k)],
                     a.values[static_cast<std::size_t>(k)]});
      }
    }
    for (sparse::ord i = 0; i < 3; ++i) {  // three wide rows
      for (sparse::ord j = 0; j < n; j += 2) {
        t.push_back({i, j, sparse::hash01(static_cast<std::uint64_t>(i) * n + j,
                                          9) -
                               0.5});
      }
    }
    a = sparse::csr_from_triplets(n, n, std::move(t));
    ASSERT_GE(a.row_ptr[1] - a.row_ptr[0],
              static_cast<sparse::offset>(4 * kW));
  }
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 71);

  util::aligned_vector<double> ref;
  for (const unsigned t : sweep()) {
    par::set_num_threads(t);
    util::aligned_vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
    sparse::spmv(a, x, y);
    if (t == 1u) {
      ref = y;
      continue;
    }
    ASSERT_TRUE(y == ref) << t;
  }
}

TEST_F(SimdParKernels, GeneratorsBitwiseAcrossThreadCounts) {
  // The two-pass row builder computes each row from its index alone, so
  // every generator must assemble identical CSR arrays at any thread
  // count.
  const auto build = [] {
    std::vector<sparse::CsrMatrix> ms;
    ms.push_back(sparse::laplace2d_9pt(23, 19));
    ms.push_back(sparse::laplace3d_27pt(7, 6, 5));
    ms.push_back(sparse::convection_diffusion3d(8, 7, 6, 0.3, -0.2, 0.1));
    ms.push_back(sparse::elasticity3d(5, 4, 3, true, 0.4));
    ms.push_back(sparse::heterogeneous2d(21, 17, true, 4.0, 7));
    ms.push_back(sparse::anisotropic3d(9, 8, 7, 0.1, 0.01));
    sparse::CsrMatrix sp = sparse::laplace2d_5pt(31, 29);
    sparse::apply_diagonal_spread(sp, 3.0, 13);
    ms.push_back(std::move(sp));
    return ms;
  };
  par::set_num_threads(1);
  const auto ref = build();
  for (const unsigned t : {2u, 7u}) {
    par::set_num_threads(t);
    const auto got = build();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(got[i].row_ptr == ref[i].row_ptr) << t << " #" << i;
      EXPECT_TRUE(got[i].col_idx == ref[i].col_idx) << t << " #" << i;
      EXPECT_TRUE(got[i].values == ref[i].values) << t << " #" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Aligned storage invariant.
// ---------------------------------------------------------------------------

TEST(AlignedStorage, MatrixIsCacheLineAlignedThroughCopyAndMove) {
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % util::kBufferAlign == 0;
  };
  Matrix m = random_matrix(123, 7, 81);
  EXPECT_TRUE(aligned(m.data().data()));

  Matrix copy = dense::copy_of(m.view());
  EXPECT_TRUE(aligned(copy.data().data()));
  EXPECT_EQ(dense::max_abs_diff(copy.view(), m.view()), 0.0);

  Matrix assigned;
  assigned = copy;  // copy-assign
  EXPECT_TRUE(aligned(assigned.data().data()));

  const Matrix moved = std::move(copy);
  EXPECT_TRUE(aligned(moved.data().data()));
  EXPECT_EQ(dense::max_abs_diff(moved.view(), m.view()), 0.0);

  util::aligned_vector<double> v(1000, 1.0);
  EXPECT_TRUE(aligned(v.data()));
  util::aligned_vector<double> v2 = v;
  EXPECT_TRUE(aligned(v2.data()));
  const util::aligned_vector<double> v3 = std::move(v2);
  EXPECT_TRUE(aligned(v3.data()));
}

// ---------------------------------------------------------------------------
// The dd kappa boundary, re-pinned under the SIMD build: the vectorized
// pair-form Gram + dd Cholesky must still deliver O(eps) orthogonality
// decades past the double cliff (mirrors tests/test_dd.cpp's sweep).
// ---------------------------------------------------------------------------

TEST(SimdDd, CholQr2KappaBoundaryRepinned) {
  const index_t n = 1500, s = 5;
  for (const double kappa : {3e9, 1e11, 1e12}) {
    Matrix v = synth::logscaled(n, s, kappa, 53);
    Matrix r(s, s);
    ortho::OrthoContext ctx;
    ctx.mixed_precision_gram = true;
    ctx.policy = ortho::BreakdownPolicy::kThrow;
    ASSERT_NO_THROW(ortho::cholqr2(ctx, v.view(), r.view())) << kappa;
    EXPECT_LT(dense::orthogonality_error(v.view()), 1e-11) << kappa;
    EXPECT_EQ(ctx.cholesky_breakdowns, 0) << kappa;
  }
}

}  // namespace
