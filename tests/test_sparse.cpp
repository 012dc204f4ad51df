// CSR assembly, SpMV, transpose, scaling, MatrixMarket I/O.

#include "par/config.hpp"
#include "par/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

namespace {

using namespace tsbo;
using sparse::CsrMatrix;
using sparse::ord;
using sparse::Triplet;

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [ 0  3  1 ]
  // [ 4  0  5 ]
  return sparse::csr_from_triplets(
      3, 3,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 1, 3.0}, {1, 2, 1.0}, {2, 0, 4.0}, {2, 2, 5.0}});
}

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  const auto m = sparse::csr_from_triplets(
      2, 2, {{1, 1, 1.0}, {0, 0, 2.0}, {1, 1, 3.0}, {0, 1, -1.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  // Column indices strictly increasing within rows.
  for (ord i = 0; i < m.rows; ++i) {
    for (auto k = m.row_ptr[i] + 1; k < m.row_ptr[i + 1]; ++k) {
      EXPECT_LT(m.col_idx[static_cast<std::size_t>(k - 1)],
                m.col_idx[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Csr, EmptyRowsGetValidPointers) {
  const auto m = sparse::csr_from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 1.0}});
  EXPECT_EQ(m.row_ptr[1], 1);
  EXPECT_EQ(m.row_ptr[2], 1);
  EXPECT_EQ(m.row_ptr[3], 1);
  EXPECT_EQ(m.nnz(), 2);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(sparse::csr_from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  const auto m = small_matrix();
  const auto tt = sparse::transpose(sparse::transpose(m));
  EXPECT_TRUE(sparse::approx_equal(m, tt, 0.0));
  const auto t = sparse::transpose(m);
  EXPECT_DOUBLE_EQ(t.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), -1.0);
}

TEST(Csr, ExtractRowsKeepsGlobalColumns) {
  const auto m = small_matrix();
  const auto sub = sparse::extract_rows(m, 1, 3);
  EXPECT_EQ(sub.rows, 2);
  EXPECT_EQ(sub.cols, 3);
  EXPECT_DOUBLE_EQ(sub.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 4.0);
}

TEST(Spmv, MatchesDenseProduct) {
  const auto m = small_matrix();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  sparse::spmv(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  EXPECT_DOUBLE_EQ(y[2], 19.0);
}

TEST(Spmv, RowRangeSlices) {
  const auto m = small_matrix();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3, -7.0);
  sparse::spmv_rows(m, 1, 2, x, y);
  EXPECT_DOUBLE_EQ(y[0], -7.0);  // untouched
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  EXPECT_DOUBLE_EQ(y[2], -7.0);
}

TEST(Scaling, MaxEquilibrationNormalizesRows) {
  auto m = small_matrix();
  const auto scales = sparse::equilibrate_max(m);
  // After column-then-row max scaling every row's max |entry| is 1.
  const auto rmax = sparse::row_max_abs(m);
  for (const double v : rmax) EXPECT_NEAR(v, 1.0, 1e-15);
  // All entries bounded by 1 in magnitude.
  for (const double v : m.values) EXPECT_LE(std::abs(v), 1.0 + 1e-15);
  EXPECT_EQ(scales.col_scale.size(), 3u);
  EXPECT_EQ(scales.row_scale.size(), 3u);
}

TEST(Scaling, ReconstructsOriginal) {
  auto m = small_matrix();
  const auto orig = m;
  const auto s = sparse::equilibrate_max(m);
  // A = diag(row_scale) * A_scaled * diag(col_scale)
  for (ord i = 0; i < m.rows; ++i) {
    for (auto k = m.row_ptr[i]; k < m.row_ptr[i + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const double rebuilt = m.values[kk] *
                             s.row_scale[static_cast<std::size_t>(i)] *
                             s.col_scale[static_cast<std::size_t>(m.col_idx[kk])];
      EXPECT_NEAR(rebuilt, orig.values[kk], 1e-14);
    }
  }
}

TEST(MatrixMarket, RoundTripGeneral) {
  const auto m = small_matrix();
  std::stringstream ss;
  sparse::write_matrix_market(ss, m);
  const auto back = sparse::read_matrix_market(ss);
  EXPECT_TRUE(sparse::approx_equal(m, back, 1e-15));
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% a comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n2 1 -1.0\n3 3 5.0\n3 2 0.5\n";
  const auto m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 6);  // two off-diagonals mirrored
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.5);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
  EXPECT_THROW(sparse::read_matrix_market(ss), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(sparse::read_matrix_market(empty), std::runtime_error);
}


/// spmm_rows_mapped as it stood with a runtime column count: 16-column
/// chunks into a stack accumulator, each column summed in ascending nnz
/// order.  The bitwise reference for the compile-time-width kernel.
void spmm_reference(const CsrMatrix& a, const std::vector<ord>& rows,
                    const double* xk, ord k, double* y, std::size_t ldy) {
  constexpr ord kColChunk = 16;
  double acc[kColChunk];
  for (ord t0 = 0; t0 < k; t0 += kColChunk) {
    const ord tn = std::min<ord>(kColChunk, k - t0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (ord t = 0; t < tn; ++t) acc[t] = 0.0;
      for (auto kk = a.row_ptr[i]; kk < a.row_ptr[i + 1]; ++kk) {
        const auto e = static_cast<std::size_t>(kk);
        const double* xrow = xk +
                             static_cast<std::size_t>(a.col_idx[e]) *
                                 static_cast<std::size_t>(k) +
                             t0;
        const double akk = a.values[e];
        for (ord t = 0; t < tn; ++t) acc[t] += akk * xrow[t];
      }
      const auto row = static_cast<std::size_t>(rows[i]);
      for (ord t = 0; t < tn; ++t) {
        y[(static_cast<std::size_t>(t0) + t) * ldy + row] = acc[t];
      }
    }
  }
}

TEST(Spmv, SpmmMatchesRuntimeWidthReferenceBitwise) {
  // Every column count k = 1..17 (each chunk width and tail) through a
  // scattered row map into padded (ldy > rows) output, at rank-pool
  // lanes {1, 2, 7}: each output column keeps the runtime-width
  // kernel's bits, and rows outside the map and the padding stay
  // untouched.
  const std::size_t saved_grain = par::parallel_grain();
  par::set_parallel_grain(64);
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 7u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
  }
  // A 27-point stencil and an irregular matrix with 1..40 nnz rows.
  std::vector<Triplet> irregular;
  util::Xoshiro256 rng(3);
  const ord n_irr = 700;
  for (ord i = 0; i < n_irr; ++i) {
    const int len = 1 + static_cast<int>(rng.next() % 40);
    for (int e = 0; e < len; ++e) {
      irregular.push_back({i, static_cast<ord>(rng.next() % n_irr),
                           rng.normal()});
    }
  }
  const CsrMatrix mats[] = {
      sparse::laplace3d_27pt(10, 10, 10),
      sparse::csr_from_triplets(n_irr, n_irr, irregular)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const CsrMatrix& a : mats) {
    // Every third output row is skipped; the others are reversed.
    const auto out_rows = static_cast<std::size_t>(a.rows) * 3 / 2 + 1;
    std::vector<ord> rows(static_cast<std::size_t>(a.rows));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t j = rows.size() - 1 - i;
      rows[i] = static_cast<ord>(j + j / 2);
    }
    const std::size_t ldy = out_rows + 3;
    for (ord k = 1; k <= 17; ++k) {
      std::vector<double> xk(static_cast<std::size_t>(a.cols) *
                             static_cast<std::size_t>(k));
      util::fill_normal(rng, xk);
      for (std::size_t e = 0; e < xk.size(); e += 5) xk[e] = -0.0;
      std::vector<double> want(ldy * static_cast<std::size_t>(k), nan);
      spmm_reference(a, rows, xk.data(), k, want.data(), ldy);
      for (const auto& pool : pools) {
        const par::ScopedRankPool scope(*pool);
        std::vector<double> got(want.size(), nan);
        sparse::spmm_rows_mapped(a, rows, xk.data(), k, got.data(), ldy);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "rows=" << a.rows << " k=" << k
            << " lanes=" << pool->size() + 1;
      }
    }
  }
  par::set_parallel_grain(saved_grain);
}

}  // namespace
