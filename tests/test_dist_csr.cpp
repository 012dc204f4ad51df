// Distributed CSR: partition, halo exchange, distributed SpMV.

#include "par/config.hpp"
#include "par/spmd.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "sparse/suitesparse_like.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

namespace {

using namespace tsbo;
using sparse::ord;

TEST(RowPartition, OwnersAreConsistent) {
  const sparse::RowPartition p(100, 7);
  EXPECT_EQ(p.nranks(), 7);
  ord total = 0;
  for (int r = 0; r < 7; ++r) {
    total += p.local_rows(r);
    for (ord row = p.begin(r); row < p.end(r); ++row) {
      EXPECT_EQ(p.owner(row), r);
    }
  }
  EXPECT_EQ(total, 100);
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(99), 6);
}

class DistSpmvRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistSpmvRanks, MatchesSequentialOnLaplace) {
  const int p = GetParam();
  const auto a = sparse::laplace2d_9pt(23, 17);
  std::vector<double> x(static_cast<std::size_t>(a.rows));
  util::Xoshiro256 rng(5);
  util::fill_normal(rng, x);
  std::vector<double> y_ref(static_cast<std::size_t>(a.rows));
  sparse::spmv(a, x, y_ref);

  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  par::spmd_run(p, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> y_local(nloc);
    dist.spmv(comm, std::span<const double>(x.data() + begin, nloc), y_local);
    std::copy(y_local.begin(), y_local.end(), y.begin() + static_cast<std::ptrdiff_t>(begin));
  });

  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-12) << "row " << i;
  }
}

TEST_P(DistSpmvRanks, MatchesSequentialOnWideStencil) {
  // 27-pt stencil: ghosts span whole planes; elasticity: 3 dofs/node.
  const int p = GetParam();
  for (const bool elastic : {false, true}) {
    const auto a = elastic ? sparse::elasticity3d(5, 5, 5, true, 0.3)
                           : sparse::laplace3d_27pt(6, 6, 6);
    std::vector<double> x(static_cast<std::size_t>(a.rows));
    util::Xoshiro256 rng(11);
    util::fill_normal(rng, x);
    std::vector<double> y_ref(static_cast<std::size_t>(a.rows));
    sparse::spmv(a, x, y_ref);

    std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
    par::spmd_run(p, [&](par::Communicator& comm) {
      const sparse::RowPartition part(a.rows, comm.size());
      const sparse::DistCsr dist(a, part, comm.rank());
      const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
      const auto nloc = static_cast<std::size_t>(dist.n_local());
      std::vector<double> y_local(nloc);
      dist.spmv(comm, std::span<const double>(x.data() + begin, nloc), y_local);
      std::copy(y_local.begin(), y_local.end(),
                y.begin() + static_cast<std::ptrdiff_t>(begin));
    });
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y[i], y_ref[i], 1e-11) << (elastic ? "elastic" : "27pt") << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSpmvRanks, ::testing::Values(1, 2, 3, 4, 6));

TEST(DistCsr, GhostCountMatchesStencilOverlap) {
  // 1-D block rows of a 2-D 5-pt grid: each interior rank needs one
  // row-strip (nx values) from each side.
  const ord nx = 16, ny = 12;
  const auto a = sparse::laplace2d_5pt(nx, ny);
  par::spmd_run(4, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const int r = comm.rank();
    const ord expected = (r == 0 || r == 3) ? nx : 2 * nx;
    EXPECT_EQ(dist.n_ghost(), expected) << "rank " << r;
  });
}

TEST(DistCsr, RepeatedSpmvReusesBuffers) {
  const auto a = sparse::laplace2d_5pt(20, 20);
  par::spmd_run(3, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 1.0), y(nloc);
    for (int rep = 0; rep < 5; ++rep) {
      dist.spmv(comm, x, y);
      // Laplacian times constant vector: zero in grid interior rows.
      // Just verify it's finite and consistent across reps.
      for (const double v : y) EXPECT_TRUE(std::isfinite(v));
    }
  });
}

TEST(DistCsr, P2pRoundsCounted) {
  const auto a = sparse::laplace2d_5pt(12, 12);
  par::spmd_run(2, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    comm.reset_stats();
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 1.0), y(nloc);
    dist.spmv(comm, x, y);
    dist.spmv(comm, x, y);
    EXPECT_EQ(comm.stats().p2p_rounds, 2u);
    EXPECT_EQ(comm.stats().allreduces, 0u);  // SpMV is reduce-free
  });
}

// ---- interior/boundary split ----------------------------------------

class SplitParityRanks : public ::testing::TestWithParam<int> {};

TEST_P(SplitParityRanks, SplitApplyBitwiseEqualsUnsplitReference) {
  // The acceptance bar: the interior/boundary-split apply must be
  // BITWISE identical to the unsplit sequential product of the global
  // matrix (per-row accumulation order is unchanged by partitioning).
  const int p = GetParam();
  for (const unsigned threads : {1u, 2u, 7u}) {
    par::set_num_threads(threads);
    const auto a = sparse::laplace2d_9pt(23, 17);
    std::vector<double> x(static_cast<std::size_t>(a.rows));
    util::Xoshiro256 rng(29);
    util::fill_normal(rng, x);
    std::vector<double> y_seq(static_cast<std::size_t>(a.rows));
    sparse::spmv(a, x, y_seq);

    par::spmd_run(p, [&](par::Communicator& comm) {
      const sparse::RowPartition part(a.rows, comm.size());
      const sparse::DistCsr dist(a, part, comm.rank());
      const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
      const auto nloc = static_cast<std::size_t>(dist.n_local());
      const std::span<const double> x_local(x.data() + begin, nloc);

      std::vector<double> y_split(nloc, 0.0);
      dist.spmv(comm, x_local, y_split);

      for (std::size_t i = 0; i < nloc; ++i) {
        // EXPECT_EQ on doubles: bit-for-bit (no NaNs in this product).
        EXPECT_EQ(y_split[i], y_seq[begin + i])
            << "rank " << comm.rank() << " row " << i << " threads " << threads;
      }
      // Split covers every local row exactly once, with the global
      // row's entries in CSR order (columns remapped to local slots).
      EXPECT_EQ(dist.interior_rows().size() + dist.boundary_rows().size(),
                nloc);
      std::vector<int> visits(nloc, 0);
      dist.for_each_local_row([&](sparse::ord i,
                                  std::span<const sparse::ord> cols,
                                  std::span<const double> vals) {
        visits[static_cast<std::size_t>(i)] += 1;
        const sparse::ord g = dist.row_begin() + i;
        const auto rb = static_cast<std::size_t>(a.row_ptr[g]);
        ASSERT_EQ(cols.size(), static_cast<std::size_t>(a.row_ptr[g + 1]) - rb);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          EXPECT_EQ(vals[k], a.values[rb + k]);
          const sparse::ord c = a.col_idx[rb + k] - dist.row_begin();
          if (c >= 0 && c < dist.n_local()) EXPECT_EQ(cols[k], c);
          else EXPECT_GE(cols[k], dist.n_local());
        }
      });
      EXPECT_EQ(std::count(visits.begin(), visits.end(), 1),
                static_cast<std::ptrdiff_t>(nloc));
      EXPECT_EQ(dist.nnz_local(), a.row_ptr[dist.row_begin() + dist.n_local()] -
                                      a.row_ptr[dist.row_begin()]);
    });
  }
  par::set_num_threads(0);  // restore default resolution
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SplitParityRanks,
                         ::testing::Values(1, 2, 7));

TEST(DistCsr, EmptyBoundaryPartition) {
  // Block-diagonal matrix: no rank needs ghosts, every row is interior;
  // the exchange round still runs (it is collective) but moves 0 bytes.
  const sparse::ord n = 24;
  std::vector<sparse::Triplet> t;
  for (sparse::ord i = 0; i < n; ++i) t.push_back({i, i, 2.0 + i});
  const auto a = sparse::csr_from_triplets(n, n, std::move(t));
  par::spmd_run(3, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    EXPECT_EQ(dist.n_ghost(), 0);
    EXPECT_EQ(dist.boundary_rows().size(), 0u);
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 1.0), y(nloc, -1.0);
    comm.reset_stats();
    dist.spmv(comm, x, y);
    EXPECT_EQ(comm.stats().p2p_rounds, 1u);
    EXPECT_EQ(comm.stats().bytes_exchanged, 0u);
    const auto begin = part.begin(comm.rank());
    for (std::size_t i = 0; i < nloc; ++i) {
      EXPECT_DOUBLE_EQ(y[i], 2.0 + begin + static_cast<sparse::ord>(i));
    }
  });
}

TEST(DistCsr, EmptyInteriorPartition) {
  // Every row touches both global corners, so on 2 ranks every row of
  // both ranks holds an off-rank column: the interior block is empty.
  const sparse::ord n = 16;
  std::vector<sparse::Triplet> t;
  for (sparse::ord i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0});
    t.push_back({i, 0, 1.0});
    t.push_back({i, n - 1, 1.0});
  }
  const auto a = sparse::csr_from_triplets(n, n, std::move(t));
  std::vector<double> x(static_cast<std::size_t>(n));
  util::Xoshiro256 rng(31);
  util::fill_normal(rng, x);
  std::vector<double> y_ref(static_cast<std::size_t>(n));
  sparse::spmv(a, x, y_ref);

  par::spmd_run(2, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    EXPECT_EQ(dist.interior_rows().size(), 0u);
    EXPECT_EQ(dist.boundary_rows().size(),
              static_cast<std::size_t>(dist.n_local()));
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> y(nloc);
    dist.spmv(comm, std::span<const double>(x.data() + begin, nloc), y);
    for (std::size_t i = 0; i < nloc; ++i) {
      EXPECT_EQ(y[i], y_ref[begin + i]) << "row " << i;
    }
  });
}

TEST(DistCsr, LocalDiagonalBlockMatchesGhostFilter) {
  // local_diagonal_block() (built from the split) must equal the plain
  // every-row filter of the global matrix to the rank's diagonal block.
  const auto a = sparse::laplace2d_5pt(14, 11);
  par::spmd_run(3, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const sparse::ord begin = dist.row_begin();
    const sparse::ord n = dist.n_local();
    std::vector<sparse::Triplet> t;
    for (sparse::ord i = 0; i < n; ++i) {
      for (sparse::offset k = a.row_ptr[begin + i];
           k < a.row_ptr[begin + i + 1]; ++k) {
        const sparse::ord j = a.col_idx[static_cast<std::size_t>(k)] - begin;
        if (j >= 0 && j < n) {
          t.push_back({i, j, a.values[static_cast<std::size_t>(k)]});
        }
      }
    }
    const auto expect = sparse::csr_from_triplets(n, n, std::move(t));
    const auto got = dist.local_diagonal_block();
    ASSERT_EQ(got.rows, expect.rows);
    ASSERT_EQ(got.nnz(), expect.nnz());
    EXPECT_TRUE(std::equal(got.row_ptr.begin(), got.row_ptr.end(),
                           expect.row_ptr.begin()));
    EXPECT_TRUE(std::equal(got.col_idx.begin(), got.col_idx.end(),
                           expect.col_idx.begin()));
    EXPECT_TRUE(std::equal(got.values.begin(), got.values.end(),
                           expect.values.begin()));
  });
}

/// The triplet path local_diagonal_block() used to take: every owned
/// entry as a triplet, sorted and summed by csr_from_triplets.
sparse::CsrMatrix triplet_diagonal_block(const sparse::DistCsr& dist) {
  const sparse::ord n = dist.n_local();
  std::vector<sparse::Triplet> t;
  dist.for_each_local_row([&](sparse::ord i, std::span<const sparse::ord> cols,
                              std::span<const double> vals) {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] < n) t.push_back({i, cols[k], vals[k]});
    }
  });
  return sparse::csr_from_triplets(n, n, std::move(t));
}

template <class V>
bool same_bytes(const V& a, const V& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

TEST(DistCsr, LocalDiagonalBlockMatchesTripletReference) {
  // The count/scan/copy build must be byte-identical to the sorted
  // triplet build: stencils whose boundary rows precede the interior
  // ones in row order, a wide-row surrogate, an explicit -0.0 (stored
  // as +0.0 by both), and rows whose only entries are ghost columns.
  sparse::CsrMatrix neg_zero = sparse::laplace2d_5pt(9, 7);
  for (std::size_t k = 0; k < neg_zero.values.size(); k += 5) {
    neg_zero.values[k] = -0.0;
  }
  std::vector<sparse::Triplet> t;
  const sparse::ord n = 10;
  for (sparse::ord i = 1; i + 1 < n; ++i) t.push_back({i, i, 2.0});
  t.push_back({0, n - 1, 1.0});  // rows 0 and n-1 touch only the far end
  t.push_back({n - 1, 0, 1.0});
  const sparse::CsrMatrix ghost_only = sparse::csr_from_triplets(n, n, t);
  const std::vector<sparse::CsrMatrix> mats = {
      sparse::laplace3d_27pt(9, 8, 7), sparse::laplace2d_9pt(23, 17),
      sparse::make_surrogate("ML_Geer", 3000).matrix, neg_zero, ghost_only};
  for (std::size_t mi = 0; mi < mats.size(); ++mi) {
    const sparse::CsrMatrix& a = mats[mi];
    for (const int ranks : {1, 2, 3, 7}) {
      par::spmd_run(ranks, [&](par::Communicator& comm) {
        const sparse::RowPartition part(a.rows, comm.size());
        const sparse::DistCsr dist(a, part, comm.rank());
        const auto expect = triplet_diagonal_block(dist);
        const auto got = dist.local_diagonal_block();
        EXPECT_EQ(got.rows, expect.rows);
        EXPECT_EQ(got.cols, expect.cols);
        EXPECT_TRUE(same_bytes(got.row_ptr, expect.row_ptr) &&
                    same_bytes(got.col_idx, expect.col_idx) &&
                    same_bytes(got.values, expect.values))
            << "matrix " << mi << " ranks=" << ranks
            << " rank=" << comm.rank();
      });
    }
  }
}

TEST(DistCsr, SpmmAnyWidthMatchesSerialColumns) {
  // One split-phase apply serves every width: k = 1 must reproduce the
  // global serial spmv bit for bit (gather-vectorized wide rows
  // included), and every column of a wider product must equal a plain
  // serial per-row sum over the global matrix.  A small parallel grain
  // makes the rank lanes split the rows at threads = 7.
  const std::size_t grain = par::parallel_grain();
  par::set_parallel_grain(256);
  const sparse::CsrMatrix stencil = sparse::laplace2d_9pt(40, 31);
  const sparse::CsrMatrix wide = sparse::make_surrogate("ML_Geer", 3000).matrix;
  for (const sparse::CsrMatrix* a : {&stencil, &wide}) {
    const auto n = static_cast<std::size_t>(a->rows);
    for (const int k : {1, 2, 4}) {
      std::vector<double> x(n * static_cast<std::size_t>(k));
      util::Xoshiro256 rng(41);
      util::fill_normal(rng, x);
      std::vector<double> y_ref(x.size());
      if (k == 1) {
        sparse::spmv(*a, x, y_ref);
      } else {
        for (int t = 0; t < k; ++t) {
          const double* xc = x.data() + static_cast<std::size_t>(t) * n;
          for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (sparse::offset e = a->row_ptr[i]; e < a->row_ptr[i + 1]; ++e) {
              const auto ee = static_cast<std::size_t>(e);
              s += a->values[ee] * xc[a->col_idx[ee]];
            }
            y_ref[static_cast<std::size_t>(t) * n + i] = s;
          }
        }
      }
      for (const int p : {1, 2, 3}) {
        for (const unsigned threads : {1u, 7u}) {
          par::set_num_threads(threads);
          std::vector<double> y(x.size(), 0.0);
          par::spmd_run(p, [&](par::Communicator& comm) {
            const sparse::RowPartition part(a->rows, comm.size());
            const sparse::DistCsr dist(*a, part, comm.rank());
            const auto begin = static_cast<std::size_t>(dist.row_begin());
            const dense::index_t nloc = dist.n_local();
            const auto ld = static_cast<dense::index_t>(n);
            dist.spmm(comm, dense::ConstMatrixView{x.data() + begin, nloc, k, ld},
                      dense::MatrixView{y.data() + begin, nloc, k, ld});
          });
          for (std::size_t e = 0; e < y.size(); ++e) {
            ASSERT_EQ(y[e], y_ref[e])
                << "n=" << n << " k=" << k << " ranks=" << p
                << " threads=" << threads << " col " << e / n << " row " << e % n;
          }
        }
      }
    }
  }
  par::set_num_threads(0);
  par::set_parallel_grain(grain);
}

TEST(DistCsr, FootprintCountsRowsOnce) {
  // The interior/boundary blocks are the only store of a rank's rows:
  // the pieces together stay near the global matrix's own storage (row
  // maps and the halo buffer are the only additions).
  for (const sparse::CsrMatrix& a :
       {sparse::laplace2d_9pt(64, 64),
        sparse::make_surrogate("ML_Geer", 3000).matrix}) {
    for (const int p : {1, 2, 3}) {
      const sparse::RowPartition part(a.rows, p);
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        total += sparse::DistCsr(a, part, r).footprint_bytes();
      }
      EXPECT_LT(static_cast<double>(total),
                1.25 * static_cast<double>(a.storage_bytes()))
          << "n=" << a.rows << " ranks=" << p;
    }
  }
}

TEST(DistCsr, SurrogateMatrixDistributes) {
  const auto s = sparse::make_surrogate("atmosmodl", 3000);
  std::vector<double> x(static_cast<std::size_t>(s.matrix.rows));
  util::Xoshiro256 rng(3);
  util::fill_normal(rng, x);
  std::vector<double> y_ref(static_cast<std::size_t>(s.matrix.rows));
  sparse::spmv(s.matrix, x, y_ref);

  par::spmd_run(4, [&](par::Communicator& comm) {
    const sparse::RowPartition part(s.matrix.rows, comm.size());
    const sparse::DistCsr dist(s.matrix, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> y_local(nloc);
    dist.spmv(comm, std::span<const double>(x.data() + begin, nloc), y_local);
    for (std::size_t i = 0; i < nloc; ++i) {
      EXPECT_NEAR(y_local[i], y_ref[begin + i], 1e-11);
    }
  });
}

}  // namespace
