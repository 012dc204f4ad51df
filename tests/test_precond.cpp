// Preconditioners: Jacobi, multicolor Gauss-Seidel, Chebyshev.

#include "par/config.hpp"
#include "par/spmd.hpp"
#include "par/thread_pool.hpp"
#include "precond/chebyshev.hpp"
#include "precond/gauss_seidel.hpp"
#include "precond/jacobi.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

namespace {

using namespace tsbo;

sparse::DistCsr single_rank(const sparse::CsrMatrix& a) {
  return sparse::DistCsr(a, sparse::RowPartition(a.rows, 1), 0);
}

TEST(Jacobi, InvertsDiagonalMatrixExactly) {
  auto a = sparse::csr_from_triplets(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 0.5}});
  const auto dist = single_rank(a);
  const precond::Jacobi m(dist);
  std::vector<double> x = {2.0, 4.0, 0.5}, y(3);
  m.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_EQ(m.name(), "Jacobi");
}

TEST(Jacobi, ZeroDiagonalFallsBackToIdentity) {
  auto a = sparse::csr_from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  const auto dist = single_rank(a);
  const precond::Jacobi m(dist);
  std::vector<double> x = {3.0, -2.0}, y(2);
  m.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(GreedyColoring, ProperColoringOfGridGraph) {
  const auto a = sparse::laplace2d_9pt(12, 12);
  const auto colors = precond::greedy_coloring(a, a.rows);
  ASSERT_EQ(colors.size(), static_cast<std::size_t>(a.rows));
  // Proper: no stored edge joins equal colors.
  for (sparse::ord i = 0; i < a.rows; ++i) {
    for (auto k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const sparse::ord j = a.col_idx[static_cast<std::size_t>(k)];
      if (j != i) {
        EXPECT_NE(colors[static_cast<std::size_t>(i)],
                  colors[static_cast<std::size_t>(j)])
            << i << "-" << j;
      }
    }
  }
  // 9-pt stencil is 8-regular: greedy needs <= 9 colors; typically 4.
  const int nc = *std::max_element(colors.begin(), colors.end()) + 1;
  EXPECT_LE(nc, 9);
  EXPECT_GE(nc, 4);
}

TEST(MulticolorGs, ActsAsExactSolveOnDiagonalMatrix) {
  auto a = sparse::csr_from_triplets(3, 3,
                                     {{0, 0, 2.0}, {1, 1, 5.0}, {2, 2, 4.0}});
  const auto dist = single_rank(a);
  const precond::MulticolorGaussSeidel m(dist);
  std::vector<double> x = {2.0, 10.0, 8.0}, y(3);
  m.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(MulticolorGs, ReducesResidualAsSmoother) {
  // Enough sweeps that the GS iteration (convergent on this SPD
  // M-matrix) visibly contracts the residual; a couple of sweeps can
  // transiently increase the 2-norm.
  const auto a = sparse::laplace2d_5pt(10, 10);
  const auto dist = single_rank(a);
  const precond::MulticolorGaussSeidel m(dist, /*sweeps=*/60);
  EXPECT_GE(m.num_colors(), 2);

  // Apply M^{-1} to b and check the residual of the resulting
  // approximate solve is smaller than ||b|| (a contraction on this SPD
  // problem).
  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(b.size()), r(b.size());
  m.apply(b, y);
  sparse::spmv(a, y, r);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rn += (b[i] - r[i]) * (b[i] - r[i]);
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rn), std::sqrt(bn));
}

TEST(MulticolorGs, SymmetricVariantAlsoContracts) {
  const auto a = sparse::laplace2d_5pt(10, 10);
  const auto dist = single_rank(a);
  const precond::MulticolorGaussSeidel m(dist, 40, /*symmetric=*/true);
  EXPECT_EQ(m.name(), "MC-SymGS");
  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(b.size()), ay(b.size());
  m.apply(b, y);
  sparse::spmv(a, y, ay);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rn += (b[i] - ay[i]) * (b[i] - ay[i]);
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rn), std::sqrt(bn));
}

TEST(MulticolorGs, BlockJacobiAcrossRanksIsLocal) {
  const auto a = sparse::laplace2d_5pt(16, 16);
  par::spmd_run(2, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const precond::MulticolorGaussSeidel m(dist);
    comm.reset_stats();
    std::vector<double> x(static_cast<std::size_t>(dist.n_local()), 1.0);
    std::vector<double> y(x.size());
    m.apply(x, y);
    // Strictly local: no communication of any kind.
    EXPECT_EQ(comm.stats().allreduces, 0u);
    EXPECT_EQ(comm.stats().p2p_rounds, 0u);
  });
}

TEST(Chebyshev, ApproximatesInverseOnSpdBlock) {
  const auto a = sparse::laplace2d_5pt(12, 12);
  const auto dist = single_rank(a);
  const precond::ChebyshevPolynomial m(dist, /*degree=*/8);
  EXPECT_GT(m.lambda_max(), 0.5);

  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(b.size()), ay(b.size());
  m.apply(b, y);
  sparse::spmv(a, y, ay);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rn += (b[i] - ay[i]) * (b[i] - ay[i]);
    bn += b[i] * b[i];
  }
  // Degree-8 Chebyshev is a strong approximate inverse here.
  EXPECT_LT(std::sqrt(rn / bn), 0.5);
}

TEST(SetupExtraction, SharedSetupMatchesFusedConstructorBitwise) {
  // The service's operator cache builds MulticolorSetup /
  // ChebyshevSetup once and shares them across solver instances; the
  // extraction must not perturb a single bit of the apply.
  const auto a = sparse::laplace2d_5pt(14, 14);
  const auto dist = single_rank(a);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  util::Xoshiro256 rng(11);
  util::fill_normal(rng, b);

  const precond::MulticolorGaussSeidel gs_fused(dist, 3, /*symmetric=*/true);
  const auto gs_setup = std::make_shared<const precond::MulticolorSetup>(dist);
  const precond::MulticolorGaussSeidel gs_shared(gs_setup, 3,
                                                 /*symmetric=*/true);
  std::vector<double> y_fused(b.size()), y_shared(b.size());
  gs_fused.apply(b, y_fused);
  gs_shared.apply(b, y_shared);
  EXPECT_EQ(y_fused, y_shared);
  EXPECT_EQ(gs_fused.num_colors(), gs_shared.num_colors());

  // Two instances on one shared setup are also identical to each other.
  const precond::MulticolorGaussSeidel gs_shared2(gs_setup, 3,
                                                  /*symmetric=*/true);
  std::vector<double> y_shared2(b.size());
  gs_shared2.apply(b, y_shared2);
  EXPECT_EQ(y_shared, y_shared2);

  // Chebyshev, estimate path: the power method in ChebyshevSetup is
  // the exact arithmetic the fused constructor ran.
  const precond::ChebyshevPolynomial ch_fused(dist, /*degree=*/6,
                                              /*power_iters=*/10);
  const auto ch_setup =
      std::make_shared<const precond::ChebyshevSetup>(dist, /*power_iters=*/10);
  const precond::ChebyshevPolynomial ch_shared(ch_setup, /*degree=*/6);
  EXPECT_EQ(ch_fused.lambda_max(), ch_shared.lambda_max());
  ch_fused.apply(b, y_fused);
  ch_shared.apply(b, y_shared);
  EXPECT_EQ(y_fused, y_shared);

  // Chebyshev, explicit-interval path.
  const precond::ChebyshevPolynomial ce_fused(dist, 6, 0.1, 1.9);
  const precond::ChebyshevPolynomial ce_shared(
      std::make_shared<const precond::ChebyshevSetup>(dist, 0.1, 1.9), 6);
  ce_fused.apply(b, y_fused);
  ce_shared.apply(b, y_shared);
  EXPECT_EQ(y_fused, y_shared);
}

TEST(Chebyshev, HigherDegreeIsMoreAccurate) {
  // Use the exact spectral interval of the Jacobi-scaled 5-pt Laplacian
  // (eigenvalues 2 - cos - cos over 4): with a correct interval the
  // Chebyshev error bound is monotone in the degree.  (The estimated
  // interval of the default constructor under-covers the low end,
  // which is fine for a smoother but not monotone as a solver.)
  const int nx = 10;
  const auto a = sparse::laplace2d_5pt(nx, nx);
  const auto dist = single_rank(a);
  const double t = std::cos(M_PI / (nx + 1));
  const double lmin = (2.0 - 2.0 * t) / 2.0;  // scaled by diag = 4 -> /4*2
  const double lmax = (2.0 + 2.0 * t) / 2.0;
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  util::Xoshiro256 rng(5);
  util::fill_normal(rng, b);

  auto residual_for = [&](int degree) {
    const precond::ChebyshevPolynomial m(dist, degree, lmin, lmax);
    std::vector<double> y(b.size()), ay(b.size());
    m.apply(b, y);
    sparse::spmv(a, y, ay);
    double rn = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      rn += (b[i] - ay[i]) * (b[i] - ay[i]);
    }
    return std::sqrt(rn);
  };
  EXPECT_LT(residual_for(10), residual_for(3));
}


// The serial Chebyshev apply and power-method setup as they stood
// before the multi-column apply fused the sweep: the bitwise reference
// for every width, lane count and degree.
namespace reference {

void scaled_spmv(const precond::ChebyshevSetup& s, const double* x,
                 double* y) {
  const sparse::CsrMatrix& block = s.block;
  for (sparse::ord i = 0; i < block.rows; ++i) {
    double acc = 0.0;
    for (sparse::offset k = block.row_ptr[i]; k < block.row_ptr[i + 1]; ++k) {
      acc += block.values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(
                 block.col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] =
        acc * s.inv_diag[static_cast<std::size_t>(i)];
  }
}

double power_lmax(const precond::ChebyshevSetup& s, int power_iters) {
  const std::size_t n = s.inv_diag.size();
  std::vector<double> v(n, 1.0), w(n);
  double lambda = 1.0;
  for (int it = 0; it < power_iters; ++it) {
    scaled_spmv(s, v.data(), w.data());
    double nrm = 0.0;
    for (const double val : w) nrm += val * val;
    nrm = std::sqrt(nrm);
    if (nrm == 0.0) break;
    lambda = nrm;
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / nrm;
  }
  return 1.1 * lambda;
}

void chebyshev_apply(const precond::ChebyshevSetup& s, int degree,
                     const double* x, double* y) {
  const std::size_t n = s.inv_diag.size();
  const double* inv_diag = s.inv_diag.data();
  std::vector<double> p(n), z(n), r(n);
  const double theta = 0.5 * (s.lmax + s.lmin);
  const double delta = 0.5 * (s.lmax - s.lmin);
  const double sigma1 = theta / delta;
  double rho = 1.0 / sigma1;
  std::fill(y, y + n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = x[i] * inv_diag[i];
    p[i] = r[i] / theta;
  }
  for (int k = 0; k < degree; ++k) {
    for (std::size_t i = 0; i < n; ++i) y[i] += p[i];
    if (k + 1 == degree) break;
    scaled_spmv(s, y, z.data());
    for (std::size_t i = 0; i < n; ++i) r[i] = x[i] * inv_diag[i] - z[i];
    const double rho_next = 1.0 / (2.0 * sigma1 - rho);
    const double c1 = rho_next * rho;
    const double c2 = 2.0 * rho_next / delta;
    for (std::size_t i = 0; i < n; ++i) p[i] = c1 * p[i] + c2 * r[i];
    rho = rho_next;
  }
}

}  // namespace reference

/// Lowers the dispatch grain so test-sized rank pieces fan out over the
/// rank pool's lanes; restores it on exit.
class ScopedGrain {
 public:
  explicit ScopedGrain(std::size_t grain) : saved_(par::parallel_grain()) {
    par::set_parallel_grain(grain);
  }
  ~ScopedGrain() { par::set_parallel_grain(saved_); }
  ScopedGrain(const ScopedGrain&) = delete;
  ScopedGrain& operator=(const ScopedGrain&) = delete;

 private:
  std::size_t saved_;
};

TEST(Chebyshev, ApplyMultiMatchesPerColumnReferenceBitwise) {
  // apply_multi runs columns in compile-time-width chunks (k = 1..9
  // covers every chunk tail) on k-interleaved scratch, every pass split
  // over the rank's lanes; apply() is its width-1 call.  Each column
  // must keep the bits of the serial per-column recurrence, at every
  // lane count and degree, on padded (ld > n) operands, and must leave
  // the padding alone.
  const ScopedGrain grain(64);
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 7u}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
  }
  const sparse::CsrMatrix pieces[] = {sparse::laplace3d_27pt(12, 12, 12),
                                      sparse::laplace2d_9pt(40, 40)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const sparse::CsrMatrix& a : pieces) {
    // Rank 1 of 2: its diagonal block drops the ghost columns.
    const sparse::DistCsr dist(a, sparse::RowPartition(a.rows, 2), 1);
    const auto setup = std::make_shared<const precond::ChebyshevSetup>(
        dist, precond::kChebyshevPowerIters);
    EXPECT_EQ(setup->lmax,
              reference::power_lmax(*setup, precond::kChebyshevPowerIters));
    EXPECT_EQ(setup->lmin, setup->lmax / 30.0);
    const std::size_t n = setup->inv_diag.size();
    const std::size_t ldx = n + 3, ldy = n + 5;
    for (const int degree : {1, 2, 4, 7}) {
      const precond::ChebyshevPolynomial m(setup, degree);
      for (std::size_t k = 1; k <= 9; ++k) {
        std::vector<double> x(ldx * k);
        util::Xoshiro256 rng(100 + k);
        util::fill_normal(rng, x);
        // Signed zeros: y = 0 + p must turn a -0.0 search direction
        // into +0.0, as the serial loop does.
        for (std::size_t e = 0; e < x.size(); e += 7) x[e] = -0.0;
        std::vector<double> want(n * k);
        for (std::size_t t = 0; t < k; ++t) {
          reference::chebyshev_apply(*setup, degree, x.data() + t * ldx,
                                     want.data() + t * n);
        }
        for (const auto& pool : pools) {
          const par::ScopedRankPool scope(*pool);
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " degree=" << degree << " k=" << k
                       << " lanes=" << pool->size() + 1);
          std::vector<double> y(ldy * k, nan);
          m.apply_multi(n, k, x.data(), ldx, y.data(), ldy);
          for (std::size_t t = 0; t < k; ++t) {
            ASSERT_EQ(std::memcmp(y.data() + t * ldy, want.data() + t * n,
                                  n * sizeof(double)),
                      0)
                << "apply_multi column " << t;
            for (std::size_t i = n; i < ldy; ++i) {
              ASSERT_TRUE(std::isnan(y[t * ldy + i])) << "padding " << t;
            }
          }
          std::vector<double> y1(n);
          m.apply(std::span<const double>(x.data() + (k - 1) * ldx, n), y1);
          ASSERT_EQ(std::memcmp(y1.data(), want.data() + (k - 1) * n,
                                n * sizeof(double)),
                    0)
              << "apply";
        }
      }
    }
  }
}

}  // namespace
