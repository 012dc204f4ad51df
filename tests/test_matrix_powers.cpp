// Matrix-powers kernel and the preconditioned operator: recurrence
// correctness for all three bases, distributed == sequential, and
// solver behaviour under injected network latency.

#include "krylov/matrix_powers.hpp"
#include "krylov/sstep_gmres.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "precond/jacobi.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

TEST(MatrixPowers, MonomialMatchesRepeatedSpmv) {
  const auto a = sparse::laplace2d_5pt(12, 12);
  const auto n = static_cast<index_t>(a.rows);
  const index_t s = 4;

  // Reference: plain repeated SpMV.
  std::vector<std::vector<double>> ref(static_cast<std::size_t>(s) + 1);
  ref[0].assign(static_cast<std::size_t>(n), 0.0);
  util::Xoshiro256 rng(3);
  util::fill_normal(rng, ref[0]);
  for (index_t k = 0; k < s; ++k) {
    ref[static_cast<std::size_t>(k) + 1].assign(static_cast<std::size_t>(n), 0.0);
    sparse::spmv(a, ref[static_cast<std::size_t>(k)], ref[static_cast<std::size_t>(k) + 1]);
  }

  par::spmd_run(1, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, 1);
    const sparse::DistCsr dist(a, part, 0);
    krylov::PrecOperator op(dist, nullptr);
    const auto basis = krylov::KrylovBasis::monomial(8);
    Matrix cols(n, s + 1);
    for (index_t i = 0; i < n; ++i) cols(i, 0) = ref[0][static_cast<std::size_t>(i)];
    krylov::matrix_powers(comm, op, basis, cols.view(), 1, s, nullptr);
    for (index_t k = 0; k <= s; ++k) {
      for (index_t i = 0; i < n; ++i) {
        ASSERT_NEAR(cols(i, k), ref[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)],
                    1e-12)
            << k << "," << i;
      }
    }
  });
}

TEST(MatrixPowers, NewtonRecurrenceHoldsExactly) {
  const auto a = sparse::laplace2d_5pt(10, 10);
  const auto n = static_cast<index_t>(a.rows);
  const index_t s = 5;
  const auto basis = krylov::KrylovBasis::newton(10, s, 0.1, 7.9);

  par::spmd_run(1, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, 1);
    const sparse::DistCsr dist(a, part, 0);
    krylov::PrecOperator op(dist, nullptr);
    Matrix cols(n, s + 1);
    util::Xoshiro256 rng(7);
    util::fill_normal(rng, std::span<double>(cols.col(0), static_cast<std::size_t>(n)));
    krylov::matrix_powers(comm, op, basis, cols.view(), 1, s, nullptr);

    // Check A x_k = gamma v_{k+1} + theta x_k for every step.
    std::vector<double> ax(static_cast<std::size_t>(n));
    for (index_t k = 0; k < s; ++k) {
      sparse::spmv(a, std::span<const double>(cols.col(k), static_cast<std::size_t>(n)), ax);
      const auto& st = basis.step(k);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_NEAR(ax[static_cast<std::size_t>(i)],
                    st.gamma * cols(i, k + 1) + st.theta * cols(i, k), 1e-10);
      }
    }
  });
}

TEST(MatrixPowers, ChebyshevThreeTermRecurrence) {
  const auto a = sparse::laplace2d_5pt(10, 10);
  const auto n = static_cast<index_t>(a.rows);
  const index_t s = 5;
  const auto basis = krylov::KrylovBasis::chebyshev(10, s, 0.1, 7.9);

  par::spmd_run(1, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, 1);
    const sparse::DistCsr dist(a, part, 0);
    krylov::PrecOperator op(dist, nullptr);
    Matrix cols(n, s + 1);
    util::Xoshiro256 rng(9);
    util::fill_normal(rng, std::span<double>(cols.col(0), static_cast<std::size_t>(n)));
    krylov::matrix_powers(comm, op, basis, cols.view(), 1, s, nullptr);

    std::vector<double> ax(static_cast<std::size_t>(n));
    for (index_t k = 0; k < s; ++k) {
      sparse::spmv(a, std::span<const double>(cols.col(k), static_cast<std::size_t>(n)), ax);
      const auto& st = basis.step(k);
      for (index_t i = 0; i < n; ++i) {
        double rhs = st.gamma * cols(i, k + 1) + st.theta * cols(i, k);
        if (st.sigma != 0.0) rhs += st.sigma * cols(i, k - 1);
        ASSERT_NEAR(ax[static_cast<std::size_t>(i)], rhs, 1e-10);
      }
    }
  });
}

TEST(MatrixPowers, RecurrencePassBitwiseAcrossLanes) {
  // The recurrence pass after each operator apply runs over the rank's
  // lanes.  It is element-wise, so the basis bits must not depend on
  // the lane count, at block widths 1 and 4: the Chebyshev steps carry
  // theta, sigma != 0 and gamma != 1, the gamma-scaled Newton steps
  // theta and gamma.  The pass is MPK work, timed as spmv/local: one
  // more interval per step than a monomial run, which has no pass.
  const std::size_t saved_grain = par::parallel_grain();
  par::set_parallel_grain(64);
  const auto a = sparse::laplace2d_9pt(31, 29);
  const auto n = static_cast<index_t>(a.rows);
  const index_t s = 5;
  // The monomial run first: it sets the interval count to compare to.
  const krylov::KrylovBasis bases[] = {
      krylov::KrylovBasis::monomial(10),
      krylov::KrylovBasis::chebyshev(10, s, 0.1, 7.9),
      krylov::KrylovBasis::newton(10, s, 0.1, 7.9).with_gamma_scale(0.5)};
  for (const index_t b : {1, 4}) {
    Matrix start(n, b);
    util::Xoshiro256 rng(17);
    util::fill_normal(rng, start.data());
    std::uint64_t monomial_intervals = 0;
    for (const auto& basis : bases) {
      const bool monomial = basis.kind() == krylov::BasisKind::kMonomial;
      std::vector<double> ref;
      for (const unsigned lanes : {1u, 2u, 7u}) {
        SCOPED_TRACE(testing::Message() << "b=" << b << " lanes=" << lanes
                                        << " basis=" << int(basis.kind()));
        par::set_num_threads(lanes);
        Matrix cols(n, (s + 1) * b);
        dense::copy(start.view(), cols.view().block(0, 0, n, b));
        util::PhaseTimers timers;
        par::spmd_run(1, [&](par::Communicator& comm) {
          const sparse::DistCsr dist(a, sparse::RowPartition(a.rows, 1), 0);
          const krylov::PrecOperator op(dist, nullptr);
          krylov::matrix_powers(comm, op, basis, cols.view(), 1, s, &timers,
                                b);
        });
        const std::uint64_t intervals = timers.count(util::Phase::kSpmvLocal);
        if (monomial) monomial_intervals = intervals;
        EXPECT_EQ(intervals, monomial_intervals + (monomial ? 0 : s));
        if (ref.empty()) {
          ref.assign(cols.data().begin(), cols.data().end());
          continue;
        }
        ASSERT_EQ(std::memcmp(cols.data().data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0);
      }
    }
  }
  par::set_num_threads(0);
  par::set_parallel_grain(saved_grain);
}

TEST(MatrixPowers, PreconditionedOperatorAppliesMinvFirst) {
  const auto a = sparse::heterogeneous2d(8, 8, false, 1.5, 3);
  const auto n = static_cast<index_t>(a.rows);
  par::spmd_run(1, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, 1);
    const sparse::DistCsr dist(a, part, 0);
    const precond::Jacobi m(dist);
    krylov::PrecOperator op(dist, &m);

    std::vector<double> x(static_cast<std::size_t>(n), 1.0);
    std::vector<double> y(static_cast<std::size_t>(n));
    const dense::ConstMatrixView xv{x.data(), n, 1, n};
    const dense::MatrixView yv{y.data(), n, 1, n};
    op.apply(comm, xv, yv, nullptr);

    // Reference: z = M^{-1} x, y = A z.
    std::vector<double> z(static_cast<std::size_t>(n)), yref(static_cast<std::size_t>(n));
    m.apply(x, z);
    sparse::spmv(a, z, yref);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[static_cast<std::size_t>(i)], yref[static_cast<std::size_t>(i)], 1e-13);
    }

    // apply_minv alone.
    op.apply_minv(xv, yv, nullptr);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[static_cast<std::size_t>(i)], z[static_cast<std::size_t>(i)], 1e-15);
    }
  });
}

TEST(MatrixPowers, DistributedMatchesSequential) {
  const auto a = sparse::laplace2d_9pt(14, 14);
  const auto n = static_cast<index_t>(a.rows);
  const index_t s = 5;
  std::vector<double> start(static_cast<std::size_t>(n));
  util::Xoshiro256 rng(13);
  util::fill_normal(rng, start);

  Matrix seq(n, s + 1);
  par::spmd_run(1, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, 1);
    const sparse::DistCsr dist(a, part, 0);
    krylov::PrecOperator op(dist, nullptr);
    for (index_t i = 0; i < n; ++i) seq(i, 0) = start[static_cast<std::size_t>(i)];
    krylov::matrix_powers(comm, op, krylov::KrylovBasis::monomial(s), seq.view(),
                          1, s, nullptr);
  });

  Matrix dist_out(n, s + 1);
  par::spmd_run(3, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    krylov::PrecOperator op(dist, nullptr);
    const auto begin = part.begin(comm.rank());
    const auto nloc = dist.n_local();
    Matrix local(nloc, s + 1);
    for (index_t i = 0; i < nloc; ++i) {
      local(i, 0) = start[static_cast<std::size_t>(begin + i)];
    }
    krylov::matrix_powers(comm, op, krylov::KrylovBasis::monomial(s),
                          local.view(), 1, s, nullptr);
    dense::copy(local.view(), dist_out.view().block(begin, 0, nloc, s + 1));
  });
  EXPECT_LT(dense::max_abs_diff(seq.view(), dist_out.view()), 1e-11);
}

TEST(MatrixPowers, SolverUnaffectedByInjectedLatency) {
  // The network model injects wall time, never changes values: the
  // solver trajectory must be identical with and without it.
  const auto a = sparse::laplace2d_5pt(16, 16);
  std::vector<double> xs(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> b(static_cast<std::size_t>(a.rows));
  sparse::spmv(a, xs, b);

  auto run = [&](const par::NetworkModel& model) {
    long iters = 0;
    double relres = 0.0, injected = 0.0;
    par::spmd_run(2, model, [&](par::Communicator& comm) {
      const sparse::RowPartition part(a.rows, comm.size());
      const sparse::DistCsr dist(a, part, comm.rank());
      const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
      const auto nloc = static_cast<std::size_t>(dist.n_local());
      std::vector<double> x(nloc, 0.0);
      krylov::SStepGmresConfig cfg;  // default factory: two-stage
      cfg.rtol = 1e-7;
      const auto rows = static_cast<dense::index_t>(nloc);
      const auto r = krylov::sstep_gmres(
          comm, dist, nullptr,
          dense::ConstMatrixView{b.data() + begin, rows, 1, rows},
          dense::MatrixView{x.data(), rows, 1, rows}, cfg);
      if (comm.rank() == 0) {
        iters = r.iters;
        relres = r.true_relres;
        injected = r.comm_stats.injected_seconds;
      }
    });
    return std::make_tuple(iters, relres, injected);
  };

  const auto [i0, r0, inj0] = run(par::NetworkModel::off());
  const auto [i1, r1, inj1] = run(par::NetworkModel::cluster());
  EXPECT_EQ(i0, i1);
  EXPECT_DOUBLE_EQ(r0, r1);
  EXPECT_EQ(inj0, 0.0);
  EXPECT_GT(inj1, 0.0);
}

}  // namespace
