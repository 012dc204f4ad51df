// Compute-communication overlap end to end: the split-phase halo
// exchange's accounting through DistCsr, matrix_powers and the s-step
// solver, the paper's per-algorithm sync counts (5 / 2 / 1 + s/bs)
// pinned over the ortho managers, and the solver trajectory proven
// independent of the overlap accounting.

#include "api/solver.hpp"
#include "krylov/matrix_powers.hpp"
#include "krylov/sstep_gmres.hpp"
#include "ortho/manager.hpp"
#include "ortho/multivector.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

TEST(Overlap, DistSpmvHidesP2pLatencyBehindInteriorRows) {
  // A matrix large enough that the interior rows take longer than the
  // modeled p2p round: the whole halo latency must land in
  // overlapped_seconds and none of it in injected_seconds.
  const auto a = sparse::laplace2d_9pt(160, 160);
  const auto model = par::NetworkModel::cluster();
  par::spmd_run(2, model, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 1.0), y(nloc);
    dist.spmv(comm, x, y);  // warm up (page in the matrix)
    comm.reset_stats();
    dist.spmv(comm, x, y);
    EXPECT_GT(comm.stats().overlapped_seconds, 0.0);
    EXPECT_EQ(comm.stats().p2p_rounds, 1u);
    EXPECT_EQ(comm.stats().bytes_exchanged,
              static_cast<std::uint64_t>(dist.n_ghost()) * sizeof(double));
  });
}

TEST(Overlap, MatrixPowersOverlapsEveryExchange) {
  const auto a = sparse::laplace2d_9pt(96, 96);
  const index_t s = 5;
  par::spmd_run(2, par::NetworkModel::cluster(), [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    krylov::PrecOperator op(dist, nullptr);
    const auto nloc = dist.n_local();
    Matrix cols(nloc, s + 1);
    util::Xoshiro256 rng(17);
    util::fill_normal(rng,
                      std::span<double>(cols.col(0),
                                        static_cast<std::size_t>(nloc)));
    comm.reset_stats();
    krylov::matrix_powers(comm, op, krylov::KrylovBasis::monomial(s),
                          cols.view(), 1, s, nullptr);
    EXPECT_EQ(comm.stats().p2p_rounds, static_cast<std::uint64_t>(s));
    EXPECT_GT(comm.stats().overlapped_seconds, 0.0);
  });
}

TEST(Overlap, SolveValuesIndependentOfOverlapAccounting) {
  // The overlap machinery discounts modeled wall time only — the solver
  // trajectory (iters, residuals, solution bits) must be identical
  // with and without a network model, and overlapped_seconds must be
  // strictly positive whenever fabric latency is modeled.
  const auto run = [](const std::string& net) {
    api::Solver solver(api::SolverOptions::parse(
        "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=48 ranks=2 "
        "rtol=1e-8 net=" +
        net));
    const api::SolveReport rep = solver.solve();
    return std::make_tuple(rep.result.iters, rep.result.true_relres,
                           rep.result.comm_stats, solver.solution());
  };
  const auto [iters_off, relres_off, comm_off, x_off] = run("off");
  const auto [iters_on, relres_on, comm_on, x_on] = run("cluster");
  EXPECT_EQ(iters_off, iters_on);
  EXPECT_DOUBLE_EQ(relres_off, relres_on);
  ASSERT_EQ(x_off.size(), x_on.size());
  for (std::size_t i = 0; i < x_off.size(); ++i) {
    EXPECT_EQ(x_off[i], x_on[i]) << "solution bit drift at " << i;
  }
  EXPECT_DOUBLE_EQ(comm_off.overlapped_seconds, 0.0);
  EXPECT_DOUBLE_EQ(comm_off.injected_seconds, 0.0);
  EXPECT_GT(comm_on.overlapped_seconds, 0.0);
  EXPECT_GT(comm_on.injected_seconds, 0.0);
  EXPECT_EQ(comm_off.allreduces, comm_on.allreduces);
  EXPECT_EQ(comm_off.p2p_rounds, comm_on.p2p_rounds);
}

// ---- sync counts over the ortho managers ----------------------------
//
// The paper's accounting (manager.hpp): BCGS2+CholQR2 = 5, BCGS-PIP2 =
// 2, two-stage = 1 + s/bs global synchronizations per s steps.  These
// pins prove no refactor of the reduce path adds or merges syncs.

struct SyncCase {
  const char* scheme;
  index_t bs;
  double per_panel;  // all-reduces per s-step panel, steady state
};

class PaperSyncs : public ::testing::TestWithParam<SyncCase> {};

TEST_P(PaperSyncs, PerPanelAllreduceCountPinned) {
  const auto& c = GetParam();
  const auto a = sparse::laplace2d_5pt(24, 24);
  const index_t s = 5;
  const index_t npanels = 12;  // m = 60
  par::spmd_run(2, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const auto nloc = static_cast<index_t>(
        part.end(comm.rank()) - part.begin(comm.rank()));
    ortho::OrthoContext ctx;
    ctx.comm = &comm;
    // Shift recovery is rank-local (no extra reduces), so the pinned
    // counts hold even if a random panel trips a Cholesky cliff.
    ctx.policy = ortho::BreakdownPolicy::kShift;

    auto manager = [&]() -> std::unique_ptr<ortho::BlockOrthoManager> {
      if (std::string(c.scheme) == "bcgs2") {
        return ortho::make_bcgs2_manager(ortho::IntraKind::kCholQR2);
      }
      if (std::string(c.scheme) == "bcgs_pip2") {
        return ortho::make_bcgs_pip2_manager();
      }
      return ortho::make_two_stage_manager(c.bs);
    }();

    const index_t m = s * npanels;
    Matrix basis(nloc, m + 1);
    Matrix r(m + 1, m + 1), l(m + 1, m + 1);
    util::Xoshiro256 rng(7 + comm.rank());
    // Random full-rank panels are enough: only the comm counts matter.
    util::fill_normal(rng, basis.data());
    // The managers assume the seed column is normalized (the solver
    // seeds with r / ||r||): the Pythagorean S = V^T V - R^T R is only
    // positive definite against an orthonormal prefix.
    {
      std::span<double> q0(basis.col(0), static_cast<std::size_t>(nloc));
      const double nrm = ortho::global_norm(ctx, q0);
      for (double& v : q0) v /= nrm;
    }
    manager->reset(1);
    comm.reset_stats();
    for (index_t p = 0; p < npanels; ++p) {
      manager->note_mpk_start(ctx, l.view(), p * s);
      manager->add_panel(ctx, basis.view(), p * s + 1, s, r.view(), l.view());
    }
    manager->finalize(ctx, basis.view(), m + 1, r.view(), l.view());
    const double per_panel =
        static_cast<double>(comm.stats().allreduces) / npanels;
    EXPECT_NEAR(per_panel, c.per_panel, 1e-9)
        << c.scheme << " bs=" << c.bs;
    EXPECT_NEAR(per_panel,
                manager->syncs_per_s_steps(s, c.bs > 0 ? c.bs : m), 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    PaperAccounting, PaperSyncs,
    ::testing::Values(SyncCase{"bcgs2", 0, 5.0},
                      SyncCase{"bcgs_pip2", 0, 2.0},
                      SyncCase{"two_stage", 60, 1.0 + 5.0 / 60.0},
                      SyncCase{"two_stage", 20, 1.0 + 5.0 / 20.0}),
    [](const auto& info) {
      return std::string(info.param.scheme) + "_bs" +
             std::to_string(info.param.bs);
    });

// ---- two-stage determinism -------------------------------------------

TEST(TwoStage, BitIdenticalAcrossThreadsAndSyncStableAcrossRanks) {
  // The two-stage solve with its split-phase exchange windows:
  // solution bits identical across threads {1, 2, 7} at each
  // rank count, and iteration and sync counts identical across ranks
  // {1, 2, 7} (the partitioned fold order moves only the rounding).
  const auto run = [](int ranks) {
    api::Solver solver(api::SolverOptions::parse(
        "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=40 s=5 bs=20 "
        "rtol=1e-8 ranks=" +
        std::to_string(ranks)));
    const api::SolveReport rep = solver.solve();
    return std::make_tuple(rep.result.iters, rep.result.comm_stats,
                           solver.solution());
  };
  long it_ref = -1;  // ranks = 1, threads = 1
  par::CommStats cs_ref;
  for (const int ranks : {1, 2, 7}) {
    std::vector<double> x_t1;
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      const auto [it, cs, x] = run(ranks);
      if (it_ref < 0) {
        it_ref = it;
        cs_ref = cs;
      }
      EXPECT_EQ(it, it_ref) << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(cs.allreduces, cs_ref.allreduces)
          << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(cs.broadcasts, cs_ref.broadcasts);
      EXPECT_EQ(cs.bytes_allreduced, cs_ref.bytes_allreduced);
      if (threads == 1u) {
        x_t1 = x;
        continue;
      }
      ASSERT_EQ(x.size(), x_t1.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i], x_t1[i]) << "solution bit drift at " << i
                                 << " ranks=" << ranks
                                 << " threads=" << threads;
      }
    }
  }
  par::set_num_threads(0);  // restore the default thread count
}

}  // namespace
