// Block s-step GMRES (batched multi-RHS, the s-step engine at width
// k > 1): block solves agreeing with k independent solves column by
// column, the per-column acceptance rule and deflation at restart
// boundaries, bitwise reproducibility across ranks x threads {1,2,7}^2,
// the unchanged per-outer-iteration synchronization count, rhs=k
// option validation, and the service's per-column warm-start seeds.

#include "api/solver.hpp"
#include "krylov/sstep_gmres.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "sparse/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace tsbo;

struct BlockRun {
  krylov::SolveResult res;
  std::vector<double> x;  ///< n*k, column-major
};

/// Runs the s-step solver at the krylov layer over a k-column block on
/// `ranks` SPMD ranks.  `b` is the full n*k column-major RHS block.
BlockRun run_block_direct(
    const sparse::CsrMatrix& a, const std::vector<double>& b, int k, int ranks,
    const std::function<void(krylov::SStepGmresConfig&)>& tweak = {}) {
  const auto n = static_cast<std::size_t>(a.rows);
  BlockRun out;
  out.x.assign(n * static_cast<std::size_t>(k), 0.0);
  par::spmd_run(ranks, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> xloc(nloc * static_cast<std::size_t>(k), 0.0);
    krylov::SStepGmresConfig cfg;  // default factory: two-stage
    if (tweak) tweak(cfg);
    const dense::ConstMatrixView bv{b.data() + begin,
                                    static_cast<dense::index_t>(nloc),
                                    static_cast<dense::index_t>(k),
                                    static_cast<dense::index_t>(n)};
    const dense::MatrixView xv{xloc.data(), static_cast<dense::index_t>(nloc),
                               static_cast<dense::index_t>(k),
                               static_cast<dense::index_t>(nloc)};
    const auto res = krylov::sstep_gmres(comm, dist, nullptr, bv, xv, cfg);
    for (int t = 0; t < k; ++t) {
      std::copy(xloc.begin() + static_cast<std::ptrdiff_t>(nloc) * t,
                xloc.begin() + static_cast<std::ptrdiff_t>(nloc) * (t + 1),
                out.x.begin() + static_cast<std::ptrdiff_t>(n) * t +
                    static_cast<std::ptrdiff_t>(begin));
    }
    if (comm.rank() == 0) out.res = res;
  });
  return out;
}

/// Runs a batched rhs=k solve through the api::Solver facade over the
/// first k columns of `bk`.
std::pair<api::SolveReport, std::vector<double>> run_facade(
    const sparse::CsrMatrix& a, const std::vector<double>& bk, int k,
    int ranks, const std::string& spec,
    const std::vector<double>* x0 = nullptr) {
  api::SolverOptions opts = api::SolverOptions::parse("solver=sstep " + spec);
  opts.ranks = ranks;
  opts.rhs = k;
  api::Solver solver(opts);
  solver.set_matrix_ref(a, "test");
  solver.set_rhs(std::vector<double>(
      bk.begin(), bk.begin() + static_cast<std::ptrdiff_t>(a.rows) * k));
  if (x0 != nullptr) solver.set_initial_guess(*x0);
  const api::SolveReport rep = solver.solve();
  return {rep, solver.solution()};
}

std::vector<double> column(const std::vector<double>& block, std::size_t n,
                           int t) {
  return {block.begin() + static_cast<std::ptrdiff_t>(n) * t,
          block.begin() + static_cast<std::ptrdiff_t>(n) * (t + 1)};
}

TEST(BlockGmres, ColumnAcceptedByItsEstimateDeflatesLikeSingleRhs) {
  // The acceptance rule: at a restart boundary a column is done when
  // its least-squares estimate OR its explicit residual is <= rtol *
  // ref — the single-RHS rule, at every width.  Corrupting the last
  // boundary's residual product (a 2^64-scale entry in column 0) leaves
  // only the recurrence estimate to vouch for column 0: it must still
  // deflate at that boundary with the clean solution bits, exactly as a
  // single-RHS solve of it still stops there.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  // Batch columns 1 and 2: perturbed solutions, so every entry of
  // b = A x is O(1) and the corrupted entry cannot hide in a zero row.
  const std::vector<double> b3 = api::batch_rhs(a, 3);
  const std::vector<double> bk(b3.begin() + a.rows, b3.end());
  const std::string spec = "ortho=two_stage m=20 s=5 bs=20 rtol=1e-6";
  for (const int k : {1, 2}) {
    const auto [clean, x_clean] = run_facade(a, bk, k, 2, spec);
    ASSERT_TRUE(clean.result.converged) << "k=" << k;
    ASSERT_EQ(clean.result.rhs_results.size(), static_cast<std::size_t>(k));
    for (const auto& rr : clean.result.rhs_results) {
      ASSERT_LE(rr.relres, 1e-6) << "k=" << k;  // the estimate accepts
    }
    // One spmv/spmm per p2p round at ranks=2: the last two applies are
    // the final boundary's residual and the exit residual.
    const auto boundary = clean.result.comm_stats.p2p_rounds - 2;
    const auto [hit, x_hit] = run_facade(
        a, bk, k, 2,
        spec + " faults=spmv.interior@" + std::to_string(boundary) +
            ":corrupt");
    ASSERT_EQ(hit.resilience.fault_trail.size(), 1u) << "k=" << k;
    // The corrupted boundary's explicit residual is far above rtol ...
    ASSERT_FALSE(hit.history.empty());
    EXPECT_GT(hit.history.back().explicit_relres, 1e-3) << "k=" << k;
    // ... yet every column is accepted there on its estimate.
    EXPECT_TRUE(hit.result.converged) << "k=" << k;
    EXPECT_EQ(hit.result.restarts, clean.result.restarts) << "k=" << k;
    EXPECT_EQ(hit.result.iters, clean.result.iters) << "k=" << k;
    for (int t = 0; t < k; ++t) {
      const auto tt = static_cast<std::size_t>(t);
      EXPECT_TRUE(hit.result.rhs_results[tt].converged) << "k=" << k;
      EXPECT_EQ(hit.result.rhs_results[tt].deflated_at_restart,
                clean.result.rhs_results[tt].deflated_at_restart)
          << "k=" << k << " rhs " << t;
    }
    ASSERT_EQ(x_hit.size(), x_clean.size());
    for (std::size_t i = 0; i < x_hit.size(); ++i) {
      ASSERT_EQ(x_hit[i], x_clean[i]) << "k=" << k << " bit drift at " << i;
    }
  }
}

TEST(BlockGmres, FacadeBatchSolvesAllColumnsAndReportsPerRhs) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(32, 32);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 4;
  const std::vector<double> bk = api::batch_rhs(a, k);

  const auto [rep, x] =
      run_facade(a, bk, k, 2, "ortho=two_stage rtol=1e-7 max_restarts=200");
  EXPECT_TRUE(rep.result.converged);
  ASSERT_EQ(rep.result.rhs_results.size(), static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) {
    const auto& rr = rep.result.rhs_results[static_cast<std::size_t>(t)];
    EXPECT_TRUE(rr.converged) << "rhs " << t;
    EXPECT_LE(rr.true_relres, 5e-7) << "rhs " << t;
  }
  // Column 0 is the ones-RHS: its solution is the all-ones vector.
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(x[i] - 1.0));
  }
  EXPECT_LT(err, 1e-3);
  // The /7 report carries the per-RHS results array.
  const std::string json = rep.json();
  EXPECT_NE(json.find(std::string("\"schema\": \"") + api::kSolveReportSchema),
            std::string::npos);
  EXPECT_NE(json.find("\"results\": ["), std::string::npos);
}

TEST(BlockGmres, BlockMatchesIndependentSolvesPerColumn) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(32, 32);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 3;
  const std::vector<double> bk = api::batch_rhs(a, k);
  const std::string spec = "ortho=two_stage rtol=1e-8 max_restarts=300";

  const auto [rep, x] = run_facade(a, bk, k, 2, spec);
  ASSERT_TRUE(rep.result.converged);

  for (int t = 0; t < k; ++t) {
    api::SolverOptions opts = api::SolverOptions::parse("solver=sstep " + spec);
    opts.ranks = 2;
    api::Solver solver(opts);
    solver.set_matrix_ref(a, "test");
    solver.set_rhs(column(bk, n, t));
    const api::SolveReport srep = solver.solve();
    ASSERT_TRUE(srep.result.converged) << "rhs " << t;
    const std::vector<double> xt = solver.solution();
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::abs(x[static_cast<std::size_t>(t) * n + i] -
                                     xt[i]));
    }
    EXPECT_LT(diff, 1e-4) << "rhs " << t;
  }
}

TEST(BlockGmres, DeflationFreezesConvergedColumnAtRestartBoundary) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = 2;
  const std::vector<double> bk = api::batch_rhs(a, k);

  // Pre-solve column 1 tightly; feeding that solution back as the
  // initial guess makes column 1 start converged.
  api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-10 max_restarts=500");
  api::Solver pre(opts);
  pre.set_matrix_ref(a, "test");
  pre.set_rhs(column(bk, n, 1));
  ASSERT_TRUE(pre.solve().result.converged);
  const std::vector<double> x1 = pre.solution();

  std::vector<double> x0(n * k, 0.0);
  std::copy(x1.begin(), x1.end(), x0.begin() + static_cast<std::ptrdiff_t>(n));

  const auto [rep, x] = run_facade(
      a, bk, k, 2, "ortho=two_stage rtol=1e-6 max_restarts=200", &x0);
  ASSERT_TRUE(rep.result.converged);
  ASSERT_EQ(rep.result.rhs_results.size(), 2u);
  const auto& easy = rep.result.rhs_results[1];
  const auto& hard = rep.result.rhs_results[0];
  // Column 1 deflates at the very first boundary, before any panel:
  // zero iterations charged, solution column frozen at the guess bits.
  EXPECT_TRUE(easy.converged);
  EXPECT_EQ(easy.deflated_at_restart, 0);
  EXPECT_EQ(easy.iters, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(x[n + i], x1[i]) << "deflated column moved at " << i;
  }
  // Column 0 keeps iterating on its own, and still converges.
  EXPECT_TRUE(hard.converged);
  EXPECT_GT(hard.iters, 0);
  EXPECT_LE(hard.true_relres, 5e-6);
}

TEST(BlockGmres, BitwiseAcrossThreadsStableAcrossRanks) {
  // The acceptance matrix, with the repo's determinism convention
  // (test_autopilot): within a rank count, solution bits and iteration
  // counts are identical across thread counts {1,2,7}; across rank
  // counts the partitioned fold order changes, so the solutions are
  // only close — but the iteration counts must not move.  rtol sits
  // well above the rounding floor (about 10x per cycle over 6 cycles),
  // so no column's last cycle hinges on fold-order rounding.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(32, 32);
  const int k = 3;
  const std::vector<double> bk = api::batch_rhs(a, k);
  const std::string spec = "ortho=two_stage m=20 s=5 bs=20 rtol=1e-6";

  std::vector<double> x_r1;
  long iters_r1 = -1;
  std::vector<krylov::RhsResult> cols_r1;
  for (const int ranks : {1, 2, 7}) {
    std::vector<double> x_t1;
    long iters_t1 = -1;
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      const auto [rep, x] = run_facade(a, bk, k, ranks, spec);
      par::set_num_threads(0);
      EXPECT_TRUE(rep.result.converged)
          << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(rep.result.iters, 360)
          << "ranks=" << ranks << " threads=" << threads;
      if (ranks == 1 && threads == 1u) cols_r1 = rep.result.rhs_results;
      ASSERT_EQ(rep.result.rhs_results.size(), cols_r1.size());
      for (std::size_t t = 0; t < cols_r1.size(); ++t) {
        EXPECT_EQ(rep.result.rhs_results[t].iters, cols_r1[t].iters)
            << "ranks=" << ranks << " threads=" << threads << " rhs " << t;
        EXPECT_EQ(rep.result.rhs_results[t].deflated_at_restart,
                  cols_r1[t].deflated_at_restart)
            << "ranks=" << ranks << " threads=" << threads << " rhs " << t;
      }
      if (threads == 1u) {
        x_t1 = x;
        iters_t1 = rep.result.iters;
        continue;
      }
      EXPECT_EQ(rep.result.iters, iters_t1)
          << "ranks=" << ranks << " threads=" << threads;
      ASSERT_EQ(x.size(), x_t1.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i], x_t1[i]) << "ranks=" << ranks << " threads="
                                 << threads << " bit drift at " << i;
      }
    }
    if (ranks == 1) {
      x_r1 = x_t1;
      iters_r1 = iters_t1;
      continue;
    }
    EXPECT_EQ(iters_t1, iters_r1) << "ranks=" << ranks;
    ASSERT_EQ(x_t1.size(), x_r1.size());
    for (std::size_t i = 0; i < x_t1.size(); ++i) {
      EXPECT_NEAR(x_t1[i], x_r1[i], 1e-7) << "ranks=" << ranks;
    }
  }
}

TEST(BlockGmres, SyncCountPerOuterIterationMatchesSingleRhs) {
  // The amortization claim: panels get WIDER with k, not more numerous,
  // so the all-reduce count added per restart cycle is identical to the
  // single-RHS solver's.  Measure the per-cycle delta (4 restarts minus
  // 2 restarts) to cancel setup/exit constants.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> b4 = api::batch_rhs(a, 4);

  const auto syncs = [&](int k, int restarts) {
    const std::string spec =
        "ortho=two_stage s=5 bs=60 rtol=1e-30 max_restarts=" +
        std::to_string(restarts);
    if (k == 1) {
      api::SolverOptions opts =
          api::SolverOptions::parse("solver=sstep " + spec);
      opts.ranks = 2;
      api::Solver solver(opts);
      solver.set_matrix_ref(a, "test");
      solver.set_rhs(column(b4, n, 0));
      return solver.solve().result.comm_stats.allreduces;
    }
    const auto [rep, x] = run_facade(a, b4, k, 2, spec);
    return rep.result.comm_stats.allreduces;
  };

  const auto scalar_delta = syncs(1, 4) - syncs(1, 2);
  const auto block_delta = syncs(4, 4) - syncs(4, 2);
  EXPECT_GT(scalar_delta, 0);
  EXPECT_EQ(block_delta, scalar_delta);
}

TEST(BlockGmres, OptionsValidation) {
  const auto check = [](const std::string& spec) {
    api::SolverOptions::parse(spec).validate();
  };
  // rhs must be positive, and batched solves require the s-step solver.
  EXPECT_THROW(check("solver=sstep rhs=0"), std::invalid_argument);
  EXPECT_THROW(check("solver=gmres rhs=2"), std::invalid_argument);
  EXPECT_NO_THROW(check("solver=gmres rhs=1"));
  EXPECT_NO_THROW(check("solver=sstep rhs=4"));
  // The lookahead and the autopilot are single-RHS features: rejected
  // with an error naming the key, never silently ignored.
  const auto message = [&](const std::string& spec) -> std::string {
    try {
      check(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message("solver=sstep rhs=2 autopilot=1").find("autopilot"),
            std::string::npos);
  EXPECT_NE(message("solver=sstep rhs=2 pipeline_depth=1").find("pipeline_depth"),
            std::string::npos);
  EXPECT_NO_THROW(check("solver=sstep rhs=1 autopilot=1 pipeline_depth=1"));
  // The block solver enforces the same shape rules as the scalar one.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(8, 8);
  const std::vector<double> bk = api::batch_rhs(a, 2);
  EXPECT_THROW(run_facade(a, bk, 2, 1, "s=7"), std::invalid_argument);
  EXPECT_THROW(run_facade(a, bk, 2, 1, "ortho=two_stage bs=13"),
               std::invalid_argument);
  // conv_reference, when given, must carry one norm per RHS.
  EXPECT_THROW(
      run_block_direct(a, bk, 2, 1,
                       [](krylov::SStepGmresConfig& cfg) {
                         cfg.conv_reference = {1.0};
                       }),
      std::invalid_argument);
  // The driver rejects the width-1 features on its own, too.
  const auto driver_message =
      [&](const std::function<void(krylov::SStepGmresConfig&)>& tweak)
      -> std::string {
    try {
      run_block_direct(a, bk, 2, 1, tweak);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(driver_message([](krylov::SStepGmresConfig& cfg) {
              cfg.autopilot.enabled = true;
            }).find("autopilot"),
            std::string::npos);
  EXPECT_NE(driver_message([](krylov::SStepGmresConfig& cfg) {
              cfg.pipeline_depth = 1;
            }).find("pipeline_depth"),
            std::string::npos);
}

TEST(BlockGmres, ServiceSeedsWarmStartsPerColumn) {
  // A batch stores one warm-start seed per COLUMN, keyed by that
  // column's RHS fingerprint — a later single-RHS job solving one of
  // the batch's columns warm-starts from the matching seed.
  api::SolverOptions opts = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-8 max_restarts=1000 "
      "matrix=laplace2d_5pt");
  opts.nx = 24;
  opts.ranks = 2;
  opts.rhs = 3;

  service::SolverService svc;
  const service::JobResult cold = svc.wait(svc.submit(opts));
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  ASSERT_TRUE(cold.report.result.converged);
  EXPECT_FALSE(cold.report.service.warm_started);

  // Re-batching the identical RHS block: every column's fingerprint
  // matches, the whole guess is seeded, and the repeat is trivial.
  api::SolverOptions warm_opts = opts;
  warm_opts.warm_start = 1;
  const service::JobResult warm = svc.wait(svc.submit(warm_opts));
  ASSERT_TRUE(warm.error.empty()) << warm.error;
  EXPECT_TRUE(warm.report.service.warm_started);
  EXPECT_TRUE(warm.report.result.converged);
  EXPECT_LT(warm.report.result.iters, cold.report.result.iters);

  // A single-RHS job for batch column 2 finds that column's seed.
  const sparse::CsrMatrix a = api::make_matrix(opts);
  const auto n = static_cast<std::size_t>(a.rows);
  const std::vector<double> bk = api::batch_rhs(a, 3);
  api::SolverOptions single = opts;
  single.rhs = 1;
  single.warm_start = 1;
  const service::JobResult one =
      svc.wait(svc.submit(single, column(bk, n, 2)));
  ASSERT_TRUE(one.error.empty()) << one.error;
  EXPECT_TRUE(one.report.service.warm_started);
  EXPECT_TRUE(one.report.result.converged);
  EXPECT_LT(one.report.result.iters, cold.report.result.iters);

  // The warm-started repeat reproduces the cold batch's solution.
  double diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = std::max(diff,
                    std::abs(one.solution[i] - cold.solution[2 * n + i]));
  }
  EXPECT_LT(diff, 1e-6);
}

}  // namespace
