// s-step GMRES with every block-orthogonalization scheme: convergence,
// iteration-count granularity (the paper's 60251/60255/60300 rounding),
// solution agreement with standard GMRES, sync counts, bases,
// preconditioning, and the mixed-precision extension — all driven
// through the api::Solver facade with string-keyed options, the same
// path the harnesses use.

#include "api/solver.hpp"
#include "par/config.hpp"
#include "sparse/generators.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"
#include "sparse/suitesparse_like.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace {

using namespace tsbo;

struct Problem {
  sparse::CsrMatrix a;
  std::vector<double> b;
  std::vector<double> x_star;
};

Problem make_problem(sparse::CsrMatrix a) {
  Problem p;
  p.a = std::move(a);
  p.x_star.assign(static_cast<std::size_t>(p.a.rows), 1.0);
  p.b = api::ones_rhs(p.a);
  return p;
}

/// Runs s-step GMRES via the facade; `spec` overlays the defaults
/// (s=5, bs=60, two_stage, rtol=1e-6, ...).
std::pair<krylov::SolveResult, std::vector<double>> run_sstep(
    const Problem& prob, int nranks, const std::string& spec) {
  api::SolverOptions opts =
      api::SolverOptions::parse("solver=sstep " + spec);
  opts.ranks = nranks;
  api::Solver solver(opts);
  solver.set_matrix_ref(prob.a, "test");
  solver.set_rhs(prob.b);
  const api::SolveReport rep = solver.solve();
  return {rep.result, solver.solution()};
}

struct SchemeCase {
  const char* name;  ///< ortho registry key
  bool two_stage;
};

class Schemes : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(Schemes, SolvesLaplaceAndRoundsItersToGranularity) {
  const auto& c = GetParam();
  const Problem p = make_problem(sparse::laplace2d_5pt(32, 32));
  const std::string spec =
      std::string("ortho=") + c.name + " s=5 bs=60 rtol=1e-7";
  const auto [res, x] = run_sstep(p, 2, spec);
  EXPECT_TRUE(res.converged) << c.name;
  EXPECT_LE(res.true_relres, 5e-7) << c.name;

  // Iteration-count granularity: multiples of s (one-stage) or bs
  // (two-stage) — the Table III rounding behaviour.
  const long granule = c.two_stage ? 60 : 5;
  EXPECT_EQ(res.iters % granule, 0) << c.name << " iters=" << res.iters;

  // Solution is correct.
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - p.x_star[i]));
  }
  EXPECT_LT(err, 1e-3) << c.name;
}

TEST_P(Schemes, ItersCloseToStandardGmres) {
  const auto& c = GetParam();
  const Problem p = make_problem(sparse::laplace2d_9pt(28, 28));

  api::Solver gsolver(api::SolverOptions::parse("solver=gmres ranks=1"));
  gsolver.set_matrix_ref(p.a, "test");
  gsolver.set_rhs(p.b);
  const krylov::SolveResult gres = gsolver.solve().result;

  const auto [sres, x2] =
      run_sstep(p, 1, std::string("ortho=") + c.name + " rtol=1e-6");

  ASSERT_TRUE(gres.converged);
  ASSERT_TRUE(sres.converged);
  // The s-step count equals the standard count rounded up to its
  // granule, within one extra restart cycle of slack (paper Table III:
  // 60251 -> 60255 -> 60300).
  EXPECT_GE(sres.iters, gres.iters - 1) << c.name;
  EXPECT_LE(sres.iters, gres.iters + 60) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, Schemes,
    ::testing::Values(SchemeCase{"bcgs2", false},
                      SchemeCase{"bcgs2_hhqr", false},
                      SchemeCase{"bcgs_pip2", false},
                      SchemeCase{"two_stage", true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SstepGmres, TwoStageBsSweepAllConverge) {
  // Table II structure: bs in {5, 20, 40, 60} with s = 5 fixed.
  const Problem p = make_problem(sparse::laplace2d_5pt(40, 40));
  for (const int bs : {5, 20, 60}) {
    const auto [res, x] = run_sstep(
        p, 2,
        "ortho=two_stage s=5 bs=" + std::to_string(bs) + " rtol=1e-6");
    EXPECT_TRUE(res.converged) << "bs=" << bs;
    EXPECT_EQ(res.iters % bs, 0) << "bs=" << bs;
    EXPECT_LE(res.true_relres, 2e-6) << "bs=" << bs;
  }
}

TEST(SstepGmres, SyncCountsFollowPaperAccounting) {
  // Fixed 2 restarts (no convergence): count all-reduces per scheme and
  // verify the ordering and the per-panel arithmetic.
  const Problem p = make_problem(sparse::laplace2d_5pt(32, 32));

  auto count_syncs = [&](const char* ortho, int bs) {
    const auto [res, x] = run_sstep(
        p, 2,
        std::string("ortho=") + ortho + " s=5 bs=" + std::to_string(bs) +
            " rtol=1e-30 max_restarts=2");  // never converges
    return static_cast<double>(res.comm_stats.allreduces);
  };

  // 2 cycles x 12 panels each; subtract the ~5 residual-norm reduces.
  const double bcgs2 = count_syncs("bcgs2", 60);
  const double pip2 = count_syncs("bcgs_pip2", 60);
  const double two_stage = count_syncs("two_stage", 60);

  // Paper accounting per panel: 5 vs 2 vs 1 + s/bs.
  EXPECT_NEAR(bcgs2 - pip2, 2 * 12 * 3.0, 2.0);  // 5 - 2 = 3 per panel
  EXPECT_NEAR(pip2 - two_stage, 2 * (12 * 1.0 - 1.0), 2.0);  // 2 - (1 + 1/12)
  EXPECT_LT(two_stage, pip2);
  EXPECT_LT(pip2, bcgs2);
}

TEST(SstepGmres, ConfigValidation) {
  const Problem p = make_problem(sparse::laplace2d_5pt(8, 8));
  // s does not divide m = 60.
  EXPECT_THROW(run_sstep(p, 1, "s=7"), std::invalid_argument);
  // bs not a multiple of s = 5.
  EXPECT_THROW(run_sstep(p, 1, "ortho=two_stage bs=13"),
               std::invalid_argument);
  // Newton basis without a spectral interval.
  EXPECT_THROW(run_sstep(p, 1, "basis=newton"), std::invalid_argument);
}

TEST(SstepGmres, TwoStageRunsOneHaloRoundPerNeededSpmv) {
  // The halo rounds are exactly the SpMVs the solve needs: one per
  // generated basis column (== iters for two-stage, which finalizes
  // every generated column), one initial residual, one explicit
  // residual per restart boundary, and one exit residual.  A
  // matrix-powers sweep whose columns are discarded would show up as
  // extra rounds.
  const Problem p = make_problem(sparse::laplace2d_5pt(32, 32));
  for (const char* basis :
       {"basis=monomial", "basis=newton lambda_min=0.01 lambda_max=8"}) {
    const auto [res, x] = run_sstep(
        p, 2,
        std::string("ortho=two_stage precond=none s=5 bs=20 rtol=1e-8 ") +
            basis);
    EXPECT_TRUE(res.converged) << basis;
    EXPECT_GT(res.restarts, 1) << basis;
    EXPECT_EQ(res.comm_stats.p2p_rounds,
              static_cast<std::uint64_t>(res.iters + res.restarts + 2))
        << basis;
  }
}

TEST(SstepGmres, NewtonAndChebyshevBasesConverge) {
  const Problem p = make_problem(sparse::laplace2d_5pt(24, 24));
  // 5-pt Laplace eigenvalues lie in (0, 8).
  for (const char* basis : {"newton", "chebyshev"}) {
    const auto [res, x] = run_sstep(
        p, 1,
        std::string("ortho=bcgs_pip2 basis=") + basis +
            " lambda_min=0.01 lambda_max=8 rtol=1e-7");
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.true_relres, 5e-7);
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      err = std::max(err, std::abs(x[i] - p.x_star[i]));
    }
    EXPECT_LT(err, 1e-3);
  }
}

TEST(SstepGmres, LargerStepSizeWorksWithStableBasis) {
  // s = 10 needs a stable basis (the paper's point: the monomial basis
  // forces a conservatively small s).  With the Newton basis the
  // two-stage scheme handles s = 10 fine.
  const Problem p = make_problem(sparse::laplace2d_5pt(24, 24));
  const auto [res, x] = run_sstep(
      p, 1,
      "ortho=two_stage s=10 bs=60 basis=newton lambda_min=0.01 lambda_max=8 "
      "rtol=1e-6");  // 5-pt Laplace spectrum
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.true_relres, 2e-6);
}

TEST(SstepGmres, PreconditionedSolveConvergesFaster) {
  Problem p = make_problem(sparse::heterogeneous2d(26, 26, true, 2.5, 7));
  const auto [plain, x1] = run_sstep(p, 2, "ortho=two_stage rtol=1e-7");
  const auto [gs, x2] =
      run_sstep(p, 2, "ortho=two_stage rtol=1e-7 precond=mc-gs");
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(gs.converged);
  EXPECT_LT(gs.iters, plain.iters);
  EXPECT_LE(gs.true_relres, 1e-6);
}

TEST(SstepGmres, MixedPrecisionGramMatchesPlain) {
  const Problem p = make_problem(sparse::laplace2d_5pt(20, 20));
  const auto [plain, x1] = run_sstep(p, 1, "ortho=bcgs_pip2 rtol=1e-7");
  const auto [dd, x2] =
      run_sstep(p, 1, "ortho=bcgs_pip2 rtol=1e-7 mixed_precision_gram=1");
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(dd.converged);
  EXPECT_EQ(plain.iters, dd.iters);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST(SstepGmres, ScaledSurrogateMatrixSolves) {
  // Fig. 9 / Table IV path: surrogate + the paper's max-scaling.
  auto s = sparse::make_surrogate("ecology2", 1000);
  sparse::equilibrate_max(s.matrix);
  const Problem p = make_problem(std::move(s.matrix));
  const auto [res, x] =
      run_sstep(p, 2, "ortho=two_stage rtol=1e-6 max_restarts=400");
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.true_relres, 1e-5);
}

TEST(SstepGmres, DeterministicAcrossRankCounts) {
  const Problem p = make_problem(sparse::laplace2d_5pt(20, 20));
  const auto [r1, x1] = run_sstep(p, 1, "ortho=bcgs_pip2 rtol=1e-7");
  const auto [r3, x3] = run_sstep(p, 3, "ortho=bcgs_pip2 rtol=1e-7");
  EXPECT_EQ(r1.iters, r3.iters);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_NEAR(x1[i], x3[i], 1e-9);
}

TEST(SstepGmres, BitwiseAcrossThreadsWhenRankLanesDispatch) {
  // 32768 rows per rank cross parallel_grain(), so the rank-private
  // lanes really split SpMV, Gram and update kernels; the toy-shape
  // {1,2,7} determinism tests never dispatch.  Over ranks=2, threads=2
  // is still one lane per rank (the threads=1 path), 4 gives each rank
  // an even lane count (2) and 7 an odd one (3).
  const Problem p = make_problem(sparse::laplace2d_9pt(256, 256));
  const std::string spec = "ortho=two_stage rtol=1e-6 max_restarts=1";
  struct RestoreThreads {
    ~RestoreThreads() { par::set_num_threads(0); }
  } restore;
  par::set_num_threads(1);
  const auto [r1, x1] = run_sstep(p, 2, spec);
  for (const unsigned threads : {2u, 4u, 7u}) {
    par::set_num_threads(threads);
    const auto [rt, xt] = run_sstep(p, 2, spec);
    EXPECT_EQ(rt.iters, r1.iters) << "threads=" << threads;
    EXPECT_EQ(rt.comm_stats.allreduces, r1.comm_stats.allreduces)
        << "threads=" << threads;
    EXPECT_EQ(rt.comm_stats.p2p_rounds, r1.comm_stats.p2p_rounds)
        << "threads=" << threads;
    ASSERT_EQ(xt.size(), x1.size());
    for (std::size_t i = 0; i < x1.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(xt[i]),
                std::bit_cast<std::uint64_t>(x1[i]))
          << "threads=" << threads << " row " << i;
    }
  }
}

TEST(SstepGmres, BreakdownPolicyThrowSurfacesIllConditioning) {
  // An extremely ill-conditioned operator with monomial basis and large
  // s will violate condition (5); breakdown=throw must surface it.
  auto s = sparse::make_surrogate("Ga41As41H72", 800);
  const Problem p = make_problem(std::move(s.matrix));
  const std::string spec =
      "ortho=two_stage s=15 bs=60 rtol=1e-10 max_restarts=3";
  bool threw = false;
  try {
    run_sstep(p, 1, spec + " breakdown=throw");
  } catch (const ortho::CholeskyBreakdown&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // Under breakdown=shift the same setup must complete without throwing.
  EXPECT_NO_THROW(run_sstep(p, 1, spec + " breakdown=shift"));
}

}  // namespace
