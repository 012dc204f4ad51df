// The stability autopilot: adaptive step-size ladder, on-demand
// double-double Gram escalation, and re-base recovery from
// CholeskyBreakdown — driven both through the api facade (the natural
// ill-conditioned breakdown the Ga41As41H72 surrogate provides) and
// through the krylov layer directly with `gram.chol` faults from a
// FaultPlan installed on the rank communicators.
// Every decision consumes globally-reduced quantities only, so the
// trails and the solutions are checked for determinism across thread
// and rank counts.

#include "api/solver.hpp"
#include "krylov/sstep_gmres.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "sparse/generators.hpp"
#include "sparse/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

namespace {

using namespace tsbo;

// The pinned natural-breakdown configuration (see test_sstep_gmres's
// BreakdownPolicyThrowSurfacesIllConditioning): s = 15 monomial steps
// on the Ga41As41H72 surrogate violate condition (5) and the plain
// double Gram Cholesky fails.
constexpr const char* kRampSpec =
    "solver=sstep ortho=two_stage matrix=Ga41As41H72 n=800 equilibrate=1 "
    "m=60 s=15 bs=60 rtol=1e-8 breakdown=throw max_restarts=40";

/// Sequence of (kind, s_before, s_after, dd_before, dd_after, restart)
/// — the decision trail stripped of the kappa estimates, for exact
/// comparison across runs.
std::vector<std::string> trail_of(const krylov::SolveResult& res) {
  std::vector<std::string> out;
  for (const krylov::AutopilotEvent& ev : res.autopilot_events) {
    out.push_back(ev.kind + "@" + std::to_string(ev.restart) + ":" +
                  std::to_string(ev.s_before) + "->" +
                  std::to_string(ev.s_after) + ":" +
                  (ev.dd_before ? "dd" : "d") + "->" +
                  (ev.dd_after ? "dd" : "d"));
  }
  return out;
}

struct DirectRun {
  krylov::SolveResult res;
  std::vector<double> x;
};

/// A fresh injector forcing the `ordinal`-th Gram Cholesky to report
/// indefinite (fired faults never re-fire, so each run needs its own).
par::FaultInjector chol_fault(long ordinal, int ranks) {
  return par::FaultInjector(
      par::FaultPlan::parse("gram.chol@" + std::to_string(ordinal) + ":corrupt"),
      ranks);
}

/// Runs two-stage s-step GMRES at the krylov layer (full config
/// access) on `ranks` SPMD ranks, with `injector` (optional) installed
/// on every rank's communicator.
DirectRun run_direct(
    const sparse::CsrMatrix& a, int ranks,
    const std::function<void(krylov::SStepGmresConfig&)>& tweak,
    par::FaultInjector* injector = nullptr) {
  const std::vector<double> b = api::ones_rhs(a);
  DirectRun out;
  out.x.assign(b.size(), 0.0);
  par::spmd_run(ranks, [&](par::Communicator& comm) {
    comm.set_fault_injector(injector);
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 0.0);
    krylov::SStepGmresConfig cfg;  // default factory: two-stage
    tweak(cfg);
    const auto rows = static_cast<dense::index_t>(nloc);
    const auto res = krylov::sstep_gmres(
        comm, dist, nullptr, dense::ConstMatrixView{b.data() + begin, rows, 1, rows},
        dense::MatrixView{x.data(), rows, 1, rows}, cfg);
    std::copy(x.begin(), x.end(),
              out.x.begin() + static_cast<std::ptrdiff_t>(begin));
    if (comm.rank() == 0) out.res = res;
  });
  return out;
}

// ---------------------------------------------------------------------------
// The acceptance bar: a solve that aborts under the fixed configuration
// completes under the autopilot, with the decisions in the report.
// ---------------------------------------------------------------------------

TEST(Autopilot, CompletesWhereFixedConfigAborts) {
  // Fixed config: abort.
  {
    api::Solver solver(api::SolverOptions::parse(kRampSpec));
    EXPECT_THROW(solver.solve(), ortho::CholeskyBreakdown);
  }
  // Same problem, autopilot on: completes to tolerance, and the report
  // carries the decision trail (schema tsbo.solve_report/9).
  api::SolverOptions opts = api::SolverOptions::parse(kRampSpec);
  opts.autopilot = true;
  api::Solver solver(opts);
  const api::SolveReport rep = solver.solve();

  EXPECT_TRUE(rep.result.converged);
  EXPECT_LE(rep.result.true_relres, 1e-7);
  EXPECT_GE(rep.result.rebase_recoveries, 1);
  EXPECT_LT(rep.result.autopilot_final_s, 15);
  ASSERT_FALSE(rep.result.autopilot_events.empty());
  bool shrank = false;
  for (const auto& ev : rep.result.autopilot_events) {
    if (ev.kind == "shrink_s") shrank = true;
  }
  EXPECT_TRUE(shrank);

  const std::string text = rep.json();
  for (const char* needle :
       {"\"schema\": \"tsbo.solve_report/9\"", "\"autopilot\"",
        "\"enabled\": true", "\"rebase_recoveries\"", "\"final_s\"",
        "\"kind\": \"shrink_s\"", "\"kind\": \"rebase\""}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }
}

// ---------------------------------------------------------------------------
// Policy ladder, rung by rung.
// ---------------------------------------------------------------------------

TEST(Autopilot, ShrinksStepSizeOnHighKappaEstimate) {
  // An absurdly low kappa_high makes every cycle look ill-conditioned:
  // the first decision must be shrink_s, and the ladder must walk the
  // divisors of m downward, never below ap_s_min.  The 64x64 grid keeps
  // all 4 cycles solidly mid-convergence — a near-converged basis adds
  // degenerate-direction breakdowns that belong to other tests.
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=64 "
      "rtol=1e-30 max_restarts=4 autopilot=1 ap_kappa_high=1.5 "
      "ap_kappa_low=1.0 ap_s_min=2"));
  const api::SolveReport rep = solver.solve();

  ASSERT_FALSE(rep.result.autopilot_events.empty());
  EXPECT_EQ(rep.result.autopilot_events.front().kind, "shrink_s");
  for (const auto& ev : rep.result.autopilot_events) {
    if (ev.kind != "shrink_s") {
      // Once the ladder bottoms out at ap_s_min the only move left is
      // the Gram escalation; nothing else fits this policy.
      EXPECT_EQ(ev.kind, "escalate_gram");
      continue;
    }
    EXPECT_LT(ev.s_after, ev.s_before);
    EXPECT_GE(ev.s_after, 2);       // ap_s_min
    EXPECT_EQ(60 % ev.s_after, 0);  // ladder rungs divide m
  }
  EXPECT_LT(rep.result.autopilot_final_s, 5);
  EXPECT_GE(rep.result.autopilot_final_s, 2);
}

TEST(Autopilot, EscalatesGramWhenLadderSaturated) {
  // ap_s_min = s leaves a one-rung ladder, so the only escalation left
  // is the double-double Gram.
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=64 "
      "rtol=1e-30 max_restarts=3 autopilot=1 ap_kappa_high=1.5 "
      "ap_kappa_low=1.0 ap_s_min=5"));
  const api::SolveReport rep = solver.solve();

  ASSERT_FALSE(rep.result.autopilot_events.empty());
  EXPECT_EQ(rep.result.autopilot_events.front().kind, "escalate_gram");
  EXPECT_TRUE(rep.result.autopilot_final_dd);
  EXPECT_EQ(rep.result.autopilot_final_s, 5);
}

TEST(Autopilot, GrowsBackAfterHealthyCycles) {
  // Inject a breakdown into the very first Gram Cholesky: the autopilot
  // re-bases and shrinks.  Every later cycle is healthy (Laplace panels
  // sit far below kappa_low = 1e7), so with patience = 1 the ladder
  // relaxes straight back to the configured s after one good cycle, and
  // stays there — exactly three decisions in the whole solve.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(64, 64);
  par::FaultInjector injector = chol_fault(0, 1);
  const DirectRun run = run_direct(
      a, 1,
      [](krylov::SStepGmresConfig& cfg) {
        cfg.rtol = 1e-8;
        cfg.autopilot.enabled = true;
        cfg.autopilot.kappa_high = 1e8;
        cfg.autopilot.kappa_low = 1e7;
        cfg.autopilot.patience = 1;
      },
      &injector);

  EXPECT_TRUE(run.res.converged);
  EXPECT_EQ(run.res.rebase_recoveries, 1);
  std::vector<std::string> kinds;
  for (const auto& ev : run.res.autopilot_events) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<std::string>{"rebase", "shrink_s", "grow_s"}))
      << ::testing::PrintToString(kinds);
  EXPECT_EQ(run.res.autopilot_final_s, 5);  // back at the configured s
  EXPECT_FALSE(run.res.autopilot_final_dd);
}

// ---------------------------------------------------------------------------
// `gram.chol` fault site.
// ---------------------------------------------------------------------------

TEST(Autopilot, InjectionSeamIsDeterministicAndHonorsThrowPolicy) {
  // The site sees every Gram Cholesky exactly once, in a fixed global
  // order; with the autopilot OFF and policy=throw, a forced failure
  // surfaces as the ordinary CholeskyBreakdown abort — and only the
  // planned ordinal fires.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(16, 16);
  par::FaultInjector injector = chol_fault(3, 1);
  EXPECT_THROW(run_direct(
                   a, 1,
                   [](krylov::SStepGmresConfig& cfg) {
                     cfg.policy = ortho::BreakdownPolicy::kThrow;
                   },
                   &injector),
               ortho::CholeskyBreakdown);
  const std::vector<par::FaultRecord>& fired = injector.trail();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].site, par::FaultSite::kGramChol);
  EXPECT_EQ(fired[0].ordinal, 3);
  EXPECT_EQ(fired[0].action, par::FaultAction::kCorrupt);
}

TEST(Autopilot, ForcedMidSolveBreakdownRecoversBitwiseAcrossThreads) {
  // Force a failure deep in the first cycle (ordinal 7 = a stage-1
  // panel factor mid-restart): the autopilot re-bases off the accepted
  // prefix, converges anyway, and — because every decision input is a
  // globally-reduced scalar — the whole run is bitwise identical at
  // every thread count.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(24, 24);
  const auto tweak = [](krylov::SStepGmresConfig& cfg) {
    cfg.rtol = 1e-8;
    cfg.autopilot.enabled = true;
  };

  std::vector<std::string> trail0;
  std::vector<double> x0;
  long iters0 = -1;
  for (const unsigned t : {1u, 2u, 7u}) {
    par::set_num_threads(t);
    par::FaultInjector injector = chol_fault(7, 2);
    const DirectRun run = run_direct(a, 2, tweak, &injector);
    par::set_num_threads(0);
    EXPECT_TRUE(run.res.converged) << "threads=" << t;
    EXPECT_GE(run.res.rebase_recoveries, 1) << "threads=" << t;
    if (t == 1u) {
      trail0 = trail_of(run.res);
      x0 = run.x;
      iters0 = run.res.iters;
      continue;
    }
    EXPECT_EQ(trail_of(run.res), trail0) << "threads=" << t;
    EXPECT_EQ(run.res.iters, iters0) << "threads=" << t;
    ASSERT_EQ(run.x.size(), x0.size());
    for (std::size_t i = 0; i < x0.size(); ++i) {
      ASSERT_EQ(run.x[i], x0[i]) << "threads=" << t << " drift at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism of the full recovery path across the acceptance matrix.
// ---------------------------------------------------------------------------

TEST(Autopilot, RecoveryBitwiseAcrossThreadsAndStableAcrossRanks) {
  // The acceptance matrix: ranks x threads in {1, 2, 7}^2 on a forced
  // first-cycle breakdown, so the run provably walks rebase + shrink +
  // grow.  Within a rank count, everything — solution bits, iteration
  // count, decision trail — must be identical across thread counts.
  // Across rank counts the reductions round differently (the
  // partitioned fold order changes), so solutions are only close; but
  // on a solve this far from any conditioning edge the decision trail
  // must still come out identical.
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(64, 64);
  const auto tweak = [](krylov::SStepGmresConfig& cfg) {
    cfg.rtol = 1e-8;
    cfg.autopilot.enabled = true;
    cfg.autopilot.patience = 1;
  };

  std::vector<std::string> ref_trail;
  for (const int ranks : {1, 2, 7}) {
    std::vector<std::string> trail_t1;
    std::vector<double> x_t1;
    long iters_t1 = -1;
    for (const unsigned t : {1u, 2u, 7u}) {
      par::set_num_threads(t);
      par::FaultInjector injector = chol_fault(0, ranks);
      const DirectRun run = run_direct(a, ranks, tweak, &injector);
      par::set_num_threads(0);
      ASSERT_TRUE(run.res.converged) << ranks << "x" << t;
      ASSERT_FALSE(run.res.autopilot_events.empty()) << ranks << "x" << t;
      EXPECT_GE(run.res.rebase_recoveries, 1) << ranks << "x" << t;

      if (t == 1u) {
        trail_t1 = trail_of(run.res);
        x_t1 = run.x;
        iters_t1 = run.res.iters;
      } else {
        EXPECT_EQ(trail_of(run.res), trail_t1) << ranks << "x" << t;
        EXPECT_EQ(run.res.iters, iters_t1) << ranks << "x" << t;
        ASSERT_EQ(run.x.size(), x_t1.size());
        for (std::size_t i = 0; i < x_t1.size(); ++i) {
          ASSERT_EQ(run.x[i], x_t1[i])
              << ranks << "x" << t << " drift at " << i;
        }
      }
    }
    // Decisions consume globally-reduced scalars only: the trail is a
    // pure function of those values, and on this problem they land on
    // the same side of every threshold at each rank count.
    if (ranks == 1) {
      ref_trail = trail_t1;
    } else {
      EXPECT_EQ(trail_t1, ref_trail) << "ranks=" << ranks;
    }
  }
}

}  // namespace
