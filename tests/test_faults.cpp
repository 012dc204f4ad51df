// The fault-injection framework (util/fault.hpp) and the resilience
// layer built on it: plan parsing/round-trip, one-shot deterministic
// firing, site behavior (throw / delay / corrupt) through the real
// solver stack, pinned trail + solution determinism at ranks x threads
// {1,2,7}^2, cooperative cancellation (pre-cancelled tokens, deadlines
// expiring mid-solve, unwinding out of a matrix-powers SpMV), the
// soft-error residual guard, and the vacuous-guard option check.

#include "util/fault.hpp"

#include "api/solver.hpp"
#include "par/config.hpp"
#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

namespace {

using namespace tsbo;
using par::FaultAction;
using par::FaultInjector;
using par::FaultPlan;
using par::FaultSite;

// Small bounded s-step solve (unreachable rtol = fixed restart budget,
// so every run visits the same instrumented-site sequence).
api::SolverOptions bounded_opts(int nx, int ranks) {
  api::SolverOptions o = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage m=20 s=5 bs=20 rtol=1e-300 "
      "max_restarts=2 precond=none matrix=laplace2d_5pt");
  o.nx = nx;
  o.ranks = ranks;
  return o;
}

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  const std::string spec =
      "comm.allreduce@3:throw;spmv.interior@2:corrupt;gram.stage1@1:delay250;"
      "gram.chol@4:corrupt";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.faults[0].site, FaultSite::kCommAllreduce);
  EXPECT_EQ(plan.faults[0].ordinal, 3);
  EXPECT_EQ(plan.faults[0].action, FaultAction::kThrow);
  EXPECT_EQ(plan.faults[1].site, FaultSite::kSpmvInterior);
  EXPECT_EQ(plan.faults[1].action, FaultAction::kCorrupt);
  EXPECT_EQ(plan.faults[2].site, FaultSite::kGramStage1);
  EXPECT_EQ(plan.faults[2].action, FaultAction::kDelay);
  EXPECT_EQ(plan.faults[2].delay_ms, 250);
  EXPECT_EQ(plan.faults[3].site, FaultSite::kGramChol);
  EXPECT_EQ(plan.faults[3].ordinal, 4);
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), spec);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanTest, RejectsMalformedSpecsWithHints) {
  EXPECT_THROW(FaultPlan::parse("comm.allreduce:throw"),
               std::invalid_argument);  // missing @ordinal
  EXPECT_THROW(FaultPlan::parse("comm.allreduce@x:throw"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("comm.allreduce@1:explode"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("comm.allreduce@1:delay"),
               std::invalid_argument);  // delay needs <ms>
  try {
    FaultPlan::parse("comm.allreduc@1:throw");
    FAIL() << "typo site accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean comm.allreduce?"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjectorTest, FiresOnceAtMatchingOrdinalOnly) {
  FaultInjector inj(FaultPlan::parse("spmv.interior@2:delay1"), 2);
  for (int i = 0; i < 5; ++i) {
    inj.consult(0, FaultSite::kSpmvInterior);
    inj.consult(0, FaultSite::kGramStage1);  // other sites don't advance it
  }
  ASSERT_EQ(inj.trail(0).size(), 1u);
  EXPECT_EQ(inj.trail(0)[0].site, FaultSite::kSpmvInterior);
  EXPECT_EQ(inj.trail(0)[0].ordinal, 2);
  EXPECT_EQ(inj.trail(0)[0].attempt, 1);
  EXPECT_TRUE(inj.trail(1).empty());  // rank 1 never consulted

  // A fresh attempt resets the ordinal counters but not the fired
  // flags: the same visit sequence now runs clean.
  inj.begin_attempt(2);
  for (int i = 0; i < 5; ++i) inj.consult(0, FaultSite::kSpmvInterior);
  EXPECT_EQ(inj.trail(0).size(), 1u);
}

TEST(FaultInjectorTest, ThrowFaultCarriesSiteAndOrdinal) {
  FaultInjector inj(FaultPlan::parse("comm.allreduce@1:throw"), 1);
  inj.consult(0, FaultSite::kCommAllreduce);
  try {
    inj.consult(0, FaultSite::kCommAllreduce);
    FAIL() << "no fault fired";
  } catch (const par::InjectedFault& e) {
    EXPECT_EQ(e.site(), FaultSite::kCommAllreduce);
    EXPECT_EQ(e.ordinal(), 1);
    EXPECT_NE(std::string(e.what()).find("comm.allreduce#1"),
              std::string::npos);
  }
}

TEST(FaultInjectorTest, FlipBitIsASelfInverse2Pow64Scale) {
  // XORing exponent bit 58 rescales by 2^64 — up or down depending on
  // the value's exponent (1.5's has the bit set, so it shrinks).
  double v = 1.5;
  FaultInjector::flip_bit(v);
  EXPECT_EQ(v, 1.5 * 0x1p-64);
  FaultInjector::flip_bit(v);
  EXPECT_EQ(v, 1.5);
  double w = 3.0 * 0x1p-80;  // exponent bit clear: grows
  FaultInjector::flip_bit(w);
  EXPECT_EQ(w, 3.0 * 0x1p-16);
}

TEST(FaultSolveTest, ThrowFaultAbortsEveryRankCleanly) {
  for (const auto& [spec, site] :
       {std::pair{"comm.allreduce@2:throw", FaultSite::kCommAllreduce},
        std::pair{"gram.chol@2:throw", FaultSite::kGramChol}}) {
    for (const int ranks : {1, 2, 7}) {
      api::SolverOptions opts = bounded_opts(24, ranks);
      opts.faults = spec;
      api::Solver solver(opts);
      try {
        (void)solver.solve();
        FAIL() << "injected throw did not surface (" << spec
               << ", ranks=" << ranks << ")";
      } catch (const par::InjectedFault& e) {
        EXPECT_EQ(e.site(), site);
        EXPECT_EQ(e.ordinal(), 2);
      }
      // The runtime is reusable after the unwind: a clean solve works.
      api::Solver clean(bounded_opts(24, ranks));
      EXPECT_NO_THROW((void)clean.solve());
    }
  }
}

TEST(FaultSolveTest, GramCholCorruptForcesBreakdownThroughThePolicy) {
  // A corrupt at `gram.chol` makes that one Gram Cholesky report
  // indefinite: breakdown=shift recovers with a shifted retry,
  // breakdown=throw surfaces the ordinary CholeskyBreakdown.
  for (const int ranks : {1, 2}) {
    api::SolverOptions opts = bounded_opts(24, ranks);
    opts.faults = "gram.chol@1:corrupt";
    api::Solver shifted(opts);
    const api::SolveReport report = shifted.solve();
    EXPECT_EQ(report.result.cholesky_breakdowns, 1) << "ranks=" << ranks;
    EXPECT_GE(report.result.shift_retries, 1) << "ranks=" << ranks;
    ASSERT_EQ(report.resilience.fault_trail.size(), 1u);
    EXPECT_EQ(report.resilience.fault_trail[0].site, FaultSite::kGramChol);
    EXPECT_EQ(report.resilience.fault_trail[0].ordinal, 1);

    opts.breakdown = "throw";
    api::Solver thrown(opts);
    EXPECT_THROW((void)thrown.solve(), ortho::CholeskyBreakdown)
        << "ranks=" << ranks;
  }
}

TEST(FaultSolveTest, DelayFaultLeavesValuesUntouched) {
  const api::SolverOptions clean_opts = bounded_opts(24, 2);
  api::Solver clean(clean_opts);
  (void)clean.solve();

  api::SolverOptions opts = clean_opts;
  opts.faults = "spmv.interior@0:delay20;gram.stage1@1:delay20";
  api::Solver delayed(opts);
  const api::SolveReport report = delayed.solve();
  EXPECT_EQ(delayed.solution(), clean.solution());
  ASSERT_EQ(report.resilience.fault_trail.size(), 2u);
  EXPECT_EQ(report.resilience.fault_trail[0].action, FaultAction::kDelay);
  EXPECT_EQ(report.resilience.outcome, "ok");
}

TEST(FaultSolveTest, CorruptSchedulePinnedAcrossRanksBitwiseAcrossThreads) {
  // Corrupt actions restricted to the globally-addressed sites
  // (spmv.interior / comm.exchange), where the corrupted row is
  // rank-count-invariant by construction.  Within a rank count the
  // faulted solution must be bitwise identical at every thread count
  // (the library-wide determinism contract).  Across rank counts the
  // partitioned reduction folds round differently — solutions are only
  // close — but the fault schedule (site, ordinal, action, attempt)
  // must replay identically, matching the autopilot acceptance matrix.
  const std::string plan =
      "spmv.interior@1:corrupt;comm.exchange@4:corrupt;gram.stage1@2:delay1";
  std::vector<par::FaultRecord> trail_ref;
  for (const int ranks : {1, 2, 7}) {
    std::vector<double> x_rank;  // threads=1 reference at this rank count
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      api::SolverOptions opts = bounded_opts(28, ranks);
      opts.faults = plan;
      api::Solver solver(opts);
      const api::SolveReport report = solver.solve();
      par::set_num_threads(0);
      const auto& trail = report.resilience.fault_trail;
      if (trail_ref.empty()) {
        trail_ref = trail;
        ASSERT_EQ(trail_ref.size(), 3u);
      } else {
        ASSERT_EQ(trail.size(), trail_ref.size())
            << "ranks=" << ranks << " threads=" << threads;
        for (std::size_t i = 0; i < trail.size(); ++i) {
          EXPECT_EQ(trail[i].site, trail_ref[i].site);
          EXPECT_EQ(trail[i].ordinal, trail_ref[i].ordinal);
          EXPECT_EQ(trail[i].action, trail_ref[i].action);
          EXPECT_EQ(trail[i].attempt, trail_ref[i].attempt);
        }
      }
      if (threads == 1u) {
        x_rank = solver.solution();
      } else {
        EXPECT_EQ(solver.solution(), x_rank)
            << "ranks=" << ranks << " threads=" << threads;
      }
    }
    // And the corruption really happened at this rank count: the
    // solution differs from the same-rank clean run's.
    api::Solver clean(bounded_opts(28, ranks));
    (void)clean.solve();
    EXPECT_NE(x_rank, clean.solution()) << "ranks=" << ranks;
  }
}

TEST(CancelTest, PreCancelledTokenStopsBeforeAnyIteration) {
  for (const int ranks : {1, 2}) {
    par::CancelToken token;
    token.cancel();
    api::Solver solver(bounded_opts(24, ranks));
    solver.set_cancel_token(&token);
    const api::SolveReport report = solver.solve();
    EXPECT_TRUE(report.result.cancelled);
    EXPECT_FALSE(report.result.deadline_expired);
    EXPECT_EQ(report.result.iters, 0);
    EXPECT_FALSE(report.result.converged);
    EXPECT_EQ(report.resilience.outcome, "cancelled");
  }
}

TEST(CancelTest, DeadlineExpiresMidSolveAndGuardSkips) {
  // A delay fault stretches the first restart past the deadline; the
  // restart-boundary poll then stops the solve cooperatively.  The
  // residual guard refuses to judge the partial iterate.
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.max_restarts = 50;
  opts.deadline_ms = 40;
  opts.verify_residual = 1;
  opts.rtol = 1e-8;
  opts.faults = "spmv.interior@0:delay250";
  api::Solver solver(opts);
  const api::SolveReport report = solver.solve();
  EXPECT_TRUE(report.result.deadline_expired);
  EXPECT_FALSE(report.result.cancelled);
  EXPECT_EQ(report.resilience.outcome, "timed_out");
  EXPECT_EQ(report.resilience.guard_verdict, "skipped");
  EXPECT_LT(report.result.restarts, 50);
}

TEST(CancelTest, ThrowInsideSpmvUnwindsCleanlyAndRuntimeStaysUsable) {
  // A throw at the spmv site fires on every rank after the SpMV's halo
  // exchange has closed (DistCsr consults its fault sites after
  // exchange_end), so unwinding leaves no half-open communication.  No
  // deadlock, and a clean solve runs afterwards on the same runtime.
  for (const int ranks : {2, 7}) {
    api::SolverOptions opts = bounded_opts(28, ranks);
    opts.faults = "spmv.interior@7:throw";
    api::Solver solver(opts);
    EXPECT_THROW((void)solver.solve(), par::InjectedFault);
    api::Solver clean(bounded_opts(28, ranks));
    EXPECT_NO_THROW((void)clean.solve());
  }
}

TEST(GuardTest, PassesOnCleanConvergedSolve) {
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.rtol = 1e-8;
  opts.max_restarts = 1000000;
  opts.verify_residual = 1;
  api::Solver solver(opts);
  const api::SolveReport report = solver.solve();
  ASSERT_TRUE(report.result.converged);
  EXPECT_EQ(report.resilience.guard_verdict, "ok");
  EXPECT_EQ(report.resilience.outcome, "ok");
  EXPECT_TRUE(report.resilience.guard_enabled);
  EXPECT_GT(report.resilience.guard_tolerance, 0.0);
  EXPECT_LE(report.resilience.guard_true_relres,
            report.resilience.guard_tolerance);
}

TEST(GuardTest, TransientSpmvCorruptionSelfHealsUnderGuard) {
  // A transient soft error in the matrix-powers kernel perturbs one
  // Krylov basis entry O(1), but the solver only banks progress it can
  // confirm against explicitly recomputed restart residuals (the
  // self-correcting property Carson–Ma exploit), so the corruption
  // costs iterations, never correctness — and the serial guard
  // recompute agrees with the reported residual.  The verdict that
  // does fire is persistent-state corruption, where solve and guard
  // see different operators: the service's cached-matrix dispatch
  // site, pinned end-to-end in test_service.cpp.
  api::SolverOptions clean_opts = bounded_opts(24, 2);
  clean_opts.rtol = 1e-8;
  clean_opts.max_restarts = 1000000;
  clean_opts.verify_residual = 1;
  api::Solver clean(clean_opts);
  const api::SolveReport clean_report = clean.solve();
  ASSERT_TRUE(clean_report.result.converged);
  EXPECT_EQ(clean_report.resilience.guard_verdict, "ok");

  api::SolverOptions opts = clean_opts;
  opts.faults = "spmv.interior@9:corrupt";
  api::Solver solver(opts);
  const api::SolveReport report = solver.solve();
  ASSERT_EQ(report.resilience.fault_trail.size(), 1u);
  EXPECT_EQ(report.resilience.fault_trail[0].site, FaultSite::kSpmvInterior);
  EXPECT_EQ(report.resilience.fault_trail[0].action, FaultAction::kCorrupt);
  // The corruption detoured the iteration (extra restarts to re-earn
  // the poisoned progress) yet the final answer satisfies both the
  // solver's own tolerance and the independent guard recompute.
  EXPECT_GT(report.result.iters, clean_report.result.iters);
  EXPECT_TRUE(report.result.converged);
  EXPECT_EQ(report.resilience.guard_verdict, "ok");
  EXPECT_EQ(report.resilience.outcome, "ok");
  EXPECT_LE(report.resilience.guard_true_relres,
            report.resilience.guard_tolerance);
  EXPECT_NE(solver.solution(), clean.solution());
}

TEST(GuardTest, VacuousGuardComboIsRejected) {
  api::SolverOptions opts = bounded_opts(24, 1);
  opts.verify_residual = 1;
  opts.rtol = 0.5;  // 100 * rtol >= 1: the guard could never fire
  try {
    opts.validate();
    FAIL() << "vacuous guard combo accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean a converging"),
              std::string::npos)
        << e.what();
  }
  opts.rtol = 1e-8;
  EXPECT_NO_THROW(opts.validate());
}

TEST(GuardTest, FaultOptionsAreRangeValidated) {
  api::SolverOptions opts = bounded_opts(24, 1);
  opts.deadline_ms = -1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.deadline_ms = 0;
  opts.retries = -2;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.retries = 0;
  opts.verify_residual = 2;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.verify_residual = 0;
  opts.faults = "not a plan";
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.faults = "";
  EXPECT_NO_THROW(opts.validate());
}

TEST(ChecksumTest, DetectsValueAndStructureMutation) {
  sparse::CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx.resize(2);
  a.col_idx[0] = 0;
  a.col_idx[1] = 1;
  a.values.resize(2);
  a.values[0] = 1.0;
  a.values[1] = 2.0;
  const std::uint64_t ref = a.checksum();
  EXPECT_EQ(a.checksum(), ref);  // stable

  FaultInjector::flip_bit(a.values[1]);
  EXPECT_NE(a.checksum(), ref);
  FaultInjector::flip_bit(a.values[1]);
  EXPECT_EQ(a.checksum(), ref);

  a.col_idx[1] = 0;
  EXPECT_NE(a.checksum(), ref);
}

TEST(CancelTokenTest, FlagAndDeadlineSemantics) {
  par::CancelToken token;
  EXPECT_FALSE(token.should_stop());
  token.set_deadline_after(std::chrono::milliseconds(10000));
  EXPECT_FALSE(token.deadline_expired());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.should_stop());

  par::CancelToken expired;
  expired.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_TRUE(expired.deadline_expired());
  EXPECT_FALSE(expired.cancelled());
}

}  // namespace
