// The persistent solver service: keyed operator cache (hit/miss/LRU
// eviction under a byte budget), bounded-FIFO job scheduling
// determinism, bitwise equivalence of cached solves with standalone
// api::Solver runs at ranks x threads {1,2,7}^2, warm-started repeat
// solves, and the /5 report's service object.

#include "service/solver_service.hpp"

#include "api/solver.hpp"
#include "par/config.hpp"
#include "service/operator_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;

// Small fixed-budget s-step solve (an unreachable rtol runs the whole
// restart budget, so iteration counts and solutions are
// schedule-independent).
api::SolverOptions bounded_opts(int nx, int ranks) {
  api::SolverOptions o = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage m=20 s=5 bs=20 rtol=1e-300 "
      "max_restarts=1 precond=chebyshev matrix=laplace2d_5pt");
  o.nx = nx;
  o.ranks = ranks;
  return o;
}

TEST(Service, CacheHitBitwiseIdenticalAcrossRanksThreads) {
  for (const int ranks : {1, 2, 7}) {
    for (const unsigned threads : {1u, 2u, 7u}) {
      par::set_num_threads(threads);
      const api::SolverOptions opts = bounded_opts(28, ranks);

      api::Solver standalone(opts);
      const api::SolveReport ref = standalone.solve();
      const std::vector<double> x_ref = standalone.solution();
      EXPECT_FALSE(ref.service.enabled);

      service::SolverService svc;
      const service::JobResult cold = svc.wait(svc.submit(opts));
      const service::JobResult warm = svc.wait(svc.submit(opts));

      ASSERT_TRUE(cold.error.empty()) << cold.error;
      ASSERT_TRUE(warm.error.empty()) << warm.error;
      EXPECT_FALSE(cold.report.service.cache_hit);
      EXPECT_TRUE(warm.report.service.cache_hit);
      EXPECT_TRUE(warm.report.service.reused_precond_setup);
      EXPECT_TRUE(warm.report.service.reused_rhs);
      EXPECT_TRUE(cold.report.service.enabled);
      EXPECT_GT(cold.report.service.setup_seconds, 0.0);
      EXPECT_EQ(warm.report.service.setup_seconds, 0.0);

      // The determinism pin: service solves (cold and cached) are
      // bitwise-identical to the standalone facade run, at every rank
      // and thread count.
      EXPECT_EQ(cold.solution, x_ref)
          << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(warm.solution, x_ref)
          << "ranks=" << ranks << " threads=" << threads;
      EXPECT_EQ(cold.report.result.iters, ref.result.iters);
      EXPECT_EQ(warm.report.result.iters, ref.result.iters);
    }
  }
  par::set_num_threads(0);  // restore the default thread count
}

TEST(Service, OperatorCacheKeyCoversOperatorNotAlgorithm) {
  const api::SolverOptions a = bounded_opts(24, 2);
  api::SolverOptions b = a;
  b.s = 4;
  b.precond = "none";
  b.rtol = 1e-3;  // algorithm knobs: same operator
  EXPECT_EQ(service::operator_cache_key(a), service::operator_cache_key(b));
  api::SolverOptions c = a;
  c.nx = 25;  // geometry: different operator
  api::SolverOptions d = a;
  d.ranks = 3;  // partition: different operator
  EXPECT_NE(service::operator_cache_key(a), service::operator_cache_key(c));
  EXPECT_NE(service::operator_cache_key(a), service::operator_cache_key(d));
}

TEST(Service, LruEvictionUnderByteBudget) {
  // Sizes descending so the third (smallest) entry's post-solve growth
  // keeps two entries under a budget sized for the first two.
  const api::SolverOptions a = bounded_opts(32, 2);
  const api::SolverOptions b = bounded_opts(28, 2);
  const api::SolverOptions c = bounded_opts(24, 2);

  // Measure each operator's grown (post-solve) footprint.
  const auto grown_bytes = [](const api::SolverOptions& opts) {
    service::SolverService svc;
    (void)svc.wait(svc.submit(opts));
    return svc.cache().total_bytes();
  };
  const std::size_t ga = grown_bytes(a);
  const std::size_t gb = grown_bytes(b);
  const std::size_t gc = grown_bytes(c);
  ASSERT_GT(gc, 0u);
  ASSERT_LT(gc, ga);

  service::ServiceConfig cfg;
  cfg.cache_budget_bytes = ga + gb;  // two entries fit, three never do
  service::SolverService svc(cfg);
  (void)svc.wait(svc.submit(a));
  (void)svc.wait(svc.submit(b));
  EXPECT_EQ(svc.cache().size(), 2u);
  EXPECT_EQ(svc.cache_stats().evictions, 0u);

  (void)svc.wait(svc.submit(c));
  // Inserting C overflows the budget: A (least recently used) goes.
  EXPECT_EQ(svc.cache_stats().evictions, 1u);
  EXPECT_EQ(svc.cache().size(), 2u);
  EXPECT_FALSE(svc.cache().contains(service::operator_cache_key(a)));
  EXPECT_TRUE(svc.cache().contains(service::operator_cache_key(b)));
  EXPECT_TRUE(svc.cache().contains(service::operator_cache_key(c)));

  // A solves again — as a fresh miss.
  const service::JobResult again = svc.wait(svc.submit(a));
  EXPECT_FALSE(again.report.service.cache_hit);
  EXPECT_EQ(svc.cache_stats().misses, 4u);
  EXPECT_LE(svc.cache().total_bytes(), cfg.cache_budget_bytes);
}

TEST(Service, QueueFifoDispatchOrderIsSubmissionOrder) {
  par::set_num_threads(1);  // fully sequential: completion == dispatch
  std::vector<std::vector<double>> first_run;
  for (int run = 0; run < 2; ++run) {
    service::ServiceConfig cfg;
    cfg.queue_capacity = 4;  // smaller than the burst: submit blocks
    service::SolverService svc(cfg);
    std::vector<std::uint64_t> ids;
    for (const int nx : {24, 28, 24, 32, 28, 24}) {
      ids.push_back(svc.submit(bounded_opts(nx, 2)));
    }
    const std::vector<service::JobResult> results = svc.drain();
    ASSERT_EQ(results.size(), ids.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].error.empty()) << results[i].error;
      EXPECT_EQ(results[i].id, ids[i]);  // drain: submission (id) order
      // Jobs are dispatched strictly in submission order at any lane
      // count (unit chunks off one monotone cursor).
      EXPECT_EQ(results[i].dispatch_seq, static_cast<std::uint64_t>(i));
    }
    if (run == 0) {
      for (const service::JobResult& r : results) {
        first_run.push_back(r.solution);
      }
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].solution, first_run[i]) << "job " << i;
      }
    }
  }
  par::set_num_threads(0);
}

TEST(Service, WarmStartCutsIterationsOnPerturbedRhsRepeat) {
  api::SolverOptions opts = bounded_opts(32, 2);
  opts.rtol = 1e-8;
  opts.max_restarts = 1000000;

  api::Solver solver(opts);
  const std::vector<double> b = api::ones_rhs(solver.matrix());
  std::vector<double> b_perturbed = b;
  for (double& v : b_perturbed) v *= 1.0 + 1e-6;

  // Cold baseline for the perturbed system.
  api::Solver cold_solver(opts);
  cold_solver.set_rhs(b_perturbed);
  const api::SolveReport cold = cold_solver.solve();
  ASSERT_TRUE(cold.result.converged);

  service::SolverService svc;
  // Seed solve against the original RHS...
  (void)svc.wait(svc.submit(opts));
  // ...then the perturbed-RHS repeat, warm-started from its solution.
  api::SolverOptions warm_opts = opts;
  warm_opts.warm_start = 1;
  const service::JobResult warm = svc.wait(svc.submit(warm_opts, b_perturbed));
  ASSERT_TRUE(warm.error.empty()) << warm.error;
  EXPECT_TRUE(warm.report.service.warm_started);
  EXPECT_FALSE(warm.report.service.reused_rhs);
  EXPECT_TRUE(warm.report.result.converged);
  EXPECT_LT(warm.report.result.iters, cold.result.iters);

  // warm_start=0 on the same repeat stays bit-for-bit cold.
  service::SolverService svc2;
  (void)svc2.wait(svc2.submit(opts));
  const service::JobResult repeat =
      svc2.wait(svc2.submit(opts, b_perturbed));
  ASSERT_TRUE(repeat.error.empty()) << repeat.error;
  EXPECT_FALSE(repeat.report.service.warm_started);
  EXPECT_EQ(repeat.report.result.iters, cold.result.iters);
  EXPECT_EQ(repeat.solution, cold_solver.solution());
}

TEST(Service, ReportCarriesServiceObject) {
  service::SolverService svc;
  const api::SolverOptions opts = bounded_opts(24, 2);
  (void)svc.wait(svc.submit(opts));
  const service::JobResult warm = svc.wait(svc.submit(opts));
  const std::string json = warm.report.json();
  EXPECT_NE(json.find("\"schema\": \"tsbo.solve_report/9\""),
            std::string::npos);
  EXPECT_NE(json.find("\"service\": {"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\": true"), std::string::npos);
  EXPECT_NE(json.find("\"warm_started\": false"), std::string::npos);
  EXPECT_NE(json.find("\"reused\": {"), std::string::npos);
  EXPECT_NE(json.find("\"cache_key\": \"" +
                      service::operator_cache_key(opts) + "\""),
            std::string::npos);
  // Standalone solves emit the same object shape, disabled.
  api::Solver standalone(opts);
  const std::string off = standalone.solve().json();
  EXPECT_NE(off.find("\"service\": {"), std::string::npos);
  EXPECT_NE(off.find("\"enabled\": false"), std::string::npos);
}

TEST(Service, RetryAfterCorruptedDispatchIsBitwiseClean) {
  // service.dispatch@0:corrupt flips one value of the *cached* global
  // matrix after the pieces were built: the solve converges on the
  // clean pieces, but the residual guard recomputes against the
  // corrupted cached matrix and flags the job.  The retry re-validates
  // the checksum, invalidates the poisoned entry, rebuilds it, and —
  // the injected fault being one-shot — completes bitwise-identical to
  // a never-faulted run.
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.rtol = 1e-8;
  opts.max_restarts = 1000000;
  opts.verify_residual = 1;

  service::SolverService clean_svc;
  const service::JobResult clean = clean_svc.wait(clean_svc.submit(opts));
  ASSERT_EQ(clean.outcome, service::JobOutcome::kOk);

  api::SolverOptions faulty = opts;
  faulty.faults = "service.dispatch@0:corrupt";
  faulty.retries = 1;
  service::SolverService svc;
  const service::JobResult retried = svc.wait(svc.submit(faulty));
  EXPECT_EQ(retried.outcome, service::JobOutcome::kOk);
  EXPECT_EQ(retried.attempts, 2);
  EXPECT_EQ(retried.solution, clean.solution);
  EXPECT_EQ(retried.report.result.iters, clean.report.result.iters);
  EXPECT_EQ(retried.report.resilience.outcome, "ok");
  EXPECT_EQ(retried.report.resilience.attempts, 2);
  // The poisoned entry was invalidated and rebuilt: 2 misses, and the
  // invalidation counts as an eviction.
  EXPECT_EQ(svc.cache_stats().misses, 2u);
  EXPECT_EQ(svc.cache_stats().evictions, 1u);
  // The trail names the dispatch corruption, fired in attempt 1.
  ASSERT_EQ(retried.report.resilience.fault_trail.size(), 1u);
  EXPECT_EQ(retried.report.resilience.fault_trail[0].site,
            par::FaultSite::kServiceDispatch);
  EXPECT_EQ(retried.report.resilience.fault_trail[0].attempt, 1);

  // Without retries the same job terminates as corrupted — the queue
  // still drains.
  service::SolverService svc2;
  api::SolverOptions no_retry = faulty;
  no_retry.retries = 0;
  const service::JobResult stuck = svc2.wait(svc2.submit(no_retry));
  EXPECT_EQ(stuck.outcome, service::JobOutcome::kCorrupted);
  EXPECT_EQ(stuck.report.resilience.outcome, "corrupted");
  EXPECT_TRUE(stuck.error.empty());  // a report was produced
}

TEST(Service, RetriesThrowFaultThenSucceeds) {
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.faults = "comm.allreduce@2:throw";
  opts.retries = 2;
  service::SolverService svc;
  const service::JobResult res = svc.wait(svc.submit(opts));
  EXPECT_EQ(res.outcome, service::JobOutcome::kOk);
  EXPECT_EQ(res.attempts, 2);  // one failure, one clean retry
  EXPECT_TRUE(res.error.empty());

  // Retries exhausted -> failed, with the injected error text.
  api::SolverOptions hopeless = opts;
  hopeless.faults = "comm.allreduce@2:throw;comm.allreduce@2:throw";
  hopeless.retries = 0;
  service::SolverService svc2;
  const service::JobResult failed = svc2.wait(svc2.submit(hopeless));
  EXPECT_EQ(failed.outcome, service::JobOutcome::kFailed);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_NE(failed.error.find("injected fault"), std::string::npos)
      << failed.error;
}

TEST(Service, QuarantineAfterConsecutiveFailures) {
  api::SolverOptions bad = bounded_opts(24, 2);
  bad.faults =
      "comm.allreduce@2:throw;comm.allreduce@2:throw;comm.allreduce@2:throw";
  bad.retries = 2;  // every attempt re-throws: the job always fails
  bad.quarantine_after = 2;

  service::SolverService svc;
  std::vector<service::JobOutcome> outcomes;
  for (int i = 0; i < 4; ++i) {
    outcomes.push_back(svc.wait(svc.submit(bad)).outcome);
  }
  EXPECT_EQ(outcomes[0], service::JobOutcome::kFailed);
  EXPECT_EQ(outcomes[1], service::JobOutcome::kFailed);
  EXPECT_EQ(outcomes[2], service::JobOutcome::kQuarantined);
  EXPECT_EQ(outcomes[3], service::JobOutcome::kQuarantined);

  // A different spec (the clean twin) is untouched by the quarantine.
  api::SolverOptions good = bounded_opts(24, 2);
  good.quarantine_after = 2;
  EXPECT_EQ(svc.wait(svc.submit(good)).outcome, service::JobOutcome::kOk);
}

TEST(Service, QuarantineFollowsSubmissionOrderWhenSubmittedTogether) {
  // Four doomed jobs of one spec enter the queue together, so they
  // would share a dispatch round.  On a multi-lane pool all four would
  // pass the quarantine check before any failure was recorded; the
  // scheduler must dispatch them one per round instead.
  par::set_num_threads(4);
  api::SolverOptions bad = bounded_opts(24, 2);
  bad.faults =
      "comm.allreduce@2:throw;comm.allreduce@2:throw;comm.allreduce@2:throw";
  bad.retries = 2;
  bad.quarantine_after = 2;

  std::vector<service::JobOutcome> outcomes;
  {
    service::SolverService svc;
    const std::vector<std::uint64_t> ids =
        svc.submit_batch(std::vector<api::SolverOptions>(4, bad));
    for (const std::uint64_t id : ids) outcomes.push_back(svc.wait(id).outcome);
  }
  par::set_num_threads(0);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0], service::JobOutcome::kFailed);
  EXPECT_EQ(outcomes[1], service::JobOutcome::kFailed);
  EXPECT_EQ(outcomes[2], service::JobOutcome::kQuarantined);
  EXPECT_EQ(outcomes[3], service::JobOutcome::kQuarantined);
}

TEST(Service, CancelReachesQueuedAndRunningJobs) {
  // Job A holds the scheduler's first dispatch round long enough for B
  // to be submitted and cancelled while still queued: B then resolves
  // kCancelled without dispatching a solve.
  api::SolverOptions slow = bounded_opts(24, 2);
  slow.faults = "spmv.interior@0:delay300";
  service::SolverService svc;
  const std::uint64_t a = svc.submit(slow);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t b = svc.submit(bounded_opts(28, 2));
  EXPECT_TRUE(svc.cancel(b));
  EXPECT_FALSE(svc.cancel(b + 100));  // unknown id
  const service::JobResult rb = svc.wait(b);
  EXPECT_EQ(rb.outcome, service::JobOutcome::kCancelled);
  EXPECT_NE(rb.error.find("cancelled before attempt"), std::string::npos)
      << rb.error;
  EXPECT_EQ(svc.wait(a).outcome, service::JobOutcome::kOk);
  // A completed job can no longer be cancelled.
  EXPECT_FALSE(svc.cancel(a));

  // Mid-solve: the delay stretches the first restart; cancel() lands
  // while it runs and the restart-boundary poll takes the exit.
  api::SolverOptions long_job = bounded_opts(32, 2);
  long_job.max_restarts = 1000000;
  long_job.faults = "spmv.interior@0:delay300";
  service::SolverService svc2;
  const std::uint64_t c = svc2.submit(long_job);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(svc2.cancel(c));
  const service::JobResult rc = svc2.wait(c);
  EXPECT_EQ(rc.outcome, service::JobOutcome::kCancelled);
  EXPECT_TRUE(rc.error.empty());  // the solve produced a (partial) report
  EXPECT_TRUE(rc.report.result.cancelled);
  EXPECT_EQ(rc.report.resilience.outcome, "cancelled");
}

TEST(Service, DeadlineTimesOutButQueueDrains) {
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.max_restarts = 1000000;
  opts.deadline_ms = 40;
  opts.faults = "spmv.interior@0:delay250";
  service::SolverService svc;
  const std::uint64_t id = svc.submit(opts);
  const std::uint64_t after = svc.submit(bounded_opts(24, 2));
  const service::JobResult res = svc.wait(id);
  EXPECT_EQ(res.outcome, service::JobOutcome::kTimedOut);
  EXPECT_TRUE(res.report.result.deadline_expired);
  EXPECT_EQ(res.report.resilience.outcome, "timed_out");
  // The job behind it still completes: the queue always drains.
  EXPECT_EQ(svc.wait(after).outcome, service::JobOutcome::kOk);
}

TEST(Service, MaxInflightPerKeyCapsBurstsButKeepsRelativeOrder) {
  // Uncapped reference run (threads=1: completion order == dispatch).
  par::set_num_threads(1);
  const std::vector<int> burst_nx = {24, 24, 24, 28, 32};
  std::vector<std::vector<double>> ref;
  {
    service::SolverService svc;
    std::vector<std::uint64_t> ids;
    for (const int nx : burst_nx) ids.push_back(svc.submit(bounded_opts(nx, 2)));
    for (const std::uint64_t id : ids) ref.push_back(svc.wait(id).solution);
  }

  service::ServiceConfig cfg;
  cfg.max_inflight_per_key = 1;
  service::SolverService svc(cfg);
  // One atomic submission: round 1 sees the whole burst, whatever the
  // scheduler thread's timing.
  std::vector<api::SolverOptions> burst;
  for (const int nx : burst_nx) burst.push_back(bounded_opts(nx, 2));
  const std::vector<std::uint64_t> ids = svc.submit_batch(std::move(burst));
  std::vector<service::JobResult> results;
  for (const std::uint64_t id : ids) results.push_back(svc.wait(id));

  // Solutions are unaffected by the scheduling policy.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].outcome, service::JobOutcome::kOk);
    EXPECT_EQ(results[i].solution, ref[i]) << "job " << i;
  }
  // Round 1 takes the first nx=24 job plus the nx=28 and nx=32 jobs
  // (first of each key, front to back); the capped nx=24 repeats land
  // in later rounds.  Jobs the cap does not affect keep their relative
  // order — and jump ahead of the same-key overflow instead of
  // starving behind it.
  EXPECT_EQ(results[0].dispatch_seq, 0u);  // first 24
  EXPECT_EQ(results[3].dispatch_seq, 1u);  // 28: round 1
  EXPECT_EQ(results[4].dispatch_seq, 2u);  // 32: round 1
  EXPECT_EQ(results[1].dispatch_seq, 3u);  // second 24: round 2
  EXPECT_EQ(results[2].dispatch_seq, 4u);  // third 24: round 3
  par::set_num_threads(0);
}

TEST(Service, WarmStartSeedsAreKeyedByRhsFingerprint) {
  api::SolverOptions opts = bounded_opts(32, 2);
  opts.rtol = 1e-8;
  opts.max_restarts = 1000000;

  api::Solver probe(opts);
  const std::vector<double> b1 = api::ones_rhs(probe.matrix());
  std::vector<double> b2 = b1;
  for (std::size_t i = 0; i < b2.size(); ++i) b2[i] *= (i % 2 == 0) ? 2.0 : 0.5;

  service::SolverService svc;
  // Seed both RHS streams cold.
  const service::JobResult cold1 = svc.wait(svc.submit(opts, b1));
  const service::JobResult cold2 = svc.wait(svc.submit(opts, b2));
  ASSERT_EQ(cold1.outcome, service::JobOutcome::kOk);
  ASSERT_EQ(cold2.outcome, service::JobOutcome::kOk);

  // Warm repeat of the b1 stream: although b2's solution is more
  // recent, the exact fingerprint match picks the b1 seed — the repeat
  // starts at its own solution and converges almost immediately.
  api::SolverOptions warm_opts = opts;
  warm_opts.warm_start = 1;
  const service::JobResult warm1 = svc.wait(svc.submit(warm_opts, b1));
  ASSERT_EQ(warm1.outcome, service::JobOutcome::kOk);
  EXPECT_TRUE(warm1.report.service.warm_started);
  EXPECT_LT(warm1.report.result.iters, cold1.report.result.iters / 4);
}

TEST(Service, ReportResilienceObjectInJson) {
  service::SolverService svc;
  api::SolverOptions opts = bounded_opts(24, 2);
  opts.faults = "gram.stage1@1:delay1";
  const service::JobResult res = svc.wait(svc.submit(opts));
  const std::string json = res.report.json();
  EXPECT_NE(json.find("\"resilience\": {"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"guard\": {"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"off\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_trail\": ["), std::string::npos);
  EXPECT_NE(json.find("\"site\": \"gram.stage1\""), std::string::npos);
  EXPECT_NE(json.find("\"action\": \"delay\""), std::string::npos);
}

TEST(Service, SubmitRejectsInvalidOptionsEagerly) {
  service::SolverService svc;
  try {
    svc.submit("matrix=laplace2d_5pt nx=24 warm_start=2");
    FAIL() << "warm_start=2 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("warm_start=2 out of range (expected 0 or 1)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(svc.submit("matrix=no_such_matrix nx=24"),
               std::invalid_argument);
  // A batch is validated whole before any of it is enqueued.
  std::vector<api::SolverOptions> batch = {
      bounded_opts(24, 1),
      api::SolverOptions::parse("matrix=no_such_matrix nx=24")};
  EXPECT_THROW(svc.submit_batch(std::move(batch)), std::invalid_argument);
  // The queue saw nothing.
  EXPECT_TRUE(svc.drain().empty());
}

}  // namespace
