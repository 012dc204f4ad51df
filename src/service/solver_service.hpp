#pragma once
// Persistent solver service: a long-lived front end over api::Solver
// for workloads that issue many solves against a small set of
// operators (the production-serving shape the ROADMAP names).
//
//   service::SolverService svc;
//   auto id1 = svc.submit("matrix=laplace2d_5pt nx=128 ranks=2");
//   auto id2 = svc.submit("matrix=laplace2d_5pt nx=128 ranks=2 warm_start=1");
//   service::JobResult r = svc.wait(id2);   // r.report.service.cache_hit
//
// Jobs are SolverOptions key=value strings (or parsed structs) entering
// a bounded FIFO queue.  A scheduler thread dispatches each batch over
// the shared par::ThreadPool via par::parallel_jobs: whole solves are
// unit work items claimed in ascending submission order off one
// monotone cursor, so dispatch order is FIFO and the thread-slice
// assignment inside each solve follows the library-wide determinism
// contract — a job's results are bitwise-identical to the same solve
// run standalone, at any thread or rank count.
//
// Expensive per-operator setup (matrix assembly, partitioned DistCsr
// with comm plan, preconditioner coloring / eigenvalue estimates, the
// ones-RHS, aligned scratch) is reused across jobs through the keyed
// OperatorCache.  Jobs against the same operator serialize on the
// entry (the DistCsr halo buffer is single-solve); jobs against
// different operators run concurrently.  With warm_start=1 a repeat
// solve seeds x0 from a cached solution keyed by the RHS fingerprint
// (most-recent fallback for perturbed right-hand sides); warm_start=0
// jobs are bit-for-bit cold.
//
// Hardening (the resilience layer): every job carries a CancelToken —
// cancel(id) reaches queued and running jobs alike, deadline_ms arms a
// wall-clock deadline at dispatch, and the solver polls cooperatively
// at restart boundaries.  retries=k re-runs failed / corrupted-verdict
// attempts (exponential backoff with deterministic per-job jitter)
// through one job-scoped FaultInjector, so one-shot injected faults do
// not re-fire and the retry is bitwise-identical to a clean solve.  A
// spec that fails quarantine_after times consecutively is quarantined:
// later identical specs fail fast instead of burning pool slots.  Such
// a spec dispatches at most one job per round, so its verdicts follow
// submission order even when its jobs are submitted together.
// After a corrupted verdict the cached matrix is re-validated against
// its build-time checksum and the entry invalidated if mutated.  Every
// job resolves to a terminal JobOutcome — the queue always drains.
//
// Every successfully-run job's SolveReport (schema tsbo.solve_report/9,
// service + resilience objects filled in) is appended to a
// service-level ReportLog for uniform --json artifacts.

#include "api/report.hpp"
#include "service/operator_cache.hpp"
#include "util/fault.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tsbo::service {

struct ServiceConfig {
  /// Bounded FIFO depth: submit() blocks while this many jobs await
  /// dispatch (backpressure, not rejection).
  std::size_t queue_capacity = 64;
  /// OperatorCache LRU byte budget.
  std::size_t cache_budget_bytes = std::size_t{256} << 20;
  /// ReportLog label of the --json artifact.
  std::string label = "service";
  /// Per-dispatch-round cap on jobs sharing one operator-cache key
  /// (0 = uncapped, the historical grab-the-whole-queue behavior).
  /// Same-key jobs serialize on the entry's in_use mutex anyway; the
  /// cap keeps a burst against one operator from occupying every pool
  /// slot while other operators' jobs starve behind it.  Overflow
  /// jobs stay queued — relative order preserved — and dispatch in
  /// later rounds.
  std::size_t max_inflight_per_key = 0;
};

/// Terminal state of a job.  Every submitted job reaches exactly one —
/// the queue always drains, whatever was injected.
enum class JobOutcome {
  kOk = 0,      ///< solve completed, residual guard (if on) passed
  kFailed,      ///< final attempt threw (injected or real exception)
  kTimedOut,    ///< deadline_ms expired (cooperative stop or pre-attempt)
  kCancelled,   ///< cancel(id) landed before/while the job ran
  kQuarantined, ///< spec exceeded quarantine_after consecutive failures
  kCorrupted,   ///< residual guard flagged the final attempt's solution
};

/// Stable lower-case name ("ok", "failed", ... — the report's
/// resilience.outcome vocabulary).
const char* to_string(JobOutcome outcome);

/// Completed job: the /6 report (service + resilience objects filled),
/// the gathered solution, and the dispatch sequence number (ascending
/// in dispatch order — the FIFO determinism pin).  `error` is non-empty
/// when no attempt produced a report (exception, quarantine, or a stop
/// before dispatch); report/solution are then meaningless.  Cancelled /
/// timed-out / corrupted jobs whose final attempt ran to a report keep
/// error empty — `outcome` is the authoritative terminal state.
struct JobResult {
  std::uint64_t id = 0;
  std::uint64_t dispatch_seq = 0;
  JobOutcome outcome = JobOutcome::kOk;
  int attempts = 1;  ///< attempts actually started (1 + retries used)
  api::SolveReport report;
  std::vector<double> solution;
  std::string error;
};

class SolverService {
 public:
  explicit SolverService(ServiceConfig cfg = {});

  /// Drains every queued job, then stops the scheduler.  Unclaimed
  /// results are discarded.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues a solve described by a SolverOptions spec string.
  /// Parses and validates eagerly, so bad options throw here (with the
  /// parse/validate error text) rather than surfacing asynchronously.
  /// Blocks while the queue is at capacity.  Returns the job id.
  std::uint64_t submit(const std::string& spec);
  std::uint64_t submit(api::SolverOptions opts);

  /// Same, with an explicit RHS instead of the operator's cached
  /// ones-RHS (the perturbed-RHS repeat-solve path).
  std::uint64_t submit(const std::string& spec, std::vector<double> rhs);
  std::uint64_t submit(api::SolverOptions opts, std::vector<double> rhs);

  /// Enqueues every job of `batch` atomically: all are validated first
  /// (nothing is enqueued if one throws), then pushed under one lock
  /// with one wake-up, so the scheduler's rounds see the whole batch
  /// and round membership depends only on the submission sequence.
  /// Waits, if needed, until the queue has room for the entire batch
  /// (the batch may exceed queue_capacity only on an empty queue).
  /// Returns the job ids in batch order.
  std::vector<std::uint64_t> submit_batch(std::vector<api::SolverOptions> batch);

  /// Blocks until job `id` completes and returns (consumes) its
  /// result.  Throws std::invalid_argument for unknown/claimed ids.
  JobResult wait(std::uint64_t id);

  /// Requests cooperative cancellation of job `id`: a queued job
  /// resolves to kCancelled without dispatching; a running solve stops
  /// at its next restart boundary.  Returns false when the job is
  /// unknown or already completed (cancellation raced completion —
  /// wait() then returns the finished result).
  bool cancel(std::uint64_t id);

  /// Blocks until every submitted job has completed; returns all
  /// unclaimed results in submission (id) order.
  std::vector<JobResult> drain();

  [[nodiscard]] OperatorCache::Stats cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] const OperatorCache& cache() const { return cache_; }

  /// All completed jobs' reports, in completion order.  Call only when
  /// no jobs are in flight (e.g. after drain()).
  [[nodiscard]] const api::ReportLog& log() const { return log_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    api::SolverOptions opts;
    std::vector<double> rhs;  ///< empty = use the cached ones-RHS
    bool has_rhs = false;
    std::chrono::steady_clock::time_point submitted;
    /// Created at enqueue so cancel(id) reaches the job at any stage;
    /// shared with the solve through api::Solver::set_cancel_token.
    std::shared_ptr<par::CancelToken> token;
  };

  /// Enqueues `jobs` in order under one lock and one notify; returns
  /// their ids.
  std::vector<std::uint64_t> enqueue(std::vector<Job> jobs);
  void scheduler_loop();
  void run_job(Job& job, std::uint64_t dispatch_seq);
  /// One solve attempt against the cached operator; fills res.report /
  /// res.solution on success and returns the attempt's outcome.
  /// Exceptions (injected throws included) propagate to run_job's
  /// retry loop.
  JobOutcome run_attempt(Job& job, par::FaultInjector* injector,
                         double queue_seconds, JobResult& res);

  ServiceConfig cfg_;
  OperatorCache cache_;
  api::ReportLog log_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // scheduler: queue non-empty / stop
  std::condition_variable cv_space_;  // submitters: queue below capacity
  std::condition_variable cv_done_;   // waiters: a job completed
  std::deque<Job> queue_;
  std::map<std::uint64_t, JobResult> results_;
  /// Live jobs' cancel tokens (enqueue -> completion), for cancel(id).
  std::map<std::uint64_t, std::shared_ptr<par::CancelToken>> tokens_;
  /// Consecutive non-ok terminal outcomes per spec (opts.to_string()),
  /// reset on ok; drives quarantine_after.
  std::map<std::string, int> consecutive_failures_;
  std::uint64_t next_id_ = 1;
  std::uint64_t inflight_ = 0;  ///< submitted, not yet completed
  bool stop_ = false;

  std::uint64_t dispatch_counter_ = 0;  // scheduler thread only
  std::thread scheduler_;               // last member: starts in ctor
};

}  // namespace tsbo::service
