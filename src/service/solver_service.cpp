#include "service/solver_service.hpp"

#include "api/solver.hpp"
#include "par/config.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

namespace tsbo::service {

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kOk: return "ok";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kTimedOut: return "timed_out";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kQuarantined: return "quarantined";
    case JobOutcome::kCorrupted: return "corrupted";
  }
  return "unknown";
}

namespace {

/// Exponential-backoff base for retries: attempt k+1 waits
/// kRetryBackoffMs * 2^(k-1) ms plus a deterministic per-job jitter
/// (job id mod 3 ms) so colliding retry storms de-synchronize
/// reproducibly.
constexpr long kRetryBackoffMs = 1;

}  // namespace

SolverService::SolverService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache_budget_bytes),
      log_(cfg_.label),
      scheduler_([this] { scheduler_loop(); }) {}

SolverService::~SolverService() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  scheduler_.join();
}

std::uint64_t SolverService::submit(const std::string& spec) {
  return submit(api::SolverOptions::parse(spec));
}

std::uint64_t SolverService::submit(const std::string& spec,
                                    std::vector<double> rhs) {
  return submit(api::SolverOptions::parse(spec), std::move(rhs));
}

std::uint64_t SolverService::submit(api::SolverOptions opts) {
  return submit_batch({std::move(opts)}).front();
}

std::uint64_t SolverService::submit(api::SolverOptions opts,
                                    std::vector<double> rhs) {
  opts.validate();
  std::vector<Job> jobs(1);
  jobs[0].opts = std::move(opts);
  jobs[0].rhs = std::move(rhs);
  jobs[0].has_rhs = true;
  return enqueue(std::move(jobs)).front();
}

std::vector<std::uint64_t> SolverService::submit_batch(
    std::vector<api::SolverOptions> batch) {
  std::vector<Job> jobs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].validate();
    jobs[i].opts = std::move(batch[i]);
  }
  return enqueue(std::move(jobs));
}

std::vector<std::uint64_t> SolverService::enqueue(std::vector<Job> jobs) {
  std::unique_lock lock(mu_);
  cv_space_.wait(lock, [this, &jobs] {
    return stop_ || queue_.empty() ||
           queue_.size() + jobs.size() <= cfg_.queue_capacity;
  });
  if (stop_) {
    throw std::runtime_error("service: submit() on a stopping SolverService");
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs.size());
  const auto now = std::chrono::steady_clock::now();
  for (Job& job : jobs) {
    job.id = next_id_++;
    job.submitted = now;
    job.token = std::make_shared<par::CancelToken>();
    tokens_.emplace(job.id, job.token);
    ids.push_back(job.id);
    queue_.push_back(std::move(job));
    ++inflight_;
  }
  cv_work_.notify_one();
  return ids;
}

JobResult SolverService::wait(std::uint64_t id) {
  std::unique_lock lock(mu_);
  if (id == 0 || id >= next_id_) {
    throw std::invalid_argument("service: wait() on unknown job id " +
                                std::to_string(id));
  }
  cv_done_.wait(lock, [this, id] { return results_.count(id) != 0; });
  auto it = results_.find(id);
  JobResult out = std::move(it->second);
  results_.erase(it);
  return out;
}

bool SolverService::cancel(std::uint64_t id) {
  std::lock_guard lock(mu_);
  auto it = tokens_.find(id);
  if (it == tokens_.end()) return false;  // unknown or already completed
  it->second->cancel();
  return true;
}

std::vector<JobResult> SolverService::drain() {
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return inflight_ == 0; });
  std::vector<JobResult> out;
  out.reserve(results_.size());
  for (auto& [id, res] : results_) out.push_back(std::move(res));
  results_.clear();
  return out;  // std::map iteration = ascending id = submission order
}

void SolverService::scheduler_loop() {
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      // Admission, front to back, leaving the overflow queued in place.
      // Relative order is preserved on both sides, and the front job is
      // always taken, so every round makes progress.
      //  - Fairness cap: at most max_inflight_per_key jobs per operator
      //    key (0 = uncapped).
      //  - Quarantine order: at most one job per spec with
      //    quarantine_after > 0.  Rounds are synchronous, so each such
      //    job's quarantine check sees every earlier same-spec outcome
      //    and the verdicts follow submission order.
      std::map<std::string, std::size_t> picked;
      std::set<std::string> quarantine_specs;
      std::deque<Job> overflow;
      for (Job& j : queue_) {
        std::size_t* count = nullptr;
        if (cfg_.max_inflight_per_key > 0) {
          count = &picked[operator_cache_key(j.opts)];
        }
        const bool take =
            (count == nullptr || *count < cfg_.max_inflight_per_key) &&
            (j.opts.quarantine_after <= 0 ||
             quarantine_specs.insert(j.opts.to_string()).second);
        if (take) {
          if (count != nullptr) ++*count;
          batch.push_back(std::move(j));
        } else {
          overflow.push_back(std::move(j));
        }
      }
      queue_ = std::move(overflow);
      cv_space_.notify_all();
    }
    // Whole solves as unit work items, claimed in ascending index
    // order: FIFO dispatch, deterministic thread-slice assignment.
    const std::uint64_t base = dispatch_counter_;
    par::parallel_jobs(batch.size(), [this, &batch, base](std::size_t i) {
      run_job(batch[i], base + static_cast<std::uint64_t>(i));
    });
    dispatch_counter_ += batch.size();
  }
}

void SolverService::run_job(Job& job, std::uint64_t dispatch_seq) {
  JobResult res;
  res.id = job.id;
  res.dispatch_seq = dispatch_seq;
  const double queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job.submitted)
          .count();
  const std::string spec = job.opts.to_string();

  // Quarantine fail-fast: a spec that kept failing does not get to
  // burn another pool slot (and its retries) on every resubmission.
  bool quarantined = false;
  if (job.opts.quarantine_after > 0) {
    std::lock_guard lock(mu_);
    const auto it = consecutive_failures_.find(spec);
    if (it != consecutive_failures_.end() &&
        it->second >= job.opts.quarantine_after) {
      quarantined = true;
      res.outcome = JobOutcome::kQuarantined;
      res.error = "service: spec quarantined after " +
                  std::to_string(it->second) + " consecutive failures";
    }
  }

  if (!quarantined) {
    // The deadline clock starts at dispatch, not submit: queue wait is
    // the service's fault, not the job's.
    if (job.opts.deadline_ms > 0) {
      job.token->set_deadline_after(
          std::chrono::milliseconds(job.opts.deadline_ms));
    }
    // One injector across all attempts: fired one-shot faults stay
    // fired, so a retry re-runs the exact solve minus the event.
    std::optional<par::FaultInjector> injector;
    if (!job.opts.faults.empty()) {
      injector.emplace(par::FaultPlan::parse(job.opts.faults), job.opts.ranks);
    }

    const int max_attempts = 1 + std::max(0, job.opts.retries);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (job.token->cancelled()) {
        res.outcome = JobOutcome::kCancelled;
        res.error = "service: job cancelled before attempt " +
                    std::to_string(attempt);
        break;
      }
      if (job.token->deadline_expired()) {
        res.outcome = JobOutcome::kTimedOut;
        res.error = "service: deadline expired before attempt " +
                    std::to_string(attempt);
        break;
      }
      res.attempts = attempt;
      res.error.clear();
      if (injector.has_value()) injector->begin_attempt(attempt);
      try {
        res.outcome = run_attempt(
            job, injector.has_value() ? &injector.value() : nullptr,
            queue_seconds, res);
      } catch (const std::exception& e) {
        res.outcome = JobOutcome::kFailed;
        res.error = e.what();
      }
      // Terminal for this job: success, or a stop that retrying cannot
      // beat (the deadline stays expired; cancellation stays requested).
      if (res.outcome == JobOutcome::kOk ||
          res.outcome == JobOutcome::kTimedOut ||
          res.outcome == JobOutcome::kCancelled) {
        break;
      }
      if (attempt == max_attempts) break;
      // Exponential backoff with deterministic per-job jitter before
      // the retry (failed or corrupted attempt).
      const long backoff = kRetryBackoffMs << (attempt - 1);
      const long jitter = static_cast<long>(job.id % 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff + jitter));
    }
  }

  // The report always states the job-level terminal view, whether or
  // not an attempt ran.
  res.report.resilience.outcome = to_string(res.outcome);
  res.report.resilience.attempts = res.attempts;

  std::lock_guard lock(mu_);
  if (job.opts.quarantine_after > 0) {
    if (res.outcome == JobOutcome::kOk) {
      consecutive_failures_[spec] = 0;
    } else if (res.outcome == JobOutcome::kFailed ||
               res.outcome == JobOutcome::kCorrupted ||
               res.outcome == JobOutcome::kTimedOut) {
      ++consecutive_failures_[spec];
    }
  }
  tokens_.erase(job.id);
  if (res.error.empty()) log_.add(res.report);
  results_.emplace(res.id, std::move(res));
  --inflight_;
  cv_done_.notify_all();
}

JobOutcome SolverService::run_attempt(Job& job, par::FaultInjector* injector,
                                      double queue_seconds, JobResult& res) {
  bool hit = false;
  const std::shared_ptr<CachedOperator> op = cache_.acquire(job.opts, &hit);

  // One solve at a time per entry: the prepared pieces' halo buffers
  // are single-solve, and the warm-start seeds must not be torn.
  std::lock_guard entry_lock(op->in_use);

  // Dispatch-site fault seam, consulted with rank 0's counter (the
  // dispatch is a rank-independent service action).  corrupt flips a
  // bit in the *cached* global matrix — the soft-error-in-cached-state
  // scenario the checksum revalidation below exists for.
  if (injector != nullptr) {
    sparse::CsrMatrix& m = op->matrix;
    injector->consult(0, par::FaultSite::kServiceDispatch, [&m](long ordinal) {
      const sparse::offset nnz = m.nnz();
      if (nnz <= 0) return;
      par::FaultInjector::flip_bit(
          m.values[static_cast<std::size_t>(ordinal % nnz)]);
    });
  }

  const api::SolverOptions& opts = job.opts;
  api::Solver solver(opts);
  solver.set_matrix_ref(op->matrix, op->label);
  solver.set_prepared(&op->prepared);
  // Batched (rhs=k) jobs without an explicit RHS solve the standard
  // batch block (column 0 == the cached ones-RHS); built per attempt,
  // since the operator cache key excludes solver settings like rhs.
  std::vector<double> batch_b;
  const auto nrhs = static_cast<std::size_t>(std::max(1, opts.rhs));
  const bool default_batch = nrhs > 1 && !job.has_rhs;
  if (default_batch) batch_b = api::batch_rhs(op->matrix, opts.rhs);
  const std::vector<double>& rhs_vec =
      job.has_rhs ? job.rhs : (default_batch ? batch_b : op->ones_b);
  solver.set_rhs_ref(rhs_vec);
  solver.set_fault_injector(injector);
  solver.set_cancel_token(job.token.get());

  // Warm start: per-RHS-column fingerprints.  Column t seeds from the
  // seed whose fingerprint matches that column's RHS bits exactly, so
  // interleaved job streams (and batch columns) never inherit a
  // mismatched guess; batch columns with no match stay zero-seeded.
  // Single-RHS jobs keep the most-recent-seed fallback for
  // perturbed-RHS repeats.
  const auto n = static_cast<std::size_t>(op->matrix.rows);
  std::vector<std::uint64_t> fps(nrhs);
  for (std::size_t t = 0; t < nrhs; ++t) {
    fps[t] =
        rhs_fingerprint(std::span<const double>(rhs_vec.data() + t * n, n));
  }
  bool warm = false;
  if (opts.warm_start == 1 && !op->seeds.empty()) {
    std::vector<double> x0(n * nrhs, 0.0);
    bool any_seeded = false;
    for (std::size_t t = 0; t < nrhs; ++t) {
      const CachedOperator::SolutionSeed* pick = nullptr;
      for (const CachedOperator::SolutionSeed& s : op->seeds) {
        if (s.rhs_fingerprint == fps[t]) {
          pick = &s;
          break;
        }
      }
      if (pick == nullptr && nrhs == 1) pick = &op->seeds.front();
      if (pick != nullptr && pick->x.size() == n) {
        std::copy(pick->x.begin(), pick->x.end(),
                  x0.begin() + static_cast<std::ptrdiff_t>(t * n));
        any_seeded = true;
      }
    }
    if (any_seeded) {
      solver.set_initial_guess(std::move(x0));
      warm = true;
    }
  }

  api::SolveReport report = solver.solve();

  report.service.enabled = true;
  report.service.cache_hit = hit;
  report.service.warm_started = warm;
  report.service.queue_seconds = queue_seconds;
  report.service.setup_seconds = hit ? 0.0 : op->build_seconds;
  report.service.reused_precond_setup = op->prepared.setups_reused();
  report.service.reused_rhs = hit && !job.has_rhs && nrhs == 1;
  report.service.cache_key = op->key;

  // Attempt-level classification from the facade's resilience record.
  JobOutcome outcome = JobOutcome::kOk;
  if (report.resilience.guard_verdict == "corrupted") {
    outcome = JobOutcome::kCorrupted;
  } else if (report.result.cancelled) {
    outcome = JobOutcome::kCancelled;
  } else if (report.result.deadline_expired) {
    outcome = JobOutcome::kTimedOut;
  }

  if (outcome == JobOutcome::kOk) {
    // Seed future warm starts only from sound solutions (MRU, capped).
    // Batched solves store one seed per column, keyed by that column's
    // fingerprint, so later single-RHS (or re-batched) jobs solving
    // the same b find it.
    auto& seeds = op->seeds;
    const std::vector<double>& sol = solver.solution();
    for (std::size_t t = 0; t < nrhs; ++t) {
      for (auto it = seeds.begin(); it != seeds.end(); ++it) {
        if (it->rhs_fingerprint == fps[t]) {
          seeds.erase(it);
          break;
        }
      }
      seeds.insert(
          seeds.begin(),
          CachedOperator::SolutionSeed{
              fps[t],
              std::vector<double>(
                  sol.begin() + static_cast<std::ptrdiff_t>(t * n),
                  sol.begin() + static_cast<std::ptrdiff_t>((t + 1) * n))});
    }
    if (seeds.size() > kMaxSolutionSeeds) seeds.resize(kMaxSolutionSeeds);
  } else if (outcome == JobOutcome::kCorrupted) {
    // The guard says the answer is unsound.  If the cached matrix no
    // longer matches its build-time checksum, the cached state itself
    // was mutated — drop the entry so the retry rebuilds clean.
    if (op->matrix.checksum() != op->matrix_checksum) {
      cache_.invalidate(op->key);
    }
  }

  res.report = std::move(report);
  res.solution = solver.solution();

  // Lazy setups and warm-start seeds grew the entry: re-account.
  cache_.refresh_bytes(op);
  return outcome;
}

}  // namespace tsbo::service
