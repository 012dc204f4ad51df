// Fault-storm workload for the hardened solver service: N jobs with a
// seeded mix of injected faults (throws, delays, bit-flip corruption,
// deadline blowouts) plus a quarantine demonstration, driven through
// SolverService so every resilience layer is exercised at once —
// retry/backoff, cooperative deadlines, per-spec quarantine, and the
// verify_residual soundness guard.
//
// Everything is deterministic: the job mix comes from one Xoshiro256
// seeded by --seed, the fault plans address sites by ordinal, and the
// service's FIFO dispatch is pinned, so two runs with the same seed
// produce identical outcome trails.
//
// Verified invariants (exit 1 on violation):
//   - every submitted job reaches a terminal outcome (the queue
//     drains; nothing wedges behind an injected fault),
//   - every ok job passes an INDEPENDENT serial residual recompute
//     against a freshly assembled operator — no corrupted solve
//     escapes marked ok,
//   - ok jobs whose final attempt ran fault-free (clean, delay-only,
//     and retried-throw jobs; one-shot faults do not re-fire) are
//     bitwise identical to the clean reference solution,
//   - the quarantine demo resolves failed, failed, quarantined,
//     quarantined in submission order,
//   - deadline jobs time out rather than fail or wedge.
//
// Also reports the wall-clock overhead of the residual guard
// (verify_residual=1 vs 0 on the clean spec) and the outcome/attempt
// histogram of the storm.
//
//   bench_faults [--seed=7] [--jobs=24] [--nx=24] [--ranks=2]
//                [--json=faults.json]

#include "bench_common.hpp"

#include "par/config.hpp"
#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace {

// Independent soundness check: serial ||b - A x|| / ||b|| against a
// freshly assembled operator (never the service's cached state), held
// to the same Carson-Ma-style gap the in-solve guard enforces.
bool residual_sound(const tsbo::sparse::CsrMatrix& a,
                    const std::vector<double>& x,
                    const tsbo::api::SolveReport& rep) {
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (x.size() != n) return false;
  // Service jobs solve the operator's ones-RHS: b = A * ones, so the
  // exact solution is the all-ones vector.
  const std::vector<double> ones(n, 1.0);
  std::vector<double> b(n);
  tsbo::sparse::spmv(a, ones, b);
  std::vector<double> ax(n);
  tsbo::sparse::spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ri = b[i] - ax[i];
    rr += ri * ri;
    bb += b[i] * b[i];
  }
  const double true_rel = std::sqrt(rr / bb);
  const double tol = tsbo::api::kResidualGuardFactor *
                     std::max(rep.result.relres, rep.options.rtol);
  return std::isfinite(true_rel) && true_rel <= tol;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsbo;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const int njobs = cli.get_int("jobs", 24);
  const int nx = cli.get_int("nx", 24);
  const int ranks = cli.get_int("ranks", 2);
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  // One converging base spec: every storm job is this solve plus an
  // injected fault, so ok jobs are comparable across the mix.
  api::SolverOptions base = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage m=20 s=5 bs=20 rtol=1e-8 "
      "max_restarts=1000000 precond=none matrix=laplace2d_5pt");
  base.nx = nx;
  base.ranks = ranks;
  base.verify_residual = 1;

  std::printf(
      "# fault storm: %d jobs on laplace2d_5pt nx=%d ranks=%d, seed=%llu\n"
      "# invariants: queue drains; ok jobs pass an independent residual\n"
      "# recompute; fault-free-final-attempt ok jobs bitwise == clean\n\n",
      njobs, nx, ranks, static_cast<unsigned long long>(seed));

  sparse::CsrMatrix a = sparse::laplace2d_5pt(nx, nx);

  service::ServiceConfig cfg;
  cfg.label = "bench_faults";
  service::SolverService svc(cfg);

  // Clean reference for the bitwise check.
  const service::JobResult ref = svc.wait(svc.submit(base));
  if (ref.outcome != service::JobOutcome::kOk ||
      !residual_sound(a, ref.solution, ref.report)) {
    std::printf("!! clean reference solve failed\n");
    return 1;
  }

  // ---- the storm ------------------------------------------------------
  util::Xoshiro256 rng(seed);
  enum Kind { kClean = 0, kCorrupt, kThrowRetry, kDelay, kDeadline };
  const char* kind_name[] = {"clean", "corrupt", "throw+retry", "delay",
                             "deadline"};
  std::vector<std::uint64_t> ids;
  std::vector<Kind> kinds;
  for (int j = 0; j < njobs; ++j) {
    const Kind kind = static_cast<Kind>(rng.uniform_index(5));
    api::SolverOptions o = base;
    const long ord = static_cast<long>(rng.uniform_index(32));
    switch (kind) {
      case kClean:
        break;
      case kCorrupt:
        // Globally-addressed sites only: the corrupted row is
        // rank-count-invariant, and the restart residual recompute
        // heals the detour (GuardTest pins this), so the job must
        // come back ok and residual-sound.
        o.faults = (rng.uniform_index(2) == 0 ? "spmv.interior@"
                                              : "comm.exchange@") +
                   std::to_string(ord) + ":corrupt";
        break;
      case kThrowRetry:
        // One-shot injected throw + one retry: the retry's attempt
        // runs fault-free and must be bitwise clean.
        o.faults = "comm.allreduce@" + std::to_string(ord) + ":throw";
        o.retries = 1;
        break;
      case kDelay:
        o.faults = "gram.stage1@" + std::to_string(ord % 8) + ":delay5";
        break;
      case kDeadline:
        // A deadline far below the injected stall: must resolve
        // timed_out, not failed, and must not wedge the queue.
        o.faults = "spmv.interior@0:delay250";
        o.deadline_ms = 40;
        break;
    }
    ids.push_back(svc.submit(o));
    kinds.push_back(kind);
  }

  // Quarantine demo: one deliberately hopeless spec, submitted four
  // times with quarantine_after=2 -> failed, failed, quarantined,
  // quarantined in submission order.
  api::SolverOptions doomed = base;
  doomed.faults = "comm.allreduce@0:throw;comm.allreduce@1:throw;"
                  "comm.allreduce@2:throw;comm.allreduce@3:throw";
  doomed.retries = 2;
  doomed.quarantine_after = 2;
  std::vector<std::uint64_t> doomed_ids;
  for (int j = 0; j < 4; ++j) doomed_ids.push_back(svc.submit(doomed));

  bool ok = true;
  std::map<std::string, int> histogram;
  long retried_attempts = 0;
  int detours = 0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const service::JobResult r = svc.wait(ids[j]);
    histogram[to_string(r.outcome)] += 1;
    retried_attempts += r.attempts - 1;
    const Kind kind = kinds[j];
    const char* name = kind_name[kind];
    if (kind == kDeadline) {
      if (r.outcome != service::JobOutcome::kTimedOut) {
        std::printf("!! job %llu (%s): expected timed_out, got %s\n",
                    static_cast<unsigned long long>(r.id), name,
                    to_string(r.outcome));
        ok = false;
      }
      continue;
    }
    if (r.outcome != service::JobOutcome::kOk) {
      std::printf("!! job %llu (%s): expected ok, got %s (%s)\n",
                  static_cast<unsigned long long>(r.id), name,
                  to_string(r.outcome), r.error.c_str());
      ok = false;
      continue;
    }
    if (!residual_sound(a, r.solution, r.report)) {
      std::printf("!! job %llu (%s): ok but fails the independent "
                  "residual recompute\n",
                  static_cast<unsigned long long>(r.id), name);
      ok = false;
    }
    // Jobs whose final attempt ran without a live numeric fault must
    // reproduce the clean bits: clean and delay trivially, retried
    // throws because one-shot faults do not re-fire.
    const bool final_attempt_clean = kind != kCorrupt;
    if (final_attempt_clean && r.solution != ref.solution) {
      std::printf("!! job %llu (%s): fault-free final attempt is not "
                  "bitwise clean\n",
                  static_cast<unsigned long long>(r.id), name);
      ok = false;
    }
    if (kind == kCorrupt && r.solution != ref.solution) {
      // Informational: the flip detoured the trajectory (a flip landing
      // on a near-zero entry can legitimately wash out in rounding).
      detours += 1;
    }
  }

  const char* expected_doom[] = {"failed", "failed", "quarantined",
                                 "quarantined"};
  for (std::size_t j = 0; j < doomed_ids.size(); ++j) {
    const service::JobResult r = svc.wait(doomed_ids[j]);
    histogram[to_string(r.outcome)] += 1;
    if (std::string(to_string(r.outcome)) != expected_doom[j]) {
      std::printf("!! quarantine demo job %zu: expected %s, got %s\n", j,
                  expected_doom[j], to_string(r.outcome));
      ok = false;
    }
  }

  util::Table table({"outcome", "jobs"});
  for (const auto& [name, count] : histogram) {
    table.row().add(name).add(static_cast<long>(count));
  }
  table.print();
  std::printf("# retries used across the storm: %ld; corrupt jobs that "
              "detoured the trajectory: %d\n",
              retried_attempts, detours);

  // ---- guard overhead -------------------------------------------------
  api::SolverOptions unguarded = base;
  unguarded.verify_residual = 0;
  util::WallTimer t_off;
  (void)svc.wait(svc.submit(unguarded));
  const double off_s = t_off.seconds();
  util::WallTimer t_on;
  (void)svc.wait(svc.submit(base));
  const double on_s = t_on.seconds();
  std::printf(
      "# residual guard overhead: %.3fs guarded vs %.3fs unguarded "
      "(+%.1f%%; one serial spmv + norm)\n",
      on_s, off_s, 100.0 * (on_s - off_s) / off_s);

  if (svc.log().save(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
