#pragma once
// Machine-readable solve reports.
//
// A SolveReport wraps the krylov::SolveResult of one run with its full
// provenance — the options echo, matrix statistics, rank/thread counts,
// per-phase timers, communication counters, and the per-restart
// residual history captured by the facade's observer — and serializes
// to JSON (schema "tsbo.solve_report/8", golden-checked by
// tests/test_api.cpp).  ReportLog accumulates reports so every bench
// binary can emit a uniform --json=<path> artifact.

#include "api/options.hpp"
#include "krylov/solver.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace tsbo::api {

/// Schema tags embedded in the JSON artifacts; bump on breaking layout
/// changes.  /2: the comm section grew bytes_exchanged plus the
/// overlap accounting (exposed_seconds == the modeled fabric time
/// actually spun, overlapped_seconds == the share hidden behind the
/// interior SpMV rows inside split-phase halo exchanges — collectives
/// are blocking and earn none; their sum is the total modeled cost).  injected_seconds was kept as an alias of
/// exposed_seconds for older tooling until /8.  /3: the result section
/// grew the pipelined-runtime lookahead counters (lookahead_hits /
/// lookahead_misses; removed in /8).  /4: the
/// result section grew the stability-autopilot object (enabled,
/// max_kappa_estimate — the conditioning monitor's peak basis-kappa,
/// maintained even with the autopilot off — rebase_recoveries, final_s,
/// final_gram, and the per-decision events array: restart / kind /
/// kappa / s_before / s_after / gram_before / gram_after).  /5: a
/// top-level service object describing how the persistent solver
/// service (src/service/) executed the run — enabled, cache_hit,
/// warm_started, queue_seconds (submit -> dispatch wait),
/// setup_seconds (operator build time paid by this job; 0 on a hit),
/// the reused-setup breakdown (matrix / partition / precond_setup /
/// rhs), and the cache_key echo.  Standalone solves emit the same
/// object with enabled=false and all counters zero, so consumers can
/// key off one shape.  /6: the result section grew cancelled /
/// deadline_expired (cooperative-cancellation exits), and a top-level
/// resilience object — outcome (ok | failed | timed_out | cancelled |
/// quarantined | corrupted), attempts, the residual-guard verdict
/// (guard: enabled / verdict off|ok|skipped|corrupted / true_relres /
/// tolerance), and the injected-fault trail (fault_trail: site /
/// ordinal / action / delay_ms / attempt per fired fault, rank 0's
/// deterministic record).  Standalone solves emit outcome "ok" with
/// attempts=1 unless their own guard or cancellation says otherwise.
/// /7: batched multi-RHS (rhs=k) solves — the result section grew a
/// per-RHS results[] array (index / converged / iters / relres /
/// true_relres / deflated_at_restart, empty for single-RHS solves;
/// the scalar result fields then aggregate: converged = all columns,
/// relres/true_relres = worst column), and the resilience guard grew a
/// matching per-column columns[] array (verdict + true_relres per RHS)
/// so one corrupted column is attributable.  /8: the result section
/// dropped the always-zero lookahead_hits / lookahead_misses (the
/// speculative next-panel MPK is gone), and the comm section dropped
/// injected_seconds, the alias of exposed_seconds.
inline constexpr const char* kSolveReportSchema = "tsbo.solve_report/8";
inline constexpr const char* kReportLogSchema = "tsbo.report_log/1";

struct MatrixStats {
  std::string name;  ///< registry key, file path, or caller label
  long rows = 0;
  long long nnz = 0;
  double nnz_per_row = 0.0;
};

/// One observer sample: state at a completed restart cycle.
struct RestartRecord {
  int restart = 0;
  long iters = 0;
  double relres = 0.0;           ///< recurrence estimate
  double explicit_relres = 0.0;  ///< recomputed ||b - A x|| / ||b||
  double seconds_spmv = 0.0;     ///< cumulative phase seconds so far
  double seconds_precond = 0.0;
  double seconds_ortho = 0.0;
};

/// The ortho-phase buckets the paper's breakdown figures plot
/// (Figs. 10-12).
struct OrthoBreakdown {
  double dot = 0.0;     ///< local block dot products
  double reduce = 0.0;  ///< global all-reduces (incl. modeled latency)
  double update = 0.0;  ///< vector updates (GEMM)
  double factor = 0.0;  ///< Cholesky + TRSM (+ HHQR)
  double small = 0.0;   ///< Hessenberg/Givens bookkeeping
  [[nodiscard]] double total() const {
    return dot + reduce + update + factor + small;
  }
};

OrthoBreakdown breakdown_of(const krylov::SolveResult& r);

/// How the persistent solver service executed a job (all-zero /
/// enabled=false for standalone solves).  Filled by
/// service::SolverService; the facade itself never sets it.
struct ServiceStats {
  bool enabled = false;      ///< ran through a SolverService
  bool cache_hit = false;    ///< operator came from the keyed cache
  bool warm_started = false; ///< x0 seeded from a previous solution
  double queue_seconds = 0.0;  ///< submit -> dispatch wait
  double setup_seconds = 0.0;  ///< operator build paid by this job
  bool reused_matrix = false;         ///< assembled CSR reused
  bool reused_partition = false;      ///< DistCsr + comm plan reused
  bool reused_precond_setup = false;  ///< coloring / eigen estimate reused
  bool reused_rhs = false;            ///< cached ones-RHS reused
  std::string cache_key;  ///< operator-cache key echo ("" off-service)
};

/// Resilience record of one job: terminal outcome, attempt count, the
/// residual-guard verdict, and the injected-fault trail.  Standalone
/// solves fill the guard + trail; the service overwrites outcome /
/// attempts with the job-level view (retries, quarantine).
struct ResilienceStats {
  /// ok | failed | timed_out | cancelled | quarantined | corrupted.
  std::string outcome = "ok";
  int attempts = 1;
  bool guard_enabled = false;     ///< verify_residual=1 was requested
  /// off (guard not requested) | ok | skipped (cancelled / timed-out
  /// exits are not judged) | corrupted.
  std::string guard_verdict = "off";
  double guard_true_relres = 0.0;  ///< serial ||b - A x|| / ||b||
  double guard_tolerance = 0.0;    ///< threshold the verdict compared against
  /// Per-RHS guard verdicts of a block (rhs=k) solve, column order;
  /// empty for single-RHS solves.  The scalar verdict above is then
  /// the worst column's (any corrupted column flags the whole job).
  std::vector<std::string> guard_rhs_verdicts;
  std::vector<double> guard_rhs_true_relres;  ///< per-column serial residuals
  std::vector<par::FaultRecord> fault_trail;  ///< fired faults (rank 0)
};

struct SolveReport {
  SolverOptions options;
  MatrixStats matrix;
  int ranks = 1;
  unsigned threads = 1;
  krylov::SolveResult result;
  ServiceStats service;
  ResilienceStats resilience;
  std::vector<RestartRecord> history;

  /// Emits this report as one JSON object into an open writer (used by
  /// ReportLog to nest reports in an array).
  void write_json(util::JsonWriter& w) const;

  /// The report as a standalone JSON document.
  [[nodiscard]] std::string json() const;

  /// Writes json() to `path`; throws std::runtime_error on I/O failure.
  void save_json(const std::string& path) const;
};

/// Accumulates the reports of one harness run and writes them as one
/// {"schema": "tsbo.report_log/1", "label": ..., "reports": [...]}
/// document.
class ReportLog {
 public:
  explicit ReportLog(std::string label) : label_(std::move(label)) {}

  void add(SolveReport report) { reports_.push_back(std::move(report)); }

  [[nodiscard]] std::size_t size() const { return reports_.size(); }
  [[nodiscard]] const std::vector<SolveReport>& reports() const {
    return reports_;
  }

  [[nodiscard]] std::string json() const;

  /// Writes json() to `path`; "" and "none" are no-ops (the benches'
  /// default).  Returns whether a file was written.
  bool save(const std::string& path) const;

 private:
  std::string label_;
  std::vector<SolveReport> reports_;
};

}  // namespace tsbo::api
