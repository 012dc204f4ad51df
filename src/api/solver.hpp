#pragma once
// The tsbo::api::Solver facade: one configuration-driven entry point
// for the end-to-end experiment flow the paper runs — pick a matrix,
// a preconditioner, an ortho scheme and (m, s, bs); run under the SPMD
// runtime; get back a SolveReport with phase timers, sync counts, and
// residual history.
//
//   auto opts = api::SolverOptions::parse(
//       "solver=sstep ortho=two_stage matrix=laplace2d_9pt nx=256 ranks=4");
//   api::Solver solver(opts);
//   api::SolveReport report = solver.solve();
//   report.save_json("run.json");
//
// The facade owns the boilerplate the bench binaries used to repeat:
// matrix construction through matrix_registry() (plus optional paper
// max-scaling), the all-ones-solution RHS, the prepared operator
// (row partitioning, per-rank DistCsr pieces, preconditioner setups;
// api/prepared.hpp), per-rank preconditioner construction through
// precond_registry(), the critical rank's timers, and gathering the
// distributed solution.  Setup is built once and kept across solves,
// so a repeated solve() pays only for the Krylov iteration.

#include "api/options.hpp"
#include "api/prepared.hpp"
#include "api/registry.hpp"
#include "api/report.hpp"
#include "sparse/csr.hpp"

#include <optional>
#include <string>
#include <vector>

namespace tsbo::api {

/// RHS such that the solution is the all-ones vector (paper Section
/// VIII): b = A * ones.
std::vector<double> ones_rhs(const sparse::CsrMatrix& a);

/// k-column batch RHS (length rows * k, column t at offset t * rows).
/// Column 0 is exactly ones_rhs (so rhs=1 batches match single-RHS
/// runs); columns t > 0 solve deterministic per-column perturbations
/// of the ones vector, keeping the RHS block full-rank — a
/// rank-deficient block would make the block solver's seed CholQR
/// singular.
std::vector<double> batch_rhs(const sparse::CsrMatrix& a, int k);

/// Builds the matrix the options name via matrix_registry(), applying
/// the paper's column-then-row max-scaling when opts.equilibrate is
/// set.  `label` (optional) receives the provenance name.
sparse::CsrMatrix make_matrix(const SolverOptions& opts,
                              std::string* label = nullptr);

class Solver {
 public:
  explicit Solver(SolverOptions opts) : opts_(std::move(opts)) {}

  // Non-copyable/movable: matrix_ may point into owned_matrix_ (or at a
  // caller-borrowed matrix), so a byte-wise copy/move would dangle.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] SolverOptions& options() { return opts_; }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }

  /// Injects the system matrix instead of building it from the matrix
  /// keys.  Borrowed: the caller keeps `a` alive across solve() (the
  /// bench sweeps use this to share one matrix over many runs).  Drops
  /// the solver's own prepared operator; call it again after changing
  /// `a` in place.
  Solver& set_matrix_ref(const sparse::CsrMatrix& a,
                         std::string label = "injected");

  /// Overrides the RHS (default: ones_rhs of the matrix; batch_rhs
  /// when opts.rhs > 1).  Batched solves expect length rows * rhs,
  /// column t at offset t * rows.
  Solver& set_rhs(std::vector<double> b);

  /// Borrowing variant of set_rhs (the caller keeps `b` alive across
  /// solve(); the solver service shares one cached RHS over many jobs).
  Solver& set_rhs_ref(const std::vector<double>& b);

  /// Borrows the prepared operator (per-rank pieces, preconditioner
  /// setups, solution scratch) solve() runs against; it must describe
  /// the matrix solve() uses and have opts.ranks pieces.  The caller
  /// keeps it alive and runs no two solves on it at once (the service
  /// serializes per cache entry).  nullptr returns to the solver's own.
  Solver& set_prepared(PreparedOperator* prepared);

  /// Initial guess (default: zero).  Global length (rows * rhs for
  /// batched solves, column-major like the RHS).  When set,
  /// convergence (and the reported relres) is measured against the
  /// fixed norm ||b|| instead of the initial-residual norm, so a good
  /// guess genuinely cuts iterations (the service's warm-start path).
  Solver& set_initial_guess(std::vector<double> x0);

  /// Per-restart observer, invoked on rank 0 inside the solve (see
  /// krylov::ProgressEvent).  The facade always records the restart
  /// history into the report; this hook adds live reporting on top.
  Solver& on_restart(krylov::ProgressCallback cb);

  /// Borrows a job-scoped fault injector (util/fault.hpp): solve()
  /// installs it on every rank's communicator, so the comm / spmv /
  /// gram sites fire from its plan and the report carries its trail.
  /// When unset and opts.faults is non-empty, solve() builds a fresh
  /// injector per call instead.  The service passes one injector
  /// across a job's retry attempts (fired faults stay fired).
  Solver& set_fault_injector(par::FaultInjector* injector);

  /// Borrows a cancellation token polled at restart boundaries (see
  /// krylov::*Config::cancel).  When unset and opts.deadline_ms > 0,
  /// solve() arms a fresh per-call deadline token.  The service shares
  /// one token per job so cancel(id) reaches a running solve.
  Solver& set_cancel_token(const par::CancelToken* token);

  /// The system matrix (building it from the options if not injected).
  const sparse::CsrMatrix& matrix();

  /// The RHS (building ones_rhs if not set).
  const std::vector<double>& rhs();

  /// Runs the configured solver under the SPMD runtime and returns the
  /// report.  Throws std::invalid_argument on bad options and
  /// propagates solver exceptions (e.g. ortho::CholeskyBreakdown under
  /// breakdown=throw).  Repeatable: each call is bitwise a cold run;
  /// setup is kept while the matrix and ranks hold.  Without a borrowed
  /// prepared operator, the first solve builds the solver's own and
  /// later solves reuse it until set_matrix_ref() or a change of
  /// opts.ranks.
  SolveReport solve();

  /// Gathered global solution of the last solve() (rows * rhs doubles
  /// for batched solves, column t at offset t * rows).
  [[nodiscard]] const std::vector<double>& solution() const { return x_; }

 private:
  SolverOptions opts_;
  sparse::CsrMatrix owned_matrix_;
  const sparse::CsrMatrix* matrix_ = nullptr;  // points at owned_ or borrowed
  std::string matrix_label_;
  std::vector<double> b_;
  const std::vector<double>* b_ref_ = nullptr;  // borrowed RHS, wins over b_
  std::vector<double> x0_;
  std::vector<double> x_;
  std::optional<PreparedOperator> own_prepared_;
  PreparedOperator* prepared_ = nullptr;  // borrowed, wins over own_
  krylov::ProgressCallback user_callback_;
  par::FaultInjector* fault_injector_ = nullptr;      // borrowed
  const par::CancelToken* cancel_token_ = nullptr;    // borrowed
};

}  // namespace tsbo::api
