#include "api/solver.hpp"

#include "krylov/sstep_gmres.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "sparse/partition.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>

namespace tsbo::api {

std::vector<double> ones_rhs(const sparse::CsrMatrix& a) {
  std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> b(static_cast<std::size_t>(a.rows), 0.0);
  sparse::spmv(a, x, b);
  return b;
}

std::vector<double> batch_rhs(const sparse::CsrMatrix& a, int k) {
  if (k < 1) {
    throw std::invalid_argument("api::batch_rhs: k must be >= 1, got " +
                                std::to_string(k));
  }
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<double> b(n * static_cast<std::size_t>(k), 0.0);
  std::vector<double> x(n, 1.0);
  std::vector<double> bt(n, 0.0);
  for (int t = 0; t < k; ++t) {
    if (t > 0) {
      // Deterministic per-column perturbation of the ones solution
      // (integer splitmix-style hash -> [0, 0.5)), so the RHS block is
      // full-rank (scaled copies of one column would be) and every
      // column is bit-reproducible across platforms.
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t h = (static_cast<std::uint64_t>(i) + 1) *
                          0x9E3779B97F4A7C15ull *
                          (static_cast<std::uint64_t>(t) + 1);
        h ^= h >> 31;
        x[i] = 1.0 + 0.5 * static_cast<double>(h >> 11) * 0x1p-53;
      }
    }
    sparse::spmv(a, x, bt);
    std::copy(bt.begin(), bt.end(),
              b.begin() + static_cast<std::ptrdiff_t>(n) * t);
  }
  return b;
}

sparse::CsrMatrix make_matrix(const SolverOptions& opts, std::string* label) {
  sparse::CsrMatrix a = matrix_registry().at(opts.matrix).make(opts);
  if (opts.equilibrate) sparse::equilibrate_max(a);
  if (label != nullptr) {
    *label = opts.matrix == "file" ? opts.matrix_file : opts.matrix;
  }
  return a;
}

Solver& Solver::set_matrix_ref(const sparse::CsrMatrix& a, std::string label) {
  matrix_ = &a;
  matrix_label_ = std::move(label);
  return *this;
}

Solver& Solver::set_rhs(std::vector<double> b) {
  b_ = std::move(b);
  b_ref_ = nullptr;
  return *this;
}

Solver& Solver::set_rhs_ref(const std::vector<double>& b) {
  b_ref_ = &b;
  return *this;
}

Solver& Solver::set_partitioned_operator(
    const std::vector<sparse::DistCsr>* pieces) {
  partitioned_ = pieces;
  return *this;
}

Solver& Solver::set_precond_factory(PrecondFactory factory) {
  precond_factory_ = std::move(factory);
  return *this;
}

Solver& Solver::set_local_workspace(
    std::vector<util::aligned_vector<double>>* ws) {
  workspace_ = ws;
  return *this;
}

Solver& Solver::set_initial_guess(std::vector<double> x0) {
  x0_ = std::move(x0);
  return *this;
}

Solver& Solver::on_restart(krylov::ProgressCallback cb) {
  user_callback_ = std::move(cb);
  return *this;
}

Solver& Solver::set_fault_injector(par::FaultInjector* injector) {
  fault_injector_ = injector;
  return *this;
}

Solver& Solver::set_cancel_token(const par::CancelToken* token) {
  cancel_token_ = token;
  return *this;
}

const sparse::CsrMatrix& Solver::matrix() {
  if (matrix_ == nullptr) {
    owned_matrix_ = make_matrix(opts_, &matrix_label_);
    matrix_ = &owned_matrix_;
  }
  return *matrix_;
}

const std::vector<double>& Solver::rhs() {
  if (b_ref_ != nullptr) return *b_ref_;
  if (b_.empty()) {
    b_ = opts_.rhs > 1 ? batch_rhs(matrix(), opts_.rhs) : ones_rhs(matrix());
  }
  return b_;
}

SolveReport Solver::solve() {
  opts_.validate();
  const sparse::CsrMatrix& a = matrix();
  const std::vector<double>& b = rhs();
  const auto n = static_cast<std::size_t>(a.rows);
  const auto nrhs = static_cast<std::size_t>(opts_.rhs);
  if (b.size() != n * nrhs) {
    throw std::invalid_argument(
        "api::Solver: rhs length " + std::to_string(b.size()) +
        " != matrix rows * rhs = " + std::to_string(n) + " * " +
        std::to_string(nrhs));
  }
  if (!x0_.empty() && x0_.size() != n * nrhs) {
    throw std::invalid_argument(
        "api::Solver: initial guess length " + std::to_string(x0_.size()) +
        " != matrix rows * rhs = " + std::to_string(n) + " * " +
        std::to_string(nrhs));
  }
  if (partitioned_ != nullptr &&
      partitioned_->size() != static_cast<std::size_t>(opts_.ranks)) {
    throw std::invalid_argument(
        "api::Solver: partitioned operator has " +
        std::to_string(partitioned_->size()) + " pieces for ranks=" +
        std::to_string(opts_.ranks));
  }
  if (workspace_ != nullptr &&
      workspace_->size() != static_cast<std::size_t>(opts_.ranks)) {
    throw std::invalid_argument("api::Solver: local workspace has " +
                                std::to_string(workspace_->size()) +
                                " lanes for ranks=" +
                                std::to_string(opts_.ranks));
  }

  SolveReport report;
  report.options = opts_;
  report.matrix = MatrixStats{matrix_label_, a.rows, a.nnz(), a.nnz_per_row()};
  report.ranks = opts_.ranks;
  report.threads = par::num_threads();

  x_.assign(n * nrhs, 0.0);
  const PrecondEntry& prec_entry = precond_registry().at(opts_.precond);

  // With an initial guess the convergence target is rtol * ||b|| (a
  // fixed serial norm, identical at every rank/thread count) instead
  // of rtol * ||b - A x0||: a good x0 then starts partway to the
  // target rather than re-normalizing it — the warm-start contract.
  // Zero-guess solves keep the classic criterion, where the two agree.
  // Batched solves track one reference per RHS column, so a warm
  // start on one column never re-normalizes another's target.
  std::vector<double> conv_refs;
  if (!x0_.empty()) {
    for (std::size_t t = 0; t < nrhs; ++t) {
      double sq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = b[t * n + i];
        sq += v * v;
      }
      conv_refs.push_back(std::sqrt(sq));
    }
  }

  // Resilience plumbing: borrow the caller's job-scoped injector /
  // token (the service path) or build per-call standalone ones from
  // the options.  A fresh standalone injector starts at attempt 1 with
  // nothing fired, so repeated solve() calls see identical schedules.
  std::optional<par::FaultInjector> own_injector;
  par::FaultInjector* injector = fault_injector_;
  if (injector == nullptr && !opts_.faults.empty()) {
    own_injector.emplace(par::FaultPlan::parse(opts_.faults), opts_.ranks);
    injector = &own_injector.value();
  }
  std::optional<par::CancelToken> own_token;
  const par::CancelToken* cancel = cancel_token_;
  if (cancel == nullptr && opts_.deadline_ms > 0) {
    own_token.emplace();
    own_token->set_deadline_after(std::chrono::milliseconds(opts_.deadline_ms));
    cancel = &own_token.value();
  }

  krylov::SolveResult out;
  util::PhaseTimers merged;
  std::vector<RestartRecord> history;
  std::mutex merge_mutex;

  // The observer runs on rank 0 only, so `history` needs no locking.
  const krylov::ProgressCallback observer =
      [this, &history](const krylov::ProgressEvent& ev) {
        RestartRecord rec;
        rec.restart = ev.restarts;
        rec.iters = ev.iters;
        rec.relres = ev.relres;
        rec.explicit_relres = ev.explicit_relres;
        if (ev.timers != nullptr) {
          rec.seconds_spmv = ev.timers->seconds(util::PaperPhase::kSpmv);
          rec.seconds_precond = ev.timers->seconds(util::PaperPhase::kPrecond);
          rec.seconds_ortho = ev.timers->ortho().total();
        }
        history.push_back(rec);
        if (user_callback_) user_callback_(ev);
      };

  par::spmd_run(opts_.ranks, opts_.network_model(),
                [&](par::Communicator& comm) {
    // Fault seam first: every instrumented site below (DistCsr::spmm,
    // the ortho Gram, the collectives themselves) consults through
    // this rank's communicator.
    comm.set_fault_injector(injector);
    // Operator piece: borrowed from the caller (the operator cache's
    // prebuilt partition + comm plan) or built fresh for this solve.
    std::optional<sparse::DistCsr> built;
    if (partitioned_ == nullptr) {
      built.emplace(a, sparse::RowPartition(a.rows, comm.size()), comm.rank());
    }
    const sparse::DistCsr& dist =
        partitioned_ != nullptr
            ? (*partitioned_)[static_cast<std::size_t>(comm.rank())]
            : *built;
    const auto begin = static_cast<std::size_t>(dist.row_begin());
    const auto nloc = static_cast<std::size_t>(dist.n_local());

    // Rank-local solution storage: caller-borrowed aligned scratch when
    // set (fully overwritten below, so reuse never changes bits), else
    // a fresh per-solve vector.
    std::vector<double> x_own;
    std::span<double> x;
    if (workspace_ != nullptr) {
      auto& w = (*workspace_)[static_cast<std::size_t>(comm.rank())];
      w.assign(nloc * nrhs, 0.0);
      x = std::span<double>(w.data(), nloc * nrhs);
    } else {
      x_own.assign(nloc * nrhs, 0.0);
      x = std::span<double>(x_own);
    }
    if (!x0_.empty()) {
      for (std::size_t t = 0; t < nrhs; ++t) {
        std::copy_n(x0_.begin() + static_cast<std::ptrdiff_t>(t * n + begin),
                    nloc, x.begin() + static_cast<std::ptrdiff_t>(t * nloc));
      }
    }
    const std::span<const double> b_local(b.data() + begin, nloc);

    const std::unique_ptr<precond::Preconditioner> prec =
        precond_factory_ ? precond_factory_(opts_, dist, comm.rank())
                         : prec_entry.make(opts_, dist);

    krylov::SolveResult res;
    if (opts_.is_sstep()) {
      // One s-step solve over all rhs columns.  The rank-local RHS
      // block is a strided view into the global b (column t at offset
      // t*n + begin, leading dimension n).
      krylov::SStepGmresConfig cfg = opts_.sstep_config();
      cfg.conv_reference = conv_refs;
      cfg.cancel = cancel;
      if (comm.rank() == 0) cfg.on_restart = observer;
      const dense::ConstMatrixView bv{
          b.data() + begin, static_cast<dense::index_t>(nloc),
          static_cast<dense::index_t>(nrhs), static_cast<dense::index_t>(n)};
      const dense::MatrixView xv{x.data(), static_cast<dense::index_t>(nloc),
                                 static_cast<dense::index_t>(nrhs),
                                 static_cast<dense::index_t>(nloc)};
      res = krylov::sstep_gmres(comm, dist, prec.get(), bv, xv, cfg);
    } else {
      krylov::GmresConfig cfg = opts_.gmres_config();
      cfg.conv_reference = conv_refs.empty() ? 0.0 : conv_refs[0];
      cfg.cancel = cancel;
      if (comm.rank() == 0) cfg.on_restart = observer;
      res = krylov::gmres(comm, dist, prec.get(), b_local, x, cfg);
    }

    std::lock_guard lock(merge_mutex);
    merged.merge_max(res.timers);
    for (std::size_t t = 0; t < nrhs; ++t) {
      std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(t * nloc), nloc,
                  x_.begin() + static_cast<std::ptrdiff_t>(t * n + begin));
    }
    if (comm.rank() == 0) out = res;
  });

  // Critical-path convention: per-phase max across ranks.
  out.timers = merged;
  report.result = out;
  report.history = std::move(history);

  // Resilience record: fired-fault trail (rank 0's deterministic copy)
  // and the end-of-solve residual guard.
  if (injector != nullptr) {
    report.resilience.fault_trail = injector->trail(0);
  }
  report.resilience.guard_enabled = opts_.verify_residual == 1;
  if (opts_.verify_residual == 1) {
    if (out.cancelled || out.deadline_expired) {
      // A cooperative stop exits with whatever iterate it had; judging
      // that against the convergence tolerance would be noise.
      report.resilience.guard_verdict = "skipped";
    } else {
      // Serial recompute against the assembled global matrix —
      // independent of the distributed pieces and their halo state, so
      // corrupted exchange buffers cannot vouch for themselves.  The
      // reference is the serial ||b||; the factor absorbs the benign
      // recurrence-vs-true gap (Carson & Ma, arXiv:2409.03079) and
      // parallel-vs-serial rounding in ref (see kResidualGuardFactor).
      // Batched solves judge every RHS column independently (against
      // its own reported relres when available); one corrupted column
      // flags the whole job, and the scalar verdict echoes the worst
      // column.
      std::vector<double> ax(n, 0.0);
      bool sound_all = true;
      double worst_rel = 0.0;
      double worst_tol = 0.0;
      for (std::size_t t = 0; t < nrhs; ++t) {
        const std::span<const double> xt(x_.data() + t * n, n);
        const std::span<const double> bt(b.data() + t * n, n);
        sparse::spmv(a, xt, ax);
        double rr = 0.0;
        double bb = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = bt[i] - ax[i];
          rr += d * d;
          bb += bt[i] * bt[i];
        }
        const double ref = std::sqrt(bb);
        const double true_rel = ref > 0.0 ? std::sqrt(rr) / ref : std::sqrt(rr);
        const double col_relres = t < out.rhs_results.size()
                                      ? out.rhs_results[t].relres
                                      : out.relres;
        const double tol =
            kResidualGuardFactor * std::max(col_relres, opts_.rtol);
        // NaN-safe on purpose: a NaN true_rel (or NaN relres making tol
        // NaN) fails the <= and lands in "corrupted".
        const bool sound = true_rel <= tol;
        sound_all = sound_all && sound;
        if (t == 0 || !(true_rel <= worst_rel)) {
          worst_rel = true_rel;
          worst_tol = tol;
        }
        if (nrhs > 1) {
          report.resilience.guard_rhs_verdicts.push_back(sound ? "ok"
                                                               : "corrupted");
          report.resilience.guard_rhs_true_relres.push_back(true_rel);
        }
      }
      report.resilience.guard_true_relres = worst_rel;
      report.resilience.guard_tolerance = worst_tol;
      report.resilience.guard_verdict = sound_all ? "ok" : "corrupted";
      if (!sound_all) report.resilience.outcome = "corrupted";
    }
  }
  if (report.resilience.outcome == "ok") {
    if (out.cancelled) report.resilience.outcome = "cancelled";
    if (out.deadline_expired) report.resilience.outcome = "timed_out";
  }
  return report;
}

}  // namespace tsbo::api
