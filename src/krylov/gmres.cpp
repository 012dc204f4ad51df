#include "krylov/gmres.hpp"

#include "dense/blas1.hpp"
#include "dense/blas2.hpp"
#include "dense/givens.hpp"
#include "ortho/cgs.hpp"
#include "util/aligned.hpp"

#include <cassert>
#include <vector>

namespace tsbo::krylov {

namespace {

/// r = b - A x (one SpMV).
void residual(par::Communicator& comm, const sparse::DistCsr& a,
              std::span<const double> b, std::span<const double> x,
              std::span<double> r, std::span<double> tmp,
              util::PhaseTimers* timers) {
  a.spmv(comm, x, tmp, timers);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - tmp[i];
}

}  // namespace

SolveResult gmres(par::Communicator& comm, const sparse::DistCsr& a,
                  const precond::Preconditioner* m_prec,
                  std::span<const double> b, std::span<double> x,
                  const GmresConfig& cfg) {
  const auto nloc = static_cast<std::size_t>(a.n_local());
  assert(b.size() == nloc && x.size() == nloc);

  SolveResult res;
  const par::CommStats comm_before = comm.stats();
  ortho::OrthoContext octx;
  octx.comm = &comm;
  octx.timers = &res.timers;

  PrecOperator op(a, m_prec);
  dense::Matrix basis(static_cast<index_t>(nloc), cfg.m + 1);
  util::aligned_vector<double> r(nloc), tmp(nloc), z(nloc);

  res.timers.start(util::Phase::kTotal);
  residual(comm, a, b, x, r, tmp, &res.timers);
  const double gamma0 = ortho::global_norm(octx, r);
  double gamma = gamma0;

  if (gamma0 == 0.0) {
    res.converged = true;
  }
  // Convergence reference: ||r0|| by default (for a zero guess that IS
  // ||b||, bit-for-bit), or the caller's fixed norm (warm-start path).
  const double ref = cfg.conv_reference > 0.0 ? cfg.conv_reference : gamma0;
  if (cfg.conv_reference > 0.0 && gamma0 <= cfg.rtol * ref) {
    res.converged = true;
  }

  while (!res.converged && res.iters < cfg.max_iters &&
         res.restarts < cfg.max_restarts) {
    // Cooperative cancellation / deadline poll, only when a token is
    // installed (zero extra syncs otherwise).  The collective max makes
    // the stop decision identical on every rank even though the flag
    // flips asynchronously, so no rank is left inside a collective.
    if (cfg.cancel != nullptr) {
      const double stop =
          comm.allreduce_max_scalar(cfg.cancel->should_stop() ? 1.0 : 0.0);
      if (stop > 0.0) {
        if (cfg.cancel->cancelled()) {
          res.cancelled = true;
        } else {
          res.deadline_expired = true;
        }
        break;
      }
    }
    // Seed the cycle: q_0 = r / gamma.
    {
      double* q0 = basis.col(0);
      const double inv = 1.0 / gamma;
      for (std::size_t i = 0; i < nloc; ++i) q0[i] = r[i] * inv;
    }
    dense::HessenbergLeastSquares ls(cfg.m, gamma);
    std::vector<double> h(static_cast<std::size_t>(cfg.m) + 2);

    bool inner_converged = false;
    for (index_t k = 0; k < cfg.m && res.iters < cfg.max_iters; ++k) {
      std::span<double> w(basis.col(k + 1), nloc);
      op.apply(comm, basis.view().columns(k, 1), basis.view().columns(k + 1, 1),
               &res.timers);

      std::span<double> hk(h.data(), static_cast<std::size_t>(k) + 2);
      if (cfg.ortho == GmresConfig::Ortho::kCgs2) {
        ortho::cgs2_step(octx, basis.view().columns(0, k + 1), w, hk);
      } else {
        ortho::mgs_step(octx, basis.view().columns(0, k + 1), w, hk);
      }

      {
        const util::ScopedPhase t(&res.timers, util::Phase::kOrthoSmall);
        ls.append_column(hk);
      }
      res.iters += 1;

      if (ls.residual_norm() <= cfg.rtol * ref) {
        inner_converged = true;
        break;
      }
      if (hk[static_cast<std::size_t>(k) + 1] == 0.0) {
        // Happy breakdown: the Krylov space is invariant.
        inner_converged = true;
        break;
      }
    }

    // Correction: x += M^{-1} (Q y).
    const index_t used = ls.cols();
    if (used > 0) {
      const std::vector<double> y = ls.solve_y();
      {
        const util::ScopedPhase t(&res.timers, util::Phase::kOrthoSmall);
        dense::gemv(1.0, basis.view().columns(0, used), y, 0.0, z);
      }
      const auto rows = static_cast<index_t>(nloc);
      op.apply_minv(dense::ConstMatrixView{z.data(), rows, 1, rows},
                    dense::MatrixView{tmp.data(), rows, 1, rows}, &res.timers);
      dense::axpy(1.0, tmp, x);
    }
    res.restarts += 1;
    res.relres = ref > 0.0 ? ls.residual_norm() / ref : 0.0;

    residual(comm, a, b, x, r, tmp, &res.timers);
    gamma = ortho::global_norm(octx, r);
    if (inner_converged || gamma <= cfg.rtol * ref) {
      res.converged = true;
    }
    if (cfg.on_restart) {
      cfg.on_restart(ProgressEvent{res.iters, res.restarts, res.relres,
                                   ref > 0.0 ? gamma / ref : 0.0,
                                   res.converged, &res.timers});
    }
  }

  res.timers.stop(util::Phase::kTotal);
  residual(comm, a, b, x, r, tmp, &res.timers);
  const double final_norm = ortho::global_norm(octx, r);
  res.true_relres = ref > 0.0 ? final_norm / ref : 0.0;
  res.comm_stats = par::subtract(comm.stats(), comm_before);
  res.cholesky_breakdowns = octx.cholesky_breakdowns;
  res.shift_retries = octx.shift_retries;
  return res;
}

}  // namespace tsbo::krylov
