#include "krylov/sstep_gmres.hpp"

#include "dense/blas1.hpp"
#include "dense/block_householder.hpp"
#include "krylov/hessenberg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsbo::krylov {

std::unique_ptr<ortho::BlockOrthoManager> make_two_stage(
    const SStepGmresConfig& cfg) {
  if (cfg.bs < cfg.s || cfg.bs > cfg.m || cfg.bs % cfg.s != 0) {
    throw std::invalid_argument(
        "sstep_gmres: two-stage requires s <= bs <= m with s | bs");
  }
  return ortho::make_two_stage_manager(cfg.bs);
}

std::unique_ptr<ortho::BlockOrthoManager> make_manager(
    const SStepGmresConfig& cfg) {
  if (!cfg.manager_factory) return make_two_stage(cfg);
  auto manager = cfg.manager_factory(cfg);
  if (manager == nullptr) {
    throw std::invalid_argument(
        "make_manager: manager_factory returned null for this config");
  }
  return manager;
}

namespace {

void validate(const SStepGmresConfig& cfg, dense::ConstMatrixView b_rhs,
              dense::ConstMatrixView x, index_t nloc) {
  const index_t nrhs = b_rhs.cols;
  if (nrhs < 1 || b_rhs.rows != nloc || x.rows != nloc || x.cols != nrhs) {
    throw std::invalid_argument(
        "sstep_gmres: B and X must both be n_local x b with b >= 1");
  }
  if (cfg.s <= 0 || cfg.m <= 0 || cfg.m % cfg.s != 0) {
    throw std::invalid_argument("sstep_gmres: s must divide m");
  }
  if ((cfg.basis == BasisKind::kNewton || cfg.basis == BasisKind::kChebyshev) &&
      !(cfg.lambda_max > cfg.lambda_min)) {
    throw std::invalid_argument(
        "sstep_gmres: Newton/Chebyshev bases need a spectral interval");
  }
  if (!cfg.conv_reference.empty() &&
      static_cast<index_t>(cfg.conv_reference.size()) != nrhs) {
    throw std::invalid_argument(
        "sstep_gmres: conv_reference must hold one norm per right-hand side");
  }
  if (nrhs > 1 && cfg.autopilot.enabled) {
    throw std::invalid_argument(
        "sstep_gmres: autopilot requires a single right-hand side (got " +
        std::to_string(nrhs) + ")");
  }
  if (cfg.autopilot.enabled) {
    if (!(cfg.autopilot.kappa_high > cfg.autopilot.kappa_low) ||
        !(cfg.autopilot.kappa_low > 0.0)) {
      throw std::invalid_argument(
          "sstep_gmres: autopilot needs 0 < kappa_low < kappa_high");
    }
    if (cfg.autopilot.s_min < 1 || cfg.autopilot.patience < 1) {
      throw std::invalid_argument(
          "sstep_gmres: autopilot needs s_min >= 1 and patience >= 1");
    }
  }
}

/// The Newton/Chebyshev recurrences depend on the panel width, so a
/// basis built here is valid only for the step size it was built with —
/// the autopilot rebuilds on every s change.
KrylovBasis make_basis(const SStepGmresConfig& cfg, index_t s) {
  switch (cfg.basis) {
    case BasisKind::kMonomial:
      return KrylovBasis::monomial(cfg.m);
    case BasisKind::kNewton:
      return KrylovBasis::newton(cfg.m, s, cfg.lambda_min, cfg.lambda_max);
    case BasisKind::kChebyshev:
      return KrylovBasis::chebyshev(cfg.m, s, cfg.lambda_min, cfg.lambda_max);
  }
  throw std::invalid_argument("sstep_gmres: unknown basis");
}

/// Step-size ladder for the autopilot: ascending divisors d of m with
/// autopilot.s_min <= d <= s, additionally required to divide bs when
/// the configured s does (preserving the two-stage invariant s | bs).
/// Always ends with the configured s, which is exempt from the s_min
/// floor — the user's choice is the ladder's top rung by definition.
std::vector<index_t> step_ladder(const SStepGmresConfig& cfg) {
  std::vector<index_t> ladder;
  const bool tie_bs = cfg.bs % cfg.s == 0;
  for (index_t d = 1; d <= cfg.s; ++d) {
    if (cfg.m % d != 0) continue;
    if (tie_bs && cfg.bs % d != 0) continue;
    if (d < cfg.autopilot.s_min && d != cfg.s) continue;
    ladder.push_back(d);
  }
  if (ladder.empty() || ladder.back() != cfg.s) ladder.push_back(cfg.s);
  return ladder;
}

/// With the double-double Gram in effect the plain-double kappa_high no
/// longer binds; escalation pressure resumes only near the dd validity
/// edge (basis kappa ~ u_dd^{-1/2} ~ 1e15, taken with two orders of
/// margin, mirroring kappa_high's default margin to eps^{-1/2}).
constexpr double kDdKappaHigh = 1e13;

}  // namespace

SolveResult sstep_gmres(par::Communicator& comm, const sparse::DistCsr& a,
                        const precond::Preconditioner* m_prec,
                        dense::ConstMatrixView b_rhs, dense::MatrixView x,
                        const SStepGmresConfig& cfg) {
  const index_t k = b_rhs.cols;
  const auto nloc = static_cast<std::size_t>(a.n_local());
  const auto rows = static_cast<index_t>(nloc);
  validate(cfg, b_rhs, x, rows);
  const index_t m = cfg.m;

  // The manager sees the active block width as wider panels: m, s and
  // bs counted in flat columns.  Built before any collective, so an
  // invalid scheme configuration fails identically on every rank.
  const auto manager_for = [&cfg](index_t bw) {
    SStepGmresConfig mcfg = cfg;
    mcfg.m *= bw;
    mcfg.s *= bw;
    mcfg.bs *= bw;
    return make_manager(mcfg);
  };
  std::unique_ptr<ortho::BlockOrthoManager> manager = manager_for(k);
  index_t manager_b = k;

  SolveResult res;
  res.rhs_results.resize(static_cast<std::size_t>(k));
  const par::CommStats comm_before = comm.stats();
  ortho::OrthoContext octx;
  octx.comm = &comm;
  octx.timers = &res.timers;
  // The autopilot owns breakdown handling: force kThrow so breakdowns
  // surface to the re-base recovery instead of being shift-perturbed
  // (supersedes the configured policy while enabled).
  const bool ap = cfg.autopilot.enabled;
  octx.policy = ap ? ortho::BreakdownPolicy::kThrow : cfg.policy;
  octx.mixed_precision_gram = cfg.mixed_precision_gram;

  PrecOperator op(a, m_prec);
  // Scale the monomial/Newton recurrences by an operator-norm estimate
  // so the raw MPK vectors stay O(1): without this the monomial basis
  // grows like ||A||^s per panel and the Gram matrices overflow their
  // conditioning long before condition (5) is the binding constraint.
  // (Chebyshev's own gamma already normalizes.)
  double gamma_scale = 0.0;
  if (cfg.basis != BasisKind::kChebyshev) {
    double est = 0.0;
    a.for_each_local_row([&](sparse::ord i, std::span<const sparse::ord> cols,
                             std::span<const double> vals) {
      double row = 0.0;
      double diag = 1.0;
      for (std::size_t e = 0; e < cols.size(); ++e) {
        row += std::abs(vals[e]);
        if (cols[e] == i) diag = std::abs(vals[e]);
      }
      // With a (roughly diagonal-normalizing) preconditioner the
      // operator is closer to D^{-1}A; estimate accordingly.
      est = std::max(est, m_prec != nullptr && diag > 0.0 ? row / diag : row);
    });
    gamma_scale = comm.allreduce_max_scalar(est);
  }
  const auto build_basis = [&](index_t s) {
    KrylovBasis kb = make_basis(cfg, s);
    if (gamma_scale > 0.0) kb = kb.with_gamma_scale(gamma_scale);
    return kb;
  };
  KrylovBasis kbasis = build_basis(cfg.s);

  // Autopilot state: the step-size ladder plus the Gram precision in
  // effect.  All transitions are driven by globally-reduced estimates,
  // so every rank holds identical state after every restart.
  const std::vector<index_t> ladder =
      ap ? step_ladder(cfg) : std::vector<index_t>{cfg.s};
  std::size_t rung = ladder.size() - 1;  // index of the configured s
  index_t s_cur = cfg.s;
  bool dd_cur = cfg.mixed_precision_gram;
  int healthy = 0;  // consecutive cycles below kappa_low
  res.autopilot_final_s = s_cur;
  res.autopilot_final_dd = dd_cur;

  // Flat storage sized for the full block width; cycles narrowed by
  // deflation use the leading (m+1)*bw columns.
  dense::Matrix basis(rows, (m + 1) * k);
  dense::Matrix rmat((m + 1) * k, (m + 1) * k);
  dense::Matrix lmat((m + 1) * k, (m + 1) * k);
  dense::Matrix hmat((m + 1) * k, m * k);
  dense::Matrix xact(rows, k);  // gathered active solution columns
  dense::Matrix ract(rows, k);  // residual block; the correction's Q Y
  dense::Matrix tmp(rows, k);
  dense::Matrix gmat(k, k);     // residual Gram, then the seed factor

  // Active (not yet accepted) columns, by original RHS index.
  std::vector<index_t> active(static_cast<std::size_t>(k));
  std::iota(active.begin(), active.end(), 0);
  const auto rr_of = [&](index_t t) -> RhsResult& {
    return res.rhs_results[static_cast<std::size_t>(
        active[static_cast<std::size_t>(t)])];
  };

  // R = B - A X over the listed columns (gathered: deflation leaves the
  // active ones scattered), then their Gram in ONE reduce.
  const auto residual = [&](const std::vector<index_t>& cols) {
    const auto bw = static_cast<index_t>(cols.size());
    for (index_t t = 0; t < bw; ++t) {
      const double* xc = x.col(cols[static_cast<std::size_t>(t)]);
      std::copy(xc, xc + nloc, xact.col(t));
    }
    a.spmm(comm, xact.block(0, 0, rows, bw), tmp.block(0, 0, rows, bw),
           &res.timers);
    for (index_t t = 0; t < bw; ++t) {
      const double* bc = b_rhs.col(cols[static_cast<std::size_t>(t)]);
      const double* ax = tmp.col(t);
      double* rc = ract.col(t);
      for (std::size_t i = 0; i < nloc; ++i) rc[i] = bc[i] - ax[i];
    }
    ortho::residual_gram(octx, ract.block(0, 0, rows, bw),
                         gmat.block(0, 0, bw, bw));
  };
  const auto residual_norm = [&](index_t t) { return std::sqrt(gmat(t, t)); };
  std::vector<double> ref(static_cast<std::size_t>(k));
  const auto ref_of = [&](index_t t) {
    return ref[static_cast<std::size_t>(active[static_cast<std::size_t>(t)])];
  };

  // Freezes the accepted columns at this boundary; survivors keep their
  // residuals and sub-Gram (no second reduce) for the next seed.
  const auto deflate = [&](const std::vector<bool>& accepted) {
    std::vector<index_t> keep;
    for (index_t t = 0; t < static_cast<index_t>(active.size()); ++t) {
      if (!accepted[static_cast<std::size_t>(t)]) {
        keep.push_back(t);
        continue;
      }
      RhsResult& rr = rr_of(t);
      rr.converged = true;
      rr.deflated_at_restart = res.restarts;
    }
    // In place: keep is ascending, so every source row/column is read
    // before a write can reach it.
    const auto nkeep = static_cast<index_t>(keep.size());
    for (index_t i = 0; i < nkeep; ++i) {
      const index_t ki = keep[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < nkeep; ++j) {
        gmat(i, j) = gmat(ki, keep[static_cast<std::size_t>(j)]);
      }
      if (ki != i) std::copy(ract.col(ki), ract.col(ki) + nloc, ract.col(i));
      active[static_cast<std::size_t>(i)] = active[static_cast<std::size_t>(ki)];
    }
    active.resize(keep.size());
    res.converged = active.empty();
  };

  res.timers.start(util::Phase::kTotal);
  residual(active);
  {
    // Convergence reference: the initial-residual norm by default (for
    // a zero guess that IS ||b||, bit-for-bit), or the caller's fixed
    // norm (the warm-start path — a good x0 then starts partway to the
    // target instead of re-normalizing it).
    std::vector<bool> accepted(static_cast<std::size_t>(k));
    for (index_t t = 0; t < k; ++t) {
      const auto tt = static_cast<std::size_t>(t);
      const double gamma0 = residual_norm(t);
      const bool fixed =
          !cfg.conv_reference.empty() && cfg.conv_reference[tt] > 0.0;
      ref[tt] = fixed ? cfg.conv_reference[tt] : gamma0;
      accepted[tt] = gamma0 == 0.0 || (fixed && gamma0 <= cfg.rtol * ref[tt]);
    }
    deflate(accepted);
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
    const auto bw = static_cast<index_t>(active.size());
    if (manager_b != bw) {
      manager = manager_for(bw);
      manager_b = bw;
    }

    // Seed the cycle: basis block 0 = R S0^{-1}; R = L = identity seed.
    const dense::MatrixView basis_v = basis.block(0, 0, rows, (m + 1) * bw);
    const dense::MatrixView s0 = gmat.block(0, 0, bw, bw);
    ortho::seed_block(octx, ract.block(0, 0, rows, bw), s0,
                      basis_v.columns(0, bw));
    rmat.set_zero();
    lmat.set_zero();
    for (index_t t = 0; t < bw; ++t) rmat(t, t) = 1.0;
    const dense::MatrixView rv = rmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    const dense::MatrixView lv = lmat.block(0, 0, (m + 1) * bw, (m + 1) * bw);
    const dense::MatrixView hv = hmat.block(0, 0, (m + 1) * bw, m * bw);
    manager->reset(bw);
    dense::BlockHessenbergLeastSquares ls(m * bw, bw, s0);

    index_t assembled = 0;   // flat Hessenberg columns appended so far
    index_t generated = bw;  // flat basis columns stage-1-processed so far
    const auto append_new_columns = [&](index_t nfinal) {
      if (nfinal - bw <= assembled) return false;
      const util::ScopedPhase t(&res.timers, util::Phase::kOrthoSmall);
      assemble_hessenberg(rv, lv, kbasis, s_cur, assembled, nfinal - bw, hv,
                          bw);
      for (index_t c = assembled; c < nfinal - bw; ++c) {
        ls.append_column(std::span<const double>(
            hv.col(c), static_cast<std::size_t>(c + bw + 1)));
      }
      assembled = nfinal - bw;
      return true;
    };
    const auto estimate_accepts = [&](index_t t) {
      return ls.residual_norm(t) <= cfg.rtol * ref_of(t);
    };

    const index_t npanel = m / s_cur;
    const index_t sw = s_cur * bw;  // flat panel width
    double cycle_kappa = 0.0;
    bool cycle_breakdown = false;
    // Basis-level conditioning estimate for the cycle: sqrt of the
    // monitor's Gram estimate (kappa(G) ~ kappa(V)^2).  Computed from
    // the replicated post-reduce factor — identical bits on every rank
    // at any thread count.
    const auto poll_monitor = [&] {
      const double gram_est = octx.take_gram_kappa_peak();
      if (gram_est > 0.0) {
        cycle_kappa = std::max(cycle_kappa, std::sqrt(gram_est));
      }
    };
    try {
      for (index_t p = 0; p < npanel; ++p) {
        const index_t start = p * sw;  // flat index of the MPK input block
        for (index_t t = 0; t < bw; ++t) {
          manager->note_mpk_start(octx, lv, start + t);
        }
        matrix_powers(comm, op, kbasis, basis_v, p * s_cur + 1, s_cur,
                      &res.timers, bw);
        const index_t nfinal =
            manager->add_panel(octx, basis_v, start + bw, sw, rv, lv);
        // Count the panel only once its orthogonalization held: a
        // thrown CholeskyBreakdown rolls the cycle back to the last
        // accepted column, excluding the broken panel's columns.
        generated = start + bw + sw;
        poll_monitor();

        if (append_new_columns(nfinal)) {
          bool all = true;
          for (index_t t = 0; t < bw && all; ++t) all = estimate_accepts(t);
          if (all) break;
        }
      }
    } catch (const ortho::CholeskyBreakdown&) {
      // Autopilot recovery: the broken panel's columns are beyond
      // `generated`, so the cycle re-bases from the last accepted
      // column below.  Without the autopilot the breakdown propagates
      // (kThrow semantics unchanged).
      if (!ap) throw;
      cycle_breakdown = true;
      poll_monitor();
    }

    // Flush a partially filled big panel (bs not dividing m, an early
    // inner break, or a cycle cut short by a recovered breakdown).
    index_t nfinal = generated;
    if (!cycle_breakdown) {
      try {
        nfinal = manager->finalize(octx, basis_v, generated, rv, lv);
      } catch (const ortho::CholeskyBreakdown&) {
        if (!ap) throw;
        cycle_breakdown = true;
      }
    }
    if (cycle_breakdown) {
      // Re-base: discard broken state, keep whatever prefix the manager
      // can still finalize, and let the normal correction + restart
      // continue from the last accepted column.
      res.rebase_recoveries += 1;
      nfinal = manager->rebase_after_breakdown(octx, basis_v, generated, rv,
                                               lv);
    }
    poll_monitor();
    append_new_columns(nfinal);

    // Correction: X_active += M^{-1} (Q_{1:assembled} Y).  The residual
    // block is dead after the seed, so ract holds Q Y.
    if (ls.cols() > 0) {
      const dense::MatrixView z = ract.block(0, 0, rows, bw);
      {
        const util::ScopedPhase t(&res.timers, util::Phase::kOrthoSmall);
        ls.combine(basis_v, z);
      }
      op.apply_minv(z, tmp.block(0, 0, rows, bw), &res.timers);
      for (index_t t = 0; t < bw; ++t) {
        dense::axpy(1.0, std::span<const double>(tmp.col(t), nloc),
                    std::span<double>(x.col(active[static_cast<std::size_t>(t)]),
                                      nloc));
      }
    }
    res.iters += assembled;
    res.restarts += 1;

    // Restart boundary: explicit residuals, then the acceptance rule —
    // a column is done when its least-squares estimate or its explicit
    // residual is <= rtol * ref.
    std::vector<bool> accepted(static_cast<std::size_t>(bw));
    residual(active);
    double explicit_relres = 0.0;
    for (index_t t = 0; t < bw; ++t) {
      RhsResult& rr = rr_of(t);
      const double rcol = ref_of(t);
      rr.iters += assembled / bw;
      rr.relres = rcol > 0.0 ? ls.residual_norm(t) / rcol : 0.0;
      const double gamma = residual_norm(t);
      const double rel = rcol > 0.0 ? gamma / rcol : 0.0;
      res.relres = t == 0 ? rr.relres : std::max(res.relres, rr.relres);
      explicit_relres = t == 0 ? rel : std::max(explicit_relres, rel);
      accepted[static_cast<std::size_t>(t)] =
          estimate_accepts(t) || gamma <= cfg.rtol * rcol;
    }
    deflate(accepted);

    // Conditioning monitor summary (maintained even with the autopilot
    // off — free observability from the Cholesky diagonals).
    res.autopilot_max_kappa = std::max(res.autopilot_max_kappa, cycle_kappa);

    if (ap) {
      // A breakdown before any panel's factor succeeded leaves no
      // diagonal-ratio estimate; record the honest "beyond measurement"
      // value rather than a healthy-looking zero.
      const double kappa_rec =
          (cycle_breakdown && cycle_kappa == 0.0)
              ? std::numeric_limits<double>::infinity()
              : cycle_kappa;
      const auto record = [&](const char* kind, index_t s_after,
                              bool dd_after) {
        res.autopilot_events.push_back(AutopilotEvent{
            res.restarts, kind, kappa_rec, s_cur, s_after, dd_cur, dd_after});
      };
      if (cycle_breakdown) record("rebase", s_cur, dd_cur);
      if (!res.converged) {
        if (cycle_breakdown && assembled == 0 && rung == 0 && dd_cur) {
          // Saturated ladder (s at minimum, dd Gram) and a cycle that
          // accepted nothing: no escalation can make progress.
          throw ortho::CholeskyBreakdown(
              "sstep_gmres: stability autopilot saturated (s at minimum, "
              "double-double Gram) with no columns accepted in the cycle");
        }
        const double high = dd_cur ? kDdKappaHigh : cfg.autopilot.kappa_high;
        if (cycle_breakdown || cycle_kappa > high) {
          healthy = 0;
          if (rung > 0) {
            record("shrink_s", ladder[rung - 1], dd_cur);
            rung -= 1;
            s_cur = ladder[rung];
            kbasis = build_basis(s_cur);
          } else if (!dd_cur) {
            record("escalate_gram", s_cur, true);
            dd_cur = true;
            octx.mixed_precision_gram = true;
          }
        } else if (cycle_kappa < cfg.autopilot.kappa_low &&
                   (dd_cur != cfg.mixed_precision_gram || s_cur != cfg.s)) {
          healthy += 1;
          if (healthy >= cfg.autopilot.patience) {
            healthy = 0;
            if (dd_cur && !cfg.mixed_precision_gram) {
              record("relax_gram", s_cur, false);
              dd_cur = false;
              octx.mixed_precision_gram = false;
            } else if (rung + 1 < ladder.size()) {
              record("grow_s", ladder[rung + 1], dd_cur);
              rung += 1;
              s_cur = ladder[rung];
              kbasis = build_basis(s_cur);
            }
          }
        } else {
          healthy = 0;
        }
      }
      res.autopilot_final_s = s_cur;
      res.autopilot_final_dd = dd_cur;
    }
    if (cfg.on_restart) {
      cfg.on_restart(ProgressEvent{res.iters, res.restarts, res.relres,
                                   explicit_relres, res.converged,
                                   &res.timers});
    }
  }

  // Exit: explicit residuals of EVERY column, frozen ones included.
  res.timers.stop(util::Phase::kTotal);
  std::vector<index_t> all(static_cast<std::size_t>(k));
  std::iota(all.begin(), all.end(), 0);
  residual(all);
  for (index_t t = 0; t < k; ++t) {
    RhsResult& rr = res.rhs_results[static_cast<std::size_t>(t)];
    const double rcol = ref[static_cast<std::size_t>(t)];
    rr.true_relres = rcol > 0.0 ? residual_norm(t) / rcol : 0.0;
    res.true_relres =
        t == 0 ? rr.true_relres : std::max(res.true_relres, rr.true_relres);
    res.relres = t == 0 ? rr.relres : std::max(res.relres, rr.relres);
  }
  res.comm_stats = par::subtract(comm.stats(), comm_before);
  res.cholesky_breakdowns = octx.cholesky_breakdowns;
  res.shift_retries = octx.shift_retries;
  return res;
}

}  // namespace tsbo::krylov
