// Reproduces paper Fig. 8: per-step condition numbers and orthogonality
// errors of the two-stage approach on the growing glued matrix with
// (n, m, bs, s) = (100000, 180, 60, 5) — panel kappa 1e7 fixed,
// cumulative kappa growing as 2^{j-1} * 1e7.
//
// Expected shape: the accumulated condition number of the *raw* panels
// tracks the construction's 2^{j-1} * 1e7 schedule; the pre-processing
// stage keeps kappa([Q_final, Qhat_big]) = O(1); the orthogonality
// error after every stage-2 flush (every bs columns) is O(eps).
//
// Default n is reduced to keep the kappa measurements (O(n k^2) each)
// inside a few seconds; pass --n=100000 for the paper's size.
//
// A second section runs the solver-level stability-autopilot ablation
// on the ill-conditioned Ga41As41H72 surrogate: the fixed
// (s=15, double-precision Gram, breakdown=throw) configuration aborts
// with CholeskyBreakdown, the same problem with autopilot=1 completes
// the solve (shrinking s / escalating the Gram / re-basing as the
// conditioning monitor demands).  --json dumps the autopilot run's
// SolveReport (schema tsbo.solve_report/9) for the CI gate.
//
//   bench_fig08 [--n=20000] [--m=180] [--bs=60] [--s=5]
//               [--json=fig08.json]

#include "bench_common.hpp"

#include "par/config.hpp"
#include "dense/svd.hpp"
#include "ortho/manager.hpp"
#include "ortho/measures.hpp"
#include "synth/synthetic.hpp"

#include <cmath>
#include <cstdio>

namespace {

/// Fixed-config vs autopilot runs on the Ga41As41H72 surrogate; returns
/// false when the autopilot run fails to complete (the CI gate's
/// failure condition).
bool run_autopilot_ablation(tsbo::api::ReportLog& log) {
  using namespace tsbo;
  // The aggressive configuration: s = 15 monomial steps overruns the
  // eps^{-1/2} panel bound on this surrogate, and breakdown=throw turns
  // the first failed Cholesky into an abort.
  api::SolverOptions fixed = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=Ga41As41H72 n=800 equilibrate=1 "
      "m=60 s=15 bs=60 rtol=1e-8 breakdown=throw max_restarts=40");

  std::printf(
      "\n# Stability-autopilot ablation: Ga41As41H72 surrogate (n=800, "
      "m=60, s=15, bs=60, rtol=1e-8)\n"
      "# expected: fixed config aborts with CholeskyBreakdown; "
      "autopilot=1 completes the solve\n\n");

  util::Table table({"config", "outcome", "relres", "restarts", "final s",
                     "final gram", "rebases", "events"});

  {
    api::Solver solver(fixed);
    try {
      const api::SolveReport rep = solver.solve();
      table.row()
          .add("fixed s=15 throw")
          .add(rep.result.converged ? "converged" : "stalled")
          .add(util::sci(rep.result.relres))
          .add(rep.result.restarts)
          .add(static_cast<int>(fixed.s))
          .add("double")
          .add(0)
          .add(0);
    } catch (const ortho::CholeskyBreakdown&) {
      table.row()
          .add("fixed s=15 throw")
          .add("ABORTED (CholeskyBreakdown)")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-");
    }
  }

  bool ok = false;
  {
    api::SolverOptions ap = fixed;
    ap.autopilot = true;
    api::Solver solver(ap);
    try {
      const api::SolveReport rep = solver.solve();
      ok = rep.result.converged;
      table.row()
          .add("autopilot=1")
          .add(rep.result.converged ? "converged" : "stalled")
          .add(util::sci(rep.result.relres))
          .add(rep.result.restarts)
          .add(static_cast<int>(rep.result.autopilot_final_s))
          .add(rep.result.autopilot_final_dd ? "dd" : "double")
          .add(rep.result.rebase_recoveries)
          .add(static_cast<int>(rep.result.autopilot_events.size()));
      log.add(rep);
      for (const krylov::AutopilotEvent& ev : rep.result.autopilot_events) {
        std::printf("#   restart %2d: %-13s kappa-est %.2e  s %d -> %d  "
                    "gram %s -> %s\n",
                    ev.restart, ev.kind.c_str(), ev.kappa,
                    static_cast<int>(ev.s_before),
                    static_cast<int>(ev.s_after), ev.dd_before ? "dd" : "d",
                    ev.dd_after ? "dd" : "d");
      }
    } catch (const ortho::CholeskyBreakdown&) {
      table.row()
          .add("autopilot=1")
          .add("ABORTED (CholeskyBreakdown)")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-");
    }
  }
  table.print();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsbo;
  using dense::index_t;
  using dense::Matrix;

  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const auto n = static_cast<index_t>(cli.get_int("n", 20000));
  const auto m = static_cast<index_t>(cli.get_int("m", 180));
  const auto bs = static_cast<index_t>(cli.get_int("bs", 60));
  const auto s = static_cast<index_t>(cli.get_int("s", 5));
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  std::printf(
      "# Fig. 8 reproduction: two-stage on glued matrix (n,m,bs,s) = "
      "(%d,%d,%d,%d)\n"
      "# panel kappa = 1e7, cumulative kappa = 2^(j-1) * 1e7\n"
      "# expected: kappa(panels) tracks the 2^(j-1)*1e7 schedule;\n"
      "#           kappa([Q,Qhat]) stays O(1); err = O(eps) at each "
      "flush\n\n",
      n, m, bs, s);

  synth::GluedSpec spec;
  spec.n = n;
  spec.panels = m / s;
  spec.panel_cols = s;
  spec.kappa_panel = 1e7;
  spec.growth = 2.0;
  const Matrix vpanels = synth::glued(spec, 7);

  // Seed column + panels, driven through the two-stage manager exactly
  // like the solver drives it.
  Matrix basis(n, m + 1);
  {
    const Matrix seed = synth::random_orthonormal(n, 1, 12345);
    dense::copy(seed.view(), basis.view().columns(0, 1));
    dense::copy(vpanels.view(), basis.view().columns(1, m));
  }
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  r(0, 0) = 1.0;

  auto mgr = ortho::make_two_stage_manager(bs);
  mgr->reset(1);
  ortho::OrthoContext ctx;
  ctx.policy = ortho::BreakdownPolicy::kShift;

  util::Table table({"step", "kappa(V_1:j) raw", "monitor est",
                     "kappa([Q,Qhat_1:j])", "||I-Q^T Q|| (at flush)"});

  for (index_t p = 0; p < m / s; ++p) {
    const index_t q0 = p * s + 1;
    // Raw cumulative condition number (the 2^{j-1} * 1e7 schedule).
    const double kraw = dense::cond_2(vpanels.view().columns(0, q0 - 1 + s));

    mgr->note_mpk_start(ctx, l.view(), p * s);
    const index_t nfinal =
        mgr->add_panel(ctx, basis.view(), q0, s, r.view(), l.view());

    // The autopilot's free conditioning estimate — the squared diagonal
    // ratio of the panel's Gram Cholesky factor — next to the exact
    // (O(n k^2) SVD) values it stands in for.
    const double monitor = std::sqrt(ctx.take_gram_kappa_peak());
    const double kpre = dense::cond_2(basis.view().columns(0, q0 + s));
    table.row()
        .add(static_cast<int>(p * s + s))
        .add(util::sci(kraw))
        .add(util::sci(monitor))
        .add(util::sci(kpre));
    if (nfinal == q0 + s) {  // stage-2 flush happened at this panel
      const double err =
          dense::orthogonality_error(basis.view().columns(0, nfinal));
      table.add(util::sci(err));
    } else {
      table.add("-");
    }
  }
  table.print();

  std::printf("\nshift retries: %d, breakdowns: %d\n", ctx.shift_retries,
              ctx.cholesky_breakdowns);

  api::ReportLog log("fig08");
  const bool ap_ok = run_autopilot_ablation(log);
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  if (!ap_ok) {
    std::printf("\n# FAIL: autopilot run did not complete\n");
    return 1;
  }
  return 0;
}
