// Quickstart: solve a 2-D Laplace system with s-step GMRES using the
// two-stage block orthogonalization, and compare against standard
// GMRES.  This is the 60-second tour of the public API: describe each
// run as string options, hand them to the api::Solver facade, read the
// SolveReport.
//
//   ./example_quickstart [--nx=128] [--ranks=4] [--rtol=1e-6]
//                        [--json=quickstart.json]
//
// Every api::SolverOptions key ("matrix=...", "ortho=...", "s=...") is
// accepted on the command line, so this binary doubles as a generic
// solver driver:
//
//   ./example_quickstart --matrix=laplace3d_7pt --nx=24 --precond=jacobi

#include "api/solver.hpp"
#include "par/config.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <string>

int main(int argc, char** argv) {
  using namespace tsbo;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS

  // 1. Describe the problem.  Demo defaults: 128x128 Laplace, 4 ranks;
  //    any option key on the command line overrides them.
  api::SolverOptions base;
  base.matrix = "laplace2d_5pt";
  base.nx = 128;
  base.ranks = 4;
  base = api::SolverOptions::from_cli(cli, base);
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  // 2. Run standard GMRES + CGS2, then s-step GMRES + two-stage
  //    orthogonalization (defaults s=5, bs=m=60: the paper's best
  //    configuration) on the same matrix.  Only the solver kind is
  //    forced per run — user overrides like --ortho/--s/--bs stick for
  //    the run they apply to (an incompatible ortho falls back to the
  //    solver's default).  The facade builds the matrix from the
  //    options, uses the all-ones-solution RHS, and runs under SPMD.
  api::Solver std_solver(api::SolverOptions::parse("solver=gmres", base));
  const api::SolveReport std_rep = std_solver.solve();

  api::Solver ts_solver(api::SolverOptions::parse("solver=sstep", base));
  ts_solver.set_matrix_ref(std_solver.matrix(), base.matrix);
  const api::SolveReport ts_rep = ts_solver.solve();

  std::printf("%s: n = %ld, nnz = %lld, %d ranks\n\n",
              ts_rep.matrix.name.c_str(), ts_rep.matrix.rows,
              ts_rep.matrix.nnz, ts_rep.ranks);
  const auto row = [](const std::string& name, const api::SolveReport& rep) {
    std::printf(
        "%-28s iters=%-7ld relres=%.2e  true=%.2e  ortho=%.3fs total=%.3fs\n",
        name.c_str(), rep.result.iters, rep.result.relres,
        rep.result.true_relres, rep.result.time_ortho(),
        rep.result.time_total());
  };
  row("GMRES + " + std_rep.options.ortho + ":", std_rep);
  row("s-step + " + ts_rep.options.ortho + ":", ts_rep);
  std::printf("\nsyncs: standard=%llu  s-step=%llu (global all-reduces)\n",
              static_cast<unsigned long long>(
                  std_rep.result.comm_stats.allreduces),
              static_cast<unsigned long long>(
                  ts_rep.result.comm_stats.allreduces));

  // Comm accounting: exposed = modeled fabric time spun on the critical
  // path, overlapped = the share the split-phase halo exchanges hid
  // behind interior SpMV rows.
  const auto comm_row = [](const std::string& name,
                           const api::SolveReport& rep) {
    const auto& c = rep.result.comm_stats;
    std::printf("%-28s comm exposed=%.3fs overlapped=%.3fs (hidden %.0f%%)\n",
                name.c_str(), c.injected_seconds, c.overlapped_seconds,
                c.injected_seconds + c.overlapped_seconds > 0.0
                    ? 100.0 * c.overlapped_seconds /
                          (c.injected_seconds + c.overlapped_seconds)
                    : 0.0);
  };
  comm_row("GMRES + " + std_rep.options.ortho + ":", std_rep);
  comm_row("s-step + " + ts_rep.options.ortho + ":", ts_rep);

  // 3. Optionally dump both reports as one machine-readable artifact.
  api::ReportLog log("quickstart");
  log.add(std_rep);
  log.add(ts_rep);
  if (log.save(json_path)) std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
