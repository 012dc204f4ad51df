// Reproduces paper Table III: strong scaling of the four solvers on the
// 9-pt 2-D Laplace problem.
//
// Paper: n = 2000^2, 1..32 Summit nodes x 6 GPUs (up to 192 ranks),
// run to convergence.  Here: shrunk grid, rank counts the host can run
// un-oversubscribed, cluster network model, fixed restart budget.
// Expected shape (per rank count):
//   Ortho(GMRES+CGS2) > Ortho(BCGS2+CholQR2) > Ortho(BCGS-PIP2)
//                     > Ortho(two-stage, bs=m),
// with the s-step-over-GMRES and two-stage-over-GMRES speedup factors
// *growing* with the rank count (communication-bound regime).
//
//   bench_table03 [--nx=512] [--ranks=1,2,4,8,16] [--restarts=2]
//                 [--net=cluster] [--json=table03.json]

#include "bench_common.hpp"

#include "par/config.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace tsbo;
  using namespace tsbo::bench;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int nx = cli.get_int("nx", 192);
  const std::vector<int> rank_list =
      cli.get_int_list("ranks", {1, 2, 4, 8, 16});
  const int restarts = cli.get_int("restarts", 2);
  const std::string json_path = cli.get("json", "");

  api::SolverOptions base =
      api::SolverOptions::parse("matrix=laplace2d_9pt rtol=1e-30");
  base.nx = nx;
  base.net = cli.get("net", "calibrated");
  base.max_restarts = restarts;
  cli.reject_unknown();

  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "# Table III reproduction: strong scaling, 2-D Laplace 9-pt "
      "n=%dx%d, %d restarts (%ld iters), net model injects fabric "
      "latency\n"
      "# expected shape: ortho ordering CGS2 > BCGS2 > PIP2 > two-stage;"
      " speedups over GMRES grow with ranks\n\n",
      nx, nx, restarts, 60L * restarts);

  util::Table table({"ranks", "solver", "SpMV", "Ortho", "Total",
                     "ortho speedup", "total speedup", "allreduces",
                     "comm exp s", "comm ovl s"});
  api::ReportLog log("table03");

  for (const int p : rank_list) {
    double base_ortho = 0.0, base_total = 0.0;
    for (const Algo& algo : kPaperAlgos) {
      api::SolverOptions opts = api::SolverOptions::parse(algo.spec, base);
      opts.ranks = p;
      api::Solver solver(opts);
      solver.set_matrix_ref(a, base.matrix);
      solver.set_rhs(b);
      const api::SolveReport rep = solver.solve();
      const krylov::SolveResult& r = rep.result;
      if (!opts.is_sstep()) {
        base_ortho = r.time_ortho();
        base_total = r.time_total();
      }
      table.row()
          .add(p)
          .add(algo.label)
          .add(r.time_spmv(), 3)
          .add(r.time_ortho(), 3)
          .add(r.time_total(), 3)
          .add(util::speedup_str(base_ortho, r.time_ortho()))
          .add(util::speedup_str(base_total, r.time_total()))
          .add(static_cast<long>(r.comm_stats.allreduces))
          .add(r.comm_stats.injected_seconds, 3)
          .add(r.comm_stats.overlapped_seconds, 3);
      log.add(rep);
    }
    table.separator();
  }
  table.print();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
