// Reproduces paper Fig. 13: time-per-iteration breakdown of s-step
// GMRES with the local (multicolor) Gauss-Seidel preconditioner —
// block Jacobi across ranks with Gauss-Seidel in each block — for the
// 2-D Laplace problem, with ortho/total speedups over standard GMRES.
//
// Expected shape: the preconditioner adds a flat "precond" slab to all
// four solvers; the ortho ordering and speedups match Table III's, but
// total speedups shrink slightly since ortho is a smaller share.
//
//   bench_fig13 [--nx=512] [--ranks=8] [--restarts=2] [--net=cluster]
//               [--json=fig13.json]

#include "bench_common.hpp"

#include "par/config.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace tsbo;
  using namespace tsbo::bench;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int nx = cli.get_int("nx", 192);
  const int ranks = cli.get_int("ranks", 8);
  const int restarts = cli.get_int("restarts", 2);
  const std::string json_path = cli.get("json", "");

  api::SolverOptions base =
      api::SolverOptions::parse("matrix=laplace2d_5pt precond=mc-gs rtol=1e-30");
  base.nx = nx;
  base.ranks = ranks;
  base.net = cli.get("net", "calibrated");
  base.max_restarts = restarts;
  cli.reject_unknown();

  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "# Fig. 13 reproduction: s-step GMRES + multicolor Gauss-Seidel "
      "preconditioner, 2-D Laplace n=%dx%d, %d ranks\n"
      "# expected shape: same ortho ordering as Table III; total "
      "speedups slightly smaller (precond adds flat cost)\n\n",
      nx, nx, ranks);

  util::Table table({"solver", "SpMV ms/it", "Precond ms/it", "Ortho ms/it",
                     "Total ms/it", "ortho speedup", "total speedup",
                     "comm exp s", "comm ovl s"});
  api::ReportLog log("fig13");

  double base_ortho = 0.0, base_total = 0.0;
  for (const Algo& algo : kPaperAlgos) {
    api::Solver solver(api::SolverOptions::parse(algo.spec, base));
    solver.set_matrix_ref(a, base.matrix);
    solver.set_rhs(b);
    const api::SolveReport rep = solver.solve();
    const krylov::SolveResult& r = rep.result;
    const double it = static_cast<double>(r.iters > 0 ? r.iters : 1);
    if (!rep.options.is_sstep()) {
      base_ortho = r.time_ortho();
      base_total = r.time_total();
    }
    table.row()
        .add(algo.label)
        .add(1e3 * r.time_spmv() / it, 3)
        .add(1e3 * r.time_precond() / it, 3)
        .add(1e3 * r.time_ortho() / it, 3)
        .add(1e3 * r.time_total() / it, 3)
        .add(util::speedup_str(base_ortho, r.time_ortho()))
        .add(util::speedup_str(base_total, r.time_total()))
        .add(r.comm_stats.injected_seconds, 3)
        .add(r.comm_stats.overlapped_seconds, 3);
    log.add(rep);
  }
  table.print();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
