// Reproduces paper Table IV: time per iteration for 3-D model problems
// and the SuiteSparse surrogate matrices, four solvers each.
//
// Paper: matrices of 1-1.5M rows on 16 Summit nodes (96 GPUs), time
// per iteration (ms) with ortho/total speedups over standard GMRES.
// Here: shrunk matrices, fixed rank count with the cluster model.
// Expected shape per matrix: ortho time/iter ordering
//   standard > s-step(BCGS2) > BCGS-PIP2 > two-stage,
// ortho speedups in the broad ranges the paper reports (s-step ~2x,
// PIP2 ~4x, two-stage ~5-9x) and total speedups 1.3-2.9x depending on
// the SpMV weight (heavier rows => smaller ortho share).
//
//   bench_table04 [--n=100000] [--ranks=8] [--restarts=2] [--net=cluster]
//                 [--json=table04.json]

#include "bench_common.hpp"

#include "par/config.hpp"
#include "sparse/suitesparse_like.hpp"

#include <cmath>
#include <cstdio>

int main(int argc, char** argv) {
  using namespace tsbo;
  using namespace tsbo::bench;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int n = cli.get_int("n", 60000);
  const int ranks = cli.get_int("ranks", 8);
  const int restarts = cli.get_int("restarts", 2);
  const long iters = 60L * restarts;
  const std::string json_path = cli.get("json", "");

  api::SolverOptions base = api::SolverOptions::parse("rtol=1e-30");
  base.ranks = ranks;
  base.n = n;
  base.net = cli.get("net", "calibrated");
  base.max_restarts = restarts;
  cli.reject_unknown();

  std::printf(
      "# Table IV reproduction: time/iteration, 3-D models + "
      "SuiteSparse surrogates (n ~ %d, %d ranks, %ld iters each)\n"
      "# expected shape: ortho ms/iter ordering standard > s-step > "
      "bcgs-pip2 > two-stage for every matrix\n\n",
      n, ranks, iters);

  util::Table table({"matrix", "solver", "SpMV ms/it", "Ortho ms/it",
                     "Total ms/it", "ortho speedup", "total speedup",
                     "comm exp s", "comm ovl s"});
  api::ReportLog log("table04");

  // Runs the four solver columns on the matrix the options describe.
  const auto run_matrix = [&](const api::SolverOptions& matrix_opts) {
    std::string label;
    const sparse::CsrMatrix a = api::make_matrix(matrix_opts, &label);
    const std::vector<double> b = api::ones_rhs(a);

    double base_ortho = 0.0, base_total = 0.0;
    for (const Algo& algo : kPaperAlgos) {
      api::Solver solver(api::SolverOptions::parse(algo.spec, matrix_opts));
      solver.set_matrix_ref(a, label);
      solver.set_rhs(b);
      const api::SolveReport rep = solver.solve();
      const krylov::SolveResult& r = rep.result;
      const double it = static_cast<double>(r.iters > 0 ? r.iters : 1);
      if (!rep.options.is_sstep()) {
        base_ortho = r.time_ortho();
        base_total = r.time_total();
      }
      table.row()
          .add(label)
          .add(algo.label)
          .add(1e3 * r.time_spmv() / it, 3)
          .add(1e3 * r.time_ortho() / it, 3)
          .add(1e3 * r.time_total() / it, 3)
          .add(util::speedup_str(base_ortho, r.time_ortho()))
          .add(util::speedup_str(base_total, r.time_total()))
          .add(r.comm_stats.injected_seconds, 3)
          .add(r.comm_stats.overlapped_seconds, 3);
      log.add(rep);
    }
    table.separator();
  };

  // 3-D model problems (paper rows 1-2).
  {
    api::SolverOptions opts = base;
    opts.matrix = "laplace3d_7pt";
    opts.nx = static_cast<int>(std::lround(std::cbrt(n)));
    run_matrix(opts);
    opts.matrix = "elasticity3d";
    opts.nx = static_cast<int>(std::lround(std::cbrt(n / 3)));
    run_matrix(opts);
  }
  // SuiteSparse surrogates (paper rows 3-7), max-scaled per Section VI.
  for (const auto& name : sparse::table4_surrogate_names()) {
    api::SolverOptions opts = base;
    opts.matrix = name;
    opts.equilibrate = true;
    run_matrix(opts);
  }
  table.print();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
