// Reproduces paper Table II: time-to-solution of the two-stage approach
// for different second step sizes bs, 2-D Laplace 5-pt, 4 ranks.
//
// Paper: n = 2000^2 on 4 V100 GPUs, s = 5, m = 60, run to convergence
// (~60k iterations).  Here: a shrunk grid, 4 rank-threads with the
// cluster network model, and a fixed restart budget so every column
// performs identical numerical work (the paper's iteration counts
// differ only by panel-granularity rounding; see the tests).
// Expected shape: Ortho time decreases monotonically with bs;
// bs = m is the best configuration; SpMV is flat across columns.
//
//   bench_table02 [--nx=512] [--ranks=4] [--restarts=3] [--net=cluster]
//                 [--json=table02.json]

#include "bench_common.hpp"

#include "par/config.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace tsbo;
  using namespace tsbo::bench;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int nx = cli.get_int("nx", 160);
  const int ranks = cli.get_int("ranks", 4);
  const int restarts = cli.get_int("restarts", 8);
  const std::string json_path = cli.get("json", "");

  api::SolverOptions base =
      api::SolverOptions::parse("matrix=laplace2d_5pt rtol=1e-30");
  base.nx = nx;
  base.ranks = ranks;
  base.net = cli.get("net", "calibrated");
  base.max_restarts = restarts;
  cli.reject_unknown();

  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "# Table II reproduction: two-stage vs bs, 2-D Laplace 5-pt "
      "n=%dx%d, %d ranks, s=5, m=60, %d restarts (%ld iters)\n"
      "# expected shape: Ortho decreases with bs; best at bs=m=60; "
      "SpMV flat\n\n",
      nx, nx, ranks, restarts, 60L * restarts);

  util::Table table({"solver", "# iters", "SpMV", "Ortho", "Total",
                     "comm exp s", "comm ovl s"});
  api::ReportLog log("table02");

  const auto run = [&](const std::string& name, const std::string& spec) {
    api::Solver solver(api::SolverOptions::parse(spec, base));
    solver.set_matrix_ref(a, base.matrix);
    solver.set_rhs(b);
    const api::SolveReport rep = solver.solve();
    table.row()
        .add(name)
        .add(rep.result.iters)
        .add(rep.result.time_spmv(), 3)
        .add(rep.result.time_ortho(), 3)
        .add(rep.result.time_total(), 3)
        .add(rep.result.comm_stats.injected_seconds, 3)
        .add(rep.result.comm_stats.overlapped_seconds, 3);
    log.add(rep);
  };

  // Standard GMRES + CGS2, then the original s-step (BCGS2 + CholQR2).
  run("GMRES", "solver=gmres ortho=cgs2");
  run("s-step", "solver=sstep ortho=bcgs2");
  table.separator();

  // Two-stage with bs sweep (bs = 5 degenerates to one-stage PIP2).
  for (const int bs : {5, 20, 30, 60}) {
    run("two-stage bs=" + std::to_string(bs),
        "solver=sstep ortho=two_stage bs=" + std::to_string(bs));
  }
  table.print();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
