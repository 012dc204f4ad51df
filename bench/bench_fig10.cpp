// Reproduces paper Fig. 10: orthogonalization time breakdown of
// BCGS2 + CholQR2 (the original s-step GMRES) vs rank count, for the
// 2-D Laplace problem — absolute seconds and fraction of ortho time.
//
// Expected shape: as ranks grow, the "dot-products + global reduce"
// share grows and dominates (the global reduces appear in both BCGS2
// and CholQR), while vector updates shrink with the local row count.
//
//   bench_fig10 [--nx=512] [--ranks=1,2,4,8,16] [--restarts=2]
//               [--net=cluster] [--json=fig10.json]
//
// rtol=1e-30 is a tolerance no run reaches, so --restarts bounds every
// run.

#include "bench_common.hpp"

#include "par/config.hpp"

#include <cstdio>

namespace tsbo::bench {

/// Shared driver for Figs. 10-12: one scheme, rank sweep, breakdown.
inline int run_breakdown_figure(int argc, char** argv, const char* figure,
                                const char* spec, const char* scheme_name) {
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int nx = cli.get_int("nx", 192);
  const std::vector<int> rank_list =
      cli.get_int_list("ranks", {1, 2, 4, 8, 16});
  const int restarts = cli.get_int("restarts", 2);
  const std::string json_path = cli.get("json", "");

  api::SolverOptions base =
      api::SolverOptions::parse(std::string(spec) +
                                " matrix=laplace2d_5pt rtol=1e-30");
  base.nx = nx;
  base.net = cli.get("net", "calibrated");
  base.max_restarts = restarts;
  cli.reject_unknown();

  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "# %s reproduction: ortho time breakdown of %s, 2-D Laplace "
      "n=%dx%d, %d restarts\n"
      "# expected shape: reduce (global all-reduce) share grows with "
      "ranks; update/dot shares shrink\n\n",
      figure, scheme_name, nx, nx, restarts);

  util::Table table({"ranks", "dot s", "reduce s", "update s", "factor s",
                     "small s", "dot %", "reduce %", "update %", "factor %",
                     "comm exp s", "comm ovl s"});
  api::ReportLog log(figure);

  for (const int p : rank_list) {
    api::SolverOptions opts = base;
    opts.ranks = p;
    api::Solver solver(opts);
    solver.set_matrix_ref(a, base.matrix);
    solver.set_rhs(b);
    const api::SolveReport rep = solver.solve();
    const api::OrthoBreakdown bd = api::breakdown_of(rep.result);
    const double tot = bd.total() > 0 ? bd.total() : 1.0;
    table.row()
        .add(p)
        .add(bd.dot, 3)
        .add(bd.reduce, 3)
        .add(bd.update, 3)
        .add(bd.factor, 3)
        .add(bd.small, 3)
        .add(100.0 * bd.dot / tot, 1)
        .add(100.0 * bd.reduce / tot, 1)
        .add(100.0 * bd.update / tot, 1)
        .add(100.0 * bd.factor / tot, 1)
        .add(rep.result.comm_stats.injected_seconds, 3)
        .add(rep.result.comm_stats.overlapped_seconds, 3);
    log.add(rep);
  }
  table.print();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace tsbo::bench

#ifndef TSBO_BREAKDOWN_NO_MAIN
int main(int argc, char** argv) {
  using namespace tsbo;
  return bench::run_breakdown_figure(argc, argv, "Fig. 10",
                                     "solver=sstep ortho=bcgs2",
                                     "BCGS2+CholQR2");
}
#endif
