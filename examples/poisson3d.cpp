// 3-D Poisson solve with preconditioner comparison: none / Jacobi /
// multicolor Gauss-Seidel / Chebyshev, all under s-step GMRES with the
// two-stage orthogonalization.  Demonstrates the preconditioner
// registry and the paper's point that local (communication-free)
// preconditioners compose with s-step methods without extra
// synchronization.
//
//   ./example_poisson3d [--n=32] [--ranks=4] [--rtol=1e-8]

#include "api/solver.hpp"
#include "par/config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cmath>
#include <cstdio>

int main(int argc, char** argv) {
  using namespace tsbo;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const int side = cli.get_int("n", 32);

  api::SolverOptions base = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=laplace3d_7pt rtol=1e-8");
  base.nx = side;
  base.ranks = cli.get_int("ranks", 4);
  base.rtol = cli.get_double("rtol", base.rtol);
  cli.reject_unknown();

  // Share one matrix (and RHS) across the preconditioner sweep.
  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "3-D Poisson %d^3 (n = %d), s-step GMRES + two-stage, %d ranks\n\n",
      side, a.rows, base.ranks);

  util::Table table({"preconditioner", "iters", "restarts", "true relres",
                     "allreduces", "time s", "comm exp s", "comm ovl s"});

  for (const std::string kind : {"none", "jacobi", "mc-gs", "chebyshev"}) {
    api::SolverOptions opts = base;
    opts.precond = kind;
    if (kind == "mc-gs") {
      opts.precond_sweeps = 2;
    } else if (kind == "chebyshev") {
      // The 7-pt Laplacian spectrum is known analytically; give the
      // polynomial the exact interval (of D^{-1}A) rather than the
      // power-method estimate — Chebyshev is very sensitive to
      // interval coverage at the low end.
      const double c = std::cos(M_PI / (side + 1));
      opts.precond_degree = 4;
      opts.precond_lambda_min = 1.0 - c;
      opts.precond_lambda_max = 1.0 + c;
    }
    api::Solver solver(opts);
    solver.set_matrix_ref(a, base.matrix);
    solver.set_rhs(b);
    const api::SolveReport rep = solver.solve();
    table.row()
        .add(kind)
        .add(rep.result.iters)
        .add(rep.result.restarts)
        .add(util::sci(rep.result.true_relres))
        .add(static_cast<long>(rep.result.comm_stats.allreduces))
        .add(rep.result.time_total(), 3)
        .add(rep.result.comm_stats.injected_seconds, 3)
        .add(rep.result.comm_stats.overlapped_seconds, 3);
  }
  table.print();
  std::printf(
      "\nAll preconditioners are rank-local (block Jacobi style): note the\n"
      "all-reduce counts shrink with the iteration count, never grow with\n"
      "preconditioner complexity.  'comm exp/ovl' split the modeled fabric\n"
      "time into the exposed share and the share the split-phase halo\n"
      "exchanges hid behind interior SpMV rows.\n");
  return 0;
}
