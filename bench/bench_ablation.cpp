// Ablation studies for the design choices docs/algorithms.md calls out
// — extensions the paper discusses but does not evaluate:
//
//  A. Basis polynomial x step size: the paper uses the monomial basis
//     and argues a conservative s = 5 is forced by MPK conditioning;
//     Newton/Chebyshev bases (paper ref [1]) extend the stable range.
//     We sweep s with each basis and report breakdowns/orthogonality.
//  B. Mixed-precision (double-double) Gram accumulation (paper refs
//     [26], [27]): extends the stable kappa range of CholQR-family
//     algorithms at a local-compute premium, without extra
//     communication.
//  C. Breakdown policy: throw vs shifted retry (Fukaya et al. [11])
//     when condition (5)/(9) is deliberately violated.
//
//   bench_ablation [--nx=96] [--ranks=4] [--json=ablation.json]

#include "bench_common.hpp"

#include "dense/svd.hpp"
#include "ortho/intra.hpp"
#include "par/config.hpp"
#include "synth/synthetic.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>

namespace {

using namespace tsbo;
using namespace tsbo::bench;

void ablation_basis_times_s(const api::SolverOptions& base,
                            api::ReportLog& log) {
  const sparse::CsrMatrix a = api::make_matrix(base);
  const std::vector<double> b = api::ones_rhs(a);

  std::printf(
      "## Ablation A: basis polynomial x step size (two-stage, bs = m, "
      "2-D Laplace n=%dx%d, run to rtol 1e-6)\n"
      "## expected: monomial degrades as s grows (shift retries, extra "
      "iterations); Newton/Chebyshev stay clean\n\n",
      base.nx, base.nx);

  util::Table table({"basis", "s", "iters", "converged", "true relres",
                     "breakdowns", "shift retries"});
  for (const char* basis : {"monomial", "newton", "chebyshev"}) {
    for (const int s : {5, 10, 20}) {
      api::SolverOptions opts = api::SolverOptions::parse(
          // 5-pt Laplace spectrum for the Newton/Chebyshev interval.
          "solver=sstep ortho=two_stage bs=60 lambda_min=0.01 lambda_max=8 "
          "rtol=1e-6 max_restarts=200",
          base);
      opts.basis = basis;
      opts.s = s;
      api::Solver solver(opts);
      solver.set_matrix_ref(a, base.matrix);
      solver.set_rhs(b);
      const api::SolveReport rep = solver.solve();
      table.row()
          .add(basis)
          .add(s)
          .add(rep.result.iters)
          .add(rep.result.converged ? "yes" : "no")
          .add(util::sci(rep.result.true_relres))
          .add(rep.result.cholesky_breakdowns)
          .add(rep.result.shift_retries);
      log.add(rep);
    }
  }
  table.print();
}

void ablation_mixed_precision() {
  std::printf(
      "\n## Ablation B: double-double Gram accumulation in CholQR2 "
      "(shift-retry policy, 5 seeds, worst case reported)\n"
      "## expected: the dd Gram + dd Cholesky path needs no shifted "
      "retries anywhere in this sweep (its cliff sits at kappa ~ 1e15) "
      "and reaches O(eps) orthogonality at every kappa, at ~5-10x local "
      "Gram cost; the plain path starts shifting near the eps^-1/2 "
      "cliff ~ 6.7e7\n\n");

  util::Table table({"kappa", "plain max err", "plain retries",
                     "plain time ms", "dd max err", "dd retries",
                     "dd time ms"});
  const dense::index_t n = 50000, s = 5;
  for (const double kappa : {1e4, 1e7, 5e7, 1e8, 1e11}) {
    table.row().add(util::sci(kappa, 0));
    for (const bool dd : {false, true}) {
      double max_err = 0.0, ms = 0.0;
      int retries = 0;
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        dense::Matrix v = synth::logscaled(n, s, kappa, seed);
        dense::Matrix r(s, s);
        ortho::OrthoContext ctx;
        ctx.mixed_precision_gram = dd;
        ctx.policy = ortho::BreakdownPolicy::kShift;
        util::WallTimer t;
        ortho::cholqr2(ctx, v.view(), r.view());
        ms += 1e3 * t.seconds();
        max_err = std::max(max_err, dense::orthogonality_error(v.view()));
        retries += ctx.shift_retries;
      }
      table.add(util::sci(max_err)).add(retries).add(ms / 5.0, 2);
    }
  }
  table.print();
}

void ablation_breakdown_policy() {
  std::printf(
      "\n## Ablation C: breakdown policy on condition-(5)-violating "
      "panels (kappa = 1e12 logscaled, 10 seeds)\n"
      "## expected: kThrow raises CholeskyBreakdown on the seeds whose "
      "Gram pivots go non-positive; kShift completes every seed\n\n");
  util::Table table({"policy", "completed", "exceptions", "shift retries",
                     "worst err (completed)"});
  for (const auto policy :
       {ortho::BreakdownPolicy::kThrow, ortho::BreakdownPolicy::kShift}) {
    int completed = 0, exceptions = 0, retries = 0;
    double worst = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      dense::Matrix v = synth::logscaled(30000, 5, 1e12, seed);
      dense::Matrix r(5, 5);
      ortho::OrthoContext ctx;
      ctx.policy = policy;
      try {
        ortho::cholqr2(ctx, v.view(), r.view());
        ++completed;
        retries += ctx.shift_retries;
        worst = std::max(worst, dense::orthogonality_error(v.view()));
      } catch (const ortho::CholeskyBreakdown&) {
        ++exceptions;
      }
    }
    table.row()
        .add(policy == ortho::BreakdownPolicy::kThrow ? "throw" : "shift")
        .add(completed)
        .add(exceptions)
        .add(retries)
        .add(completed ? util::sci(worst) : "-");
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS

  api::SolverOptions base =
      api::SolverOptions::parse("matrix=laplace2d_5pt");
  base.nx = cli.get_int("nx", 96);
  base.ranks = cli.get_int("ranks", 4);
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  std::printf("# Ablations: paper-discussed extensions (not in its tables)\n\n");
  api::ReportLog log("ablation");
  ablation_basis_times_s(base, log);
  ablation_mixed_precision();
  ablation_breakdown_policy();
  if (log.save(json_path)) std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
