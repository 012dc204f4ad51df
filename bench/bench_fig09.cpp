// Reproduces paper Fig. 9: condition-number growth of the Krylov
// vectors generated by the matrix-powers kernel, with and without the
// two-stage pre-processing, on the SuiteSparse surrogate matrices
// (row/column max-scaled as in the paper), plus the final orthogonality
// error of Q.
//
// Expected shape: without pre-processing (Fig. 9a analogue) the
// accumulated condition number of [Q_prev, V_raw] grows rapidly
// (monomial basis); with BCGS-PIP pre-processing (Fig. 9b) it stays
// moderate for most matrices; the ill-conditioned pair
// HTC_336_4438 / Ga41As41H72 still violates condition (9).  The final
// ||I - Q^T Q|| after the big-panel flush is O(eps) for all matrices
// (shifted-retry policy).
//
//   bench_fig09 [--n=20000] [--m=60] [--bs=60] [--s=5]

#include "bench_common.hpp"

#include "par/config.hpp"
#include "dense/svd.hpp"
#include "krylov/matrix_powers.hpp"
#include "ortho/manager.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"
#include "sparse/suitesparse_like.hpp"
#include "util/random.hpp"

#include <cmath>
#include <cstdio>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

struct Trace {
  std::vector<double> kappa_per_panel;
  double final_err = 0.0;
  double monitor_peak = 0.0;  ///< autopilot conditioning estimate (peak)
  int breakdowns = 0;
};

/// Runs MPK + two-stage over one restart cycle; `preprocess` false
/// skips stage 1 entirely (the Fig. 9a contrast: raw monomial basis).
Trace run_trace(const sparse::CsrMatrix& a, index_t m, index_t s, index_t bs,
                bool preprocess) {
  Trace out;
  const auto n = static_cast<index_t>(a.rows);
  Matrix basis(n, m + 1);
  Matrix r(m + 1, m + 1), l(m + 1, m + 1);
  r(0, 0) = 1.0;

  // Unit-norm random start vector.
  util::Xoshiro256 rng(99);
  {
    std::vector<double> v(static_cast<std::size_t>(n));
    util::fill_normal(rng, v);
    double nrm = 0.0;
    for (const double x : v) nrm += x * x;
    nrm = std::sqrt(nrm);
    for (index_t i = 0; i < n; ++i) basis(i, 0) = v[static_cast<std::size_t>(i)] / nrm;
  }

  ortho::OrthoContext ctx;
  ctx.policy = ortho::BreakdownPolicy::kShift;
  auto mgr = ortho::make_two_stage_manager(bs);
  mgr->reset(1);

  const krylov::KrylovBasis kb = krylov::KrylovBasis::monomial(m);

  for (index_t p = 0; p < m / s; ++p) {
    const index_t start = p * s;
    if (preprocess) mgr->note_mpk_start(ctx, l.view(), start);
    // Monomial MPK on the (sequential) matrix.
    for (index_t k = 0; k < s; ++k) {
      std::span<const double> x(basis.col(start + k),
                                static_cast<std::size_t>(n));
      std::span<double> y(basis.col(start + k + 1), static_cast<std::size_t>(n));
      sparse::spmv(a, x, y);
      // Normalize raw vectors in the no-preprocess run to delay
      // overflow (pure monomial growth overflows within a few panels).
      if (!preprocess) {
        double mx = 0.0;
        for (const double vv : y) mx = std::max(mx, std::abs(vv));
        if (mx > 0.0) {
          for (double& vv : y) vv /= mx;
        }
      }
    }
    out.kappa_per_panel.push_back(
        dense::cond_2(basis.view().columns(0, start + s + 1)));
    if (preprocess) {
      mgr->add_panel(ctx, basis.view(), start + 1, s, r.view(), l.view());
    }
  }
  if (preprocess) {
    const index_t nfinal =
        mgr->finalize(ctx, basis.view(), m + 1, r.view(), l.view());
    out.final_err = dense::orthogonality_error(basis.view().columns(0, nfinal));
  }
  out.monitor_peak = std::sqrt(ctx.take_gram_kappa_peak());
  out.breakdowns = ctx.cholesky_breakdowns;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);  // --threads=N / TSBO_NUM_THREADS
  const auto n = static_cast<index_t>(cli.get_int("n", 20000));
  const auto m = static_cast<index_t>(cli.get_int("m", 60));
  const auto s = static_cast<index_t>(cli.get_int("s", 5));
  const auto bs = static_cast<index_t>(cli.get_int("bs", 60));
  cli.reject_unknown();

  std::printf(
      "# Fig. 9 reproduction: MPK conditioning on SuiteSparse "
      "surrogates (n ~ %d, m = %d, s = %d, bs = %d, monomial basis,\n"
      "# matrices row/col max-scaled per paper Section VI)\n"
      "# expected: raw kappa explodes; pre-processed kappa moderate "
      "except HTC/Ga surrogates; final err = O(eps)\n\n",
      n, m, s, bs);

  util::Table table({"matrix", "kappa raw p1", "kappa raw p6",
                     "kappa pre p1", "kappa pre p6", "kappa pre last",
                     "monitor peak", "final ||I-QtQ||", "breakdowns"});

  for (const auto& name : sparse::fig9_surrogate_names()) {
    auto sur = sparse::make_surrogate(name, n);
    sparse::equilibrate_max(sur.matrix);

    const Trace raw = run_trace(sur.matrix, m, s, bs, /*preprocess=*/false);
    const Trace pre = run_trace(sur.matrix, m, s, bs, /*preprocess=*/true);

    const std::size_t last = pre.kappa_per_panel.size() - 1;
    const std::size_t mid = std::min<std::size_t>(5, last);
    table.row()
        .add(name)
        .add(util::sci(raw.kappa_per_panel.front()))
        .add(util::sci(raw.kappa_per_panel[mid]))
        .add(util::sci(pre.kappa_per_panel.front()))
        .add(util::sci(pre.kappa_per_panel[mid]))
        .add(util::sci(pre.kappa_per_panel[last]))
        .add(util::sci(pre.monitor_peak))
        .add(util::sci(pre.final_err))
        .add(pre.breakdowns);
  }
  table.print();
  return 0;
}
