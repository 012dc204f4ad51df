// Batched multi-RHS block s-step GMRES throughput: one rhs=k batch vs
// k independent single-RHS solves of the same columns.
//
// The amortization thesis (ROADMAP "batched multi-RHS" item): a batch
// of k right-hand sides shares every fixed cost a solve pays per
// operator application — ONE halo exchange per SpMM regardless of k,
// ONE Gram reduce per orthogonalization stage (the two-stage panels
// get wider, not more numerous), ONE service dispatch and ONE cached
// operator acquisition per batch — while k independent solves pay all
// of them k times.  On a latency/setup-dominated shape (small m, a
// modeled network) time-per-RHS therefore FALLS with k.
//
//   bench_block [--k=1,2,4,8] [--nx=64] [--ranks=2] [--m=10] [--s=5]
//               [--bs=10] [--net=ethernet] [--precond=none]
//               [--json=block.json]
//
// Fixed work per run (unreachable rtol, max_restarts=1) so every k
// performs the same per-RHS basis work and the shared fixed costs are
// what differ.  GFLOP/s counts SpMV flops (2 * nnz per operator
// application per column) — a portable proxy that is comparable
// across k.
//
// Verified invariants (exit 1 on violation):
//   * every batched report carries per-RHS results[] of length k and
//     the tsbo.solve_report/9 schema tag;
//   * exactly one operator-cache acquisition per job: after the first
//     job the cache never misses (one hit per batch, not per RHS);
//   * the k=1 batch solution is bitwise-identical to the plain
//     single-RHS solve of the same column (the width-1 pin);
//   * with 1 and 4 both in --k: batched k=4 time-per-RHS is strictly
//     below the k=1 time-per-RHS (the CI perf gate).

#include "bench_common.hpp"

#include "par/config.hpp"
#include "service/solver_service.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  using namespace tsbo;
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);
  const std::vector<int> ks = cli.get_int_list("k", {1, 2, 4, 8});
  const int nx = cli.get_int("nx", 64);
  const int ranks = cli.get_int("ranks", 2);
  const int m = cli.get_int("m", 10);
  const int s = cli.get_int("s", 5);
  const int bs = cli.get_int("bs", m);
  const std::string net = cli.get("net", "ethernet");
  const std::string precond = cli.get("precond", "none");
  const std::string json_path = cli.get("json", "");
  cli.reject_unknown();

  api::SolverOptions base = api::SolverOptions::parse(
      "solver=sstep ortho=two_stage rtol=1e-300 max_restarts=1");
  base.m = m;
  base.s = s;
  base.bs = bs;
  base.nx = nx;
  base.ranks = ranks;
  base.net = net;
  base.precond = precond;

  std::printf(
      "# block s-step GMRES batching: rhs=k batch vs k independent solves\n"
      "# nx=%d ranks=%d m=%d s=%d bs=%d net=%s precond=%s (fixed work: "
      "rtol=1e-300, max_restarts=1)\n"
      "# per-RHS time must FALL with k: one halo exchange per SpMM, one "
      "Gram reduce per stage, one dispatch per batch\n\n",
      nx, ranks, m, s, bs, net.c_str(), precond.c_str());

  // The RHS block every run draws its columns from (column 0 == the
  // ones-RHS), so batched and independent runs solve identical systems.
  const int kmax = *std::max_element(ks.begin(), ks.end());
  const sparse::CsrMatrix a_ref = api::make_matrix(base);
  const std::vector<double> b_all = api::batch_rhs(a_ref, kmax);
  const auto n = static_cast<std::size_t>(a_ref.rows);
  const double nnz_flops = 2.0 * static_cast<double>(a_ref.nnz());

  service::ServiceConfig cfg;
  cfg.label = "bench_block";
  service::SolverService svc(cfg);

  util::Table table({"k", "mode", "seconds", "s/RHS", "SpMV GFLOP/s",
                     "iters/RHS", "cache"});
  bool ok = true;
  double per_rhs_k1 = 0.0, per_rhs_k4 = 0.0;
  std::uint64_t jobs_submitted = 0;
  std::vector<double> plain_solution;  // rhs=1 plain solve of column 0

  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    const int k = ks[ki];

    // ---- batched: one rhs=k job over columns [0, k) -------------------
    api::SolverOptions opts = base;
    opts.rhs = k;
    std::vector<double> bk(b_all.begin(),
                           b_all.begin() + static_cast<std::ptrdiff_t>(n) * k);
    util::WallTimer batch_timer;
    const service::JobResult batch = svc.wait(svc.submit(opts, bk));
    const double batch_seconds = batch_timer.seconds();
    ++jobs_submitted;

    if (!batch.error.empty()) {
      std::printf("!! k=%d batch failed: %s\n", k, batch.error.c_str());
      return 1;
    }
    const auto& rep = batch.report;
    if (k > 1 &&
        rep.result.rhs_results.size() != static_cast<std::size_t>(k)) {
      std::printf("!! k=%d: expected %d per-RHS results, got %zu\n", k, k,
                  rep.result.rhs_results.size());
      ok = false;
    }
    if (rep.json().find(api::kSolveReportSchema) == std::string::npos) {
      std::printf("!! k=%d: report does not carry schema %s\n", k,
                  api::kSolveReportSchema);
      ok = false;
    }
    if (ki > 0 && !rep.service.cache_hit) {
      std::printf("!! k=%d: batch missed the operator cache\n", k);
      ok = false;
    }

    const double batch_per_rhs = batch_seconds / k;
    const double batch_gflops =
        batch_seconds > 0.0
            ? nnz_flops * static_cast<double>(rep.result.iters) /
                  batch_seconds * 1e-9
            : 0.0;
    table.row()
        .add(k)
        .add("batch")
        .add(batch_seconds, 4)
        .add(batch_per_rhs, 4)
        .add(batch_gflops, 2)
        .add(static_cast<double>(rep.result.iters) / k, 1)
        .add(rep.service.cache_hit ? "hit" : "miss");
    if (k == 1) per_rhs_k1 = batch_per_rhs;
    if (k == 4) per_rhs_k4 = batch_per_rhs;

    // ---- independent: k single-RHS jobs over the same columns ---------
    api::SolverOptions sopts = base;
    sopts.rhs = 1;
    util::WallTimer indep_timer;
    std::vector<std::uint64_t> ids;
    for (int t = 0; t < k; ++t) {
      std::vector<double> bt(
          b_all.begin() + static_cast<std::ptrdiff_t>(n) * t,
          b_all.begin() + static_cast<std::ptrdiff_t>(n) * (t + 1));
      ids.push_back(svc.submit(sopts, std::move(bt)));
    }
    long indep_iters = 0;
    std::vector<service::JobResult> singles;
    for (const std::uint64_t id : ids) singles.push_back(svc.wait(id));
    const double indep_seconds = indep_timer.seconds();
    jobs_submitted += static_cast<std::uint64_t>(k);
    for (const service::JobResult& r : singles) {
      if (!r.error.empty()) {
        std::printf("!! k=%d independent solve failed: %s\n", k,
                    r.error.c_str());
        return 1;
      }
      indep_iters += r.report.result.iters;
    }
    if (plain_solution.empty()) plain_solution = singles.front().solution;

    // Width-1 pin: the k=1 batch must be bitwise the plain solve.
    if (k == 1 && batch.solution != plain_solution) {
      std::printf("!! k=1 batch solution differs from the plain single-RHS "
                  "solve (bitwise)\n");
      ok = false;
    }

    const double indep_gflops =
        indep_seconds > 0.0 ? nnz_flops * static_cast<double>(indep_iters) /
                                  indep_seconds * 1e-9
                            : 0.0;
    table.row()
        .add(k)
        .add("k solves")
        .add(indep_seconds, 4)
        .add(indep_seconds / k, 4)
        .add(indep_gflops, 2)
        .add(static_cast<double>(indep_iters) / k, 1)
        .add("-");
    if (ki + 1 < ks.size()) table.separator();
  }
  table.print();

  // One acquisition per job: the only miss is the very first job.
  const service::OperatorCache::Stats stats = svc.cache_stats();
  std::printf(
      "\n# operator cache: %llu hits, %llu misses (%llu jobs — one "
      "acquisition per batch, not per RHS)\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(jobs_submitted));
  if (stats.misses != 1 || stats.hits != jobs_submitted - 1) {
    std::printf("!! expected exactly one miss and one acquisition per job\n");
    ok = false;
  }

  if (per_rhs_k1 > 0.0 && per_rhs_k4 > 0.0) {
    std::printf("# per-RHS time: k=1 %.4fs -> k=4 %.4fs (%.2fx)\n",
                per_rhs_k1, per_rhs_k4, per_rhs_k1 / per_rhs_k4);
    if (!(per_rhs_k4 < per_rhs_k1)) {
      std::printf("!! batching gained nothing: k=4 per-RHS time is not "
                  "below k=1\n");
      ok = false;
    }
  }

  if (svc.log().save(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
