// Kernel-layer throughput harness: serial vs. threaded GFLOP/s for the
// hot kernels of the two-stage orthogonalization path.
//
// Sweeps the thread count over the paper-scale shapes the speedup
// argument rests on:
//   * gemm_tn     — the Gram / block-dot product C = A^T B at m = 1e5
//                   and panel widths s (one-stage) through bs (second
//                   stage);
//   * gemm_tn_dd  — the same product with double-double accumulation
//                   (mixed-precision CholQR Gram).  GFLOP/s counts the
//                   2*m*s^2 *useful* flops, so the gap to gemm_tn is
//                   exactly the software-dd overhead;
//   * gemm_nn     — the panel update V -= Q R at the same shapes;
//   * trsm        — the CholQR normalize V := V R^{-1} at m x s;
//   * gemm_tn_panel — the two-stage stage-1 fused Gram [Q V]^T V of one
//                   rank's rows of paper2d_9pt (256^2 / 2 ranks = 32768)
//                   against the s = 5 panel V, with q0 = 5, 30, 55
//                   earlier basis columns in Q;
//   * gram_tn     — the stage-2 fused Gram [Q V]^T V in one pass with
//                   V^T V as its upper triangle (dense::gram_tn), at
//                   32768 x (1+60) x 60 (paper2d_9pt) and
//                   32000 x (4+240) x 240 (block4_3d27pt), beside
//                   gram_tn_2gemm, the two-gemm_tn path at the same
//                   shapes; GFLOP/s counts the flops each one needs
//                   (the triangle's for gram_tn, the square's for the
//                   pair);
//   * gemm_tn_wide / gemm_nn_wide — the same products at the flat
//                   panel widths the batched (rhs=k) block solver
//                   produces (bs * k columns, --wide list), where the
//                   kColBlock small-operand tiling in dense/blas3.cpp
//                   earns its keep (at s ~ 10 every width fits cache);
//   * spmv        — 9-point 2-D Laplace stencil;
//   * spmm        — the block solver's k-column row kernel
//                   (sparse::spmm_rows_mapped) on one rank's piece of
//                   the 27-point laplace3d nx=40 matrix (rows 0..31999
//                   of 64000, global columns) at k = 1, 4, 8, with GB/s
//                   from the bytes it must move: the CSR arrays and row
//                   map once, plus k values per referenced x entry and
//                   per output row;
//   * cheb_apply  — the degree-4 Chebyshev preconditioner on the same
//                   piece's diagonal block at k = 1, 4 columns
//                   (ChebyshevPolynomial::apply_multi);
//   * diag_block  — DistCsr::local_diagonal_block() on rank 1 of 2 of
//                   the same matrix (timed; GB/s over the piece's
//                   entries read and the block written);
//   * dot, axpy   — BLAS-1 baselines for context.
// Every record carries a "simd" field naming the ISA the build's
// kernel layer dispatched to (avx512 / avx2 / neon / scalar, see
// util/simd.hpp); rebuild with -DTSBO_DISABLE_SIMD=ON to bench the
// scalar fallback side of the on/off dimension.
// Every configuration is run twice and compared bitwise (the kernel
// layer's fixed-chunk reductions must make repeated runs identical),
// and against the 1-thread result (which must also match bitwise).
//
//   bench_kernels [--m=100000] [--s=10,20,30] [--wide=120,240]
//                 [--wide_m=20000] [--nx=512] [--reps=5]
//                 [--threads=<list>] [--json=BENCH_kernels.json]
//
// --threads defaults to a power-of-two sweep 1..hardware_concurrency.
// The JSON output gives future PRs a perf trajectory to regress against.

#include "dense/blas1.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "par/config.hpp"
#include "precond/chebyshev.hpp"
#include "util/simd.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/partition.hpp"
#include "sparse/spmv.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using namespace tsbo;
using dense::index_t;
using dense::Matrix;

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

struct Measurement {
  std::string kernel;
  std::string shape;
  int threads = 1;
  std::string simd = tsbo::simd::isa_name();  // compile-time ISA dispatch
  double seconds = 0.0;   // best of reps
  double gflops = 0.0;
  double gbs = 0.0;       // only for cases that count their bytes
  bool deterministic = false;   // repeated runs bit-identical
  bool matches_serial = false;  // bit-identical to the 1-thread result
};

/// One benchmarked kernel: run() fills `out` from fixed inputs.
struct Case {
  std::string kernel;
  std::string shape;
  double flops = 0.0;
  std::function<void(std::vector<double>& out)> run;
  double bytes = 0.0;  // memory traffic per run; 0 = not reported
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<int> default_thread_sweep() {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> sweep;
  for (int t = 1; t < hw; t *= 2) sweep.push_back(t);
  sweep.push_back(hw);
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  par::configure_from_cli(cli);
  const auto m = static_cast<index_t>(cli.get_int("m", 100000));
  const std::vector<int> widths = cli.get_int_list("s", {10, 20, 30});
  // Block-solver panel widths: bs * k flat columns (e.g. bs=60 at
  // k in {2, 4}); shorter m keeps the per-rep flop count bounded.
  const std::vector<int> wide_widths = cli.get_int_list("wide", {120, 240});
  const auto wide_m = static_cast<index_t>(cli.get_int("wide_m", 20000));
  const auto nx = static_cast<sparse::ord>(cli.get_int("nx", 512));
  const int reps = cli.get_int("reps", 5);
  std::vector<int> threads = cli.get_int_list("threads", default_thread_sweep());
  // The serial run is the bitwise reference and speedup baseline, so
  // force it to lead the sweep.
  if (std::find(threads.begin(), threads.end(), 1) != threads.begin()) {
    threads.erase(std::remove(threads.begin(), threads.end(), 1), threads.end());
    threads.insert(threads.begin(), 1);
  }
  const std::string json_path = cli.get("json", "BENCH_kernels.json");
  cli.reject_unknown();

  std::printf(
      "# Kernel-layer thread sweep: gemm_tn / gemm_tn_dd / gemm_nn / trsm "
      "(m = %d), stage-1 Gram panels, spmv (%d x %d 9-pt Laplace), spmm / "
      "cheb_apply (27-pt rank piece), dot, axpy\n"
      "# simd: %s\n"
      "# threads:", m, nx, nx, tsbo::simd::isa_name());
  for (const int t : threads) std::printf(" %d", t);
  std::printf("  (reps = %d, best-of)\n\n", reps);

  std::vector<Case> cases;
  for (const int s : widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix a = random_matrix(m, sc, 1);
    Matrix b = random_matrix(m, sc, 2);
    cases.push_back(Case{
        "gemm_tn", std::to_string(m) + "x" + std::to_string(s),
        2.0 * m * s * s,
        [a = std::move(a), b = std::move(b), m, sc](std::vector<double>& out) {
          out.assign(static_cast<std::size_t>(sc) * sc, 0.0);
          dense::MatrixView c{out.data(), sc, sc, sc};
          dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c);
        }});
  }
  for (const int s : widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix a = random_matrix(m, sc, 7);
    Matrix b = random_matrix(m, sc, 8);
    cases.push_back(Case{
        "gemm_tn_dd", std::to_string(m) + "x" + std::to_string(s),
        2.0 * m * s * s,
        [a = std::move(a), b = std::move(b), sc](std::vector<double>& out) {
          // hi and lo planes share one buffer so the bitwise checks
          // cover the full pair-form result.
          const auto plane = static_cast<std::size_t>(sc) * sc;
          out.assign(2 * plane, 0.0);
          dense::MatrixView hi{out.data(), sc, sc, sc};
          dense::MatrixView lo{out.data() + plane, sc, sc, sc};
          dense::gemm_tn_dd(a.view(), b.view(), hi, lo);
        }});
  }
  for (const int s : widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix q = random_matrix(m, sc, 3);
    Matrix r = random_matrix(sc, sc, 4);
    Matrix v0 = random_matrix(m, sc, 5);
    cases.push_back(Case{
        "gemm_nn", std::to_string(m) + "x" + std::to_string(s),
        2.0 * m * s * s,
        [q = std::move(q), r = std::move(r), v0 = std::move(v0), m,
         sc](std::vector<double>& out) {
          out.assign(v0.data().begin(), v0.data().end());
          dense::MatrixView v{out.data(), m, sc, m};
          dense::gemm_nn(-1.0, q.view(), r.view(), 1.0, v);
        }});
  }
  for (const int s : widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix u = random_matrix(sc, sc, 16);
    for (index_t j = 0; j < sc; ++j) {
      for (index_t i = j + 1; i < sc; ++i) u(i, j) = 0.0;
      u(j, j) = 4.0 + std::abs(u(j, j));  // well-conditioned triangle
    }
    Matrix v0 = random_matrix(m, sc, 17);
    cases.push_back(Case{
        "trsm", std::to_string(m) + "x" + std::to_string(s),
        1.0 * m * s * s,
        [u = std::move(u), v0 = std::move(v0), m,
         sc](std::vector<double>& out) {
          // In place, so every run restores V (an O(m s) copy).
          out.assign(v0.data().begin(), v0.data().end());
          dense::MatrixView v{out.data(), m, sc, m};
          dense::trsm_right_upper(u.view(), v);
        }});
  }
  constexpr index_t panel_m = 32768;
  for (const index_t q0 : {5, 30, 55}) {
    const index_t p = q0 + 5;
    Matrix qv = random_matrix(panel_m, p, 18);
    cases.push_back(Case{
        "gemm_tn_panel",
        std::to_string(panel_m) + "x" + std::to_string(p) + "x5",
        2.0 * panel_m * p * 5,
        [qv = std::move(qv), p](std::vector<double>& out) {
          out.assign(static_cast<std::size_t>(p) * 5, 0.0);
          dense::MatrixView g{out.data(), p, 5, p};
          dense::gemm_tn(1.0, qv.view(), qv.view().columns(p - 5, 5), 0.0, g);
        }});
  }
  // The stage-2 fused Gram [Q V]^T V at the two perfbench shapes:
  // paper2d_9pt's rank rows against bs = 60 with the one seed column,
  // and block4_3d27pt's against the 4 x 60 flat panel with its 4 seed
  // columns.  gram_tn counts the flops of Q^T V and V^T V's upper
  // triangle; gram_tn_2gemm is the two-gemm_tn path it replaces
  // (Q^T V, then the full V^T V square) at the same shape, counting
  // the full square.
  for (const auto& [gm, nq, gs] :
       {std::tuple<index_t, index_t, index_t>{32768, 1, 60},
        std::tuple<index_t, index_t, index_t>{32000, 4, 240}}) {
    const index_t p = nq + gs;
    const std::string shape = std::to_string(gm) + "x(" + std::to_string(nq) +
                              "+" + std::to_string(gs) + ")x" +
                              std::to_string(gs);
    auto qv = std::make_shared<const Matrix>(random_matrix(gm, p, 19));
    const auto size = static_cast<std::size_t>(p) * static_cast<std::size_t>(gs);
    cases.push_back(Case{
        "gram_tn", shape,
        2.0 * gm * (nq * gs + gs * (gs + 1) / 2.0),
        [qv, nq, gs, p, size](std::vector<double>& out) {
          out.assign(size, 0.0);
          dense::gram_tn(qv->view().columns(0, nq), qv->view().columns(nq, gs),
                         dense::MatrixView{out.data(), p, gs, p});
        }});
    cases.push_back(Case{
        "gram_tn_2gemm", shape, 2.0 * gm * p * gs,
        [qv, nq, gs, p, size](std::vector<double>& out) {
          out.assign(size, 0.0);
          const dense::ConstMatrixView v = qv->view().columns(nq, gs);
          dense::gemm_tn(1.0, qv->view().columns(0, nq), v, 0.0,
                         dense::MatrixView{out.data(), nq, gs, p});
          dense::gemm_tn(1.0, v, v, 0.0,
                         dense::MatrixView{out.data() + nq, gs, gs, p});
        }});
  }
  // Wide-panel (block rhs=k) shapes: same kernels, flat panel width
  // bs * k.  These are the shapes the kColBlock small-operand tiling
  // targets; the bitwise columns double as proof the tiling preserved
  // the untiled accumulation order.
  for (const int s : wide_widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix a = random_matrix(wide_m, sc, 11);
    Matrix b = random_matrix(wide_m, sc, 12);
    cases.push_back(Case{
        "gemm_tn_wide", std::to_string(wide_m) + "x" + std::to_string(s),
        2.0 * wide_m * s * s,
        [a = std::move(a), b = std::move(b), sc](std::vector<double>& out) {
          out.assign(static_cast<std::size_t>(sc) * sc, 0.0);
          dense::MatrixView c{out.data(), sc, sc, sc};
          dense::gemm_tn(1.0, a.view(), b.view(), 0.0, c);
        }});
  }
  for (const int s : wide_widths) {
    const auto sc = static_cast<index_t>(s);
    Matrix q = random_matrix(wide_m, sc, 13);
    Matrix r = random_matrix(sc, sc, 14);
    Matrix v0 = random_matrix(wide_m, sc, 15);
    cases.push_back(Case{
        "gemm_nn_wide", std::to_string(wide_m) + "x" + std::to_string(s),
        2.0 * wide_m * s * s,
        [q = std::move(q), r = std::move(r), v0 = std::move(v0), wide_m,
         sc](std::vector<double>& out) {
          out.assign(v0.data().begin(), v0.data().end());
          dense::MatrixView v{out.data(), wide_m, sc, wide_m};
          dense::gemm_nn(-1.0, q.view(), r.view(), 1.0, v);
        }});
  }
  {
    sparse::CsrMatrix a = sparse::laplace2d_9pt(nx, nx);
    const double flops = 2.0 * static_cast<double>(a.nnz());
    std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
    cases.push_back(Case{
        "spmv", std::to_string(a.rows) + " rows",
        flops,
        [a = std::move(a), x = std::move(x)](std::vector<double>& out) {
          out.assign(x.size(), 0.0);
          sparse::spmv(a, x, out);
        }});
  }
  {
    // One rank's piece of perfbench block4_3d27pt's matrix: rank 0 of 2.
    const sparse::CsrMatrix full = sparse::laplace3d_27pt(40, 40, 40);
    const sparse::RowPartition part(full.rows, 2);
    auto piece = std::make_shared<const sparse::CsrMatrix>(
        sparse::extract_rows(full, part.begin(0), part.end(0)));
    auto rows = std::make_shared<std::vector<sparse::ord>>(
        static_cast<std::size_t>(piece->rows));
    std::iota(rows->begin(), rows->end(), 0);
    std::vector<char> touched(static_cast<std::size_t>(piece->cols), 0);
    for (const sparse::ord c : piece->col_idx) {
      touched[static_cast<std::size_t>(c)] = 1;
    }
    const double x_entries = static_cast<double>(
        std::count(touched.begin(), touched.end(), char{1}));
    const double nrows = static_cast<double>(piece->rows);
    const std::string shape = std::to_string(piece->rows) + " rows 27pt";
    for (const sparse::ord k : {1, 4, 8}) {
      std::vector<double> xk(static_cast<std::size_t>(piece->cols) *
                             static_cast<std::size_t>(k));
      util::Xoshiro256 rng(20 + static_cast<std::uint64_t>(k));
      util::fill_normal(rng, xk);
      const double bytes =
          static_cast<double>(piece->storage_bytes()) +
          nrows * sizeof(sparse::ord) +
          (x_entries + nrows) * static_cast<double>(k) * sizeof(double);
      cases.push_back(Case{
          "spmm", shape + " k=" + std::to_string(k),
          2.0 * static_cast<double>(piece->nnz()) * k,
          [piece, rows, xk = std::move(xk), k](std::vector<double>& out) {
            const auto n = static_cast<std::size_t>(piece->rows);
            out.assign(n * static_cast<std::size_t>(k), 0.0);
            sparse::spmm_rows_mapped(*piece, *rows, xk.data(), k, out.data(),
                                     n);
          },
          bytes});
    }
    // The rank-1-of-2 piece's ghost-stripped diagonal block, which the
    // preconditioner setup builds inside every solve.  GB/s counts the
    // piece's CSR entries read once and the block's arrays written.
    auto dist1 = std::make_shared<const sparse::DistCsr>(full, part, 1);
    const sparse::CsrMatrix block1 = dist1->local_diagonal_block();
    cases.push_back(Case{
        "diag_block", std::to_string(dist1->n_local()) + " rows 27pt rank 1/2",
        0.0,
        [dist1](std::vector<double>& out) {
          const sparse::CsrMatrix d = dist1->local_diagonal_block();
          out.assign(d.values.begin(), d.values.end());
          out.insert(out.end(), d.col_idx.begin(), d.col_idx.end());
          out.insert(out.end(), d.row_ptr.begin(), d.row_ptr.end());
        },
        static_cast<double>(dist1->nnz_local()) *
                (sizeof(sparse::ord) + sizeof(double)) +
            static_cast<double>(block1.storage_bytes())});
    const sparse::DistCsr dist(full, part, 0);
    constexpr int kDegree = 4;
    auto cheb = std::make_shared<const precond::ChebyshevPolynomial>(
        dist, kDegree, precond::kChebyshevPowerIters);
    const auto n = static_cast<std::size_t>(dist.n_local());
    // Block nnz: the piece's minus its ghost-column entries.
    const sparse::CsrMatrix block = dist.local_diagonal_block();
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
      std::vector<double> x(n * k);
      util::Xoshiro256 rng(30 + k);
      util::fill_normal(rng, x);
      // Per column: the init pass (3 flops/row), then degree - 1 scaled
      // SpMVs (2 flops/nnz + 1/row) each followed by the r/p/y pass
      // (6 flops/row).
      const double flops =
          static_cast<double>(k) *
          (3.0 * static_cast<double>(n) +
           (kDegree - 1) * (2.0 * static_cast<double>(block.nnz()) +
                            7.0 * static_cast<double>(n)));
      cases.push_back(Case{
          "cheb_apply",
          std::to_string(n) + " rows 27pt deg=" + std::to_string(kDegree) +
              " k=" + std::to_string(k),
          flops,
          [cheb, x = std::move(x), n, k](std::vector<double>& out) {
            out.assign(n * k, 0.0);
            cheb->apply_multi(n, k, x.data(), n, out.data(), n);
          }});
    }
  }
  {
    Matrix a = random_matrix(m, 2, 6);
    cases.push_back(Case{
        "dot", std::to_string(m),
        2.0 * m,
        [a = std::move(a), m](std::vector<double>& out) {
          out.assign(1, 0.0);
          const std::span<const double> x(a.col(0), static_cast<std::size_t>(m));
          const std::span<const double> y(a.col(1), static_cast<std::size_t>(m));
          out[0] = dense::dot(x, y);
        }});
  }
  {
    // axpy mutates y, so every timed run restores the baseline via the
    // O(m) assign below; the reported GFLOP/s therefore includes one
    // baseline copy per run (conservative, but stable — the perf gate
    // compares like against like).
    Matrix a = random_matrix(m, 2, 9);
    cases.push_back(Case{
        "axpy", std::to_string(m),
        2.0 * m,
        [a = std::move(a), m](std::vector<double>& out) {
          out.assign(a.col(1), a.col(1) + m);
          const std::span<const double> x(a.col(0), static_cast<std::size_t>(m));
          dense::axpy(0.5, x, std::span<double>(out));
        }});
  }

  util::Table table({"kernel", "shape", "threads", "best (ms)", "GFLOP/s",
                     "GB/s", "speedup", "bitwise"});
  std::vector<Measurement> results;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& bench = cases[ci];
    std::vector<double> serial_out;
    double serial_seconds = 0.0;
    for (const int t : threads) {
      par::set_num_threads(static_cast<unsigned>(t));
      std::vector<double> out1, out2;
      bench.run(out1);  // warm-up + reference
      bench.run(out2);
      Measurement meas;
      meas.kernel = bench.kernel;
      meas.shape = bench.shape;
      meas.threads = t;
      meas.deterministic = bits_equal(out1, out2);
      if (t == threads.front()) serial_out = out1;
      meas.matches_serial = bits_equal(out1, serial_out);

      double best = -1.0;
      for (int rep = 0; rep < reps; ++rep) {
        util::WallTimer timer;
        bench.run(out2);
        const double sec = timer.seconds();
        if (best < 0.0 || sec < best) best = sec;
      }
      meas.seconds = best;
      meas.gflops = best > 0.0 ? bench.flops / best * 1e-9 : 0.0;
      meas.gbs = best > 0.0 ? bench.bytes / best * 1e-9 : 0.0;
      if (t == threads.front()) serial_seconds = best;

      util::Table& row = table.row()
                             .add(meas.kernel)
                             .add(meas.shape)
                             .add(t)
                             .add(best * 1e3, 3)
                             .add(meas.gflops, 2);
      if (bench.bytes > 0.0) {
        row.add(meas.gbs, 2);
      } else {
        row.add("-");
      }
      row.add(util::speedup_str(serial_seconds, best))
          .add(meas.deterministic && meas.matches_serial ? "ok" : "MISMATCH");
      results.push_back(meas);
    }
    if (ci + 1 < cases.size()) table.separator();
  }
  par::set_num_threads(0);  // restore auto
  table.print();

  bool all_ok = true;
  for (const Measurement& meas : results) {
    all_ok = all_ok && meas.deterministic && meas.matches_serial;
  }
  std::printf("\n# bitwise determinism (repeat + vs serial): %s\n",
              all_ok ? "ok" : "MISMATCH");

  if (json_path != "none") {
    util::JsonWriter w;
    w.begin_object();
    w.kv("bench", "kernels").kv("m", m);
    w.kv("simd", tsbo::simd::isa_name());
    w.kv("hardware_concurrency", std::thread::hardware_concurrency());
    w.key("results").begin_array();
    for (const Measurement& meas : results) {
      w.begin_object();
      w.kv("kernel", meas.kernel)
          .kv("shape", meas.shape)
          .kv("simd", meas.simd)
          .kv("threads", meas.threads)
          .kv("seconds", meas.seconds)
          .kv("gflops", meas.gflops);
      if (meas.gbs > 0.0) w.kv("gbs", meas.gbs);
      w.kv("deterministic", meas.deterministic)
          .kv("matches_serial", meas.matches_serial);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    try {
      util::write_text_file(json_path, w.str() + "\n");
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
