// perfbench: end-to-end and per-layer benchmark of the tsbo library.
//
// Runs one workload through the public API (api::Solver,
// service::SolverService) and prints one line per metric,
//
//   METRIC <name> <value> <unit>
//
// followed by one tally line,
//
//   RESULT <attempted> <failed>
//
// perfbench/run.py builds this binary, passes it the workload
// description from perfbench/workloads.json and turns those lines into
// the JSON result.  Every other stdout line is commentary.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             (--spec=<options> | --job=<options> --operators=<a;b;..>
//              --window=<W> --min_jobs=<n> --warm_per_round=<n>
//              --budget_share=<f>)
//
// Two workload kinds:
//   solve   one api::Solver configuration solved repeatedly for
//           --seconds (paper2d_9pt, block4_3d27pt);
//   stream  a seeded closed-loop job stream through one SolverService,
//           W clients each submitting its next job only after the
//           previous one returned (service_stream).
//
// --trace=0 measures the end-to-end metrics with nothing extra
// attached.  --trace=1 is a separate run that attaches a per-restart
// observer to the timed solves and times calls into each module's
// public functions on the workload's own shapes, printing the
// per-layer metrics.  Timed solves always use net=off; the one modeled
// fabric figure (par.modeled_*) comes from a single net=calibrated
// solve in the traced run and is never an end-to-end metric.
//
// Every solve, RHS column and job is checked: converged, an ok
// outcome, and a serially recomputed true residual within
// api::kResidualGuardFactor * rtol (the Carson-Ma gap bound the
// library's own residual guard uses).  Solve workloads also require
// iteration and communication counts to repeat exactly across solves.
// Any violation is counted as failed and the exit code is 1.

#include "api/solver.hpp"
#include "dense/blas3.hpp"
#include "dense/matrix.hpp"
#include "par/config.hpp"
#include "precond/chebyshev.hpp"
#include "service/solver_service.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/spmv.hpp"
#include "util/cli.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (numpy's default) of the samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void metric(const std::string& name, double value, const char* unit) {
  std::printf("METRIC %s %.17g %s\n", name.c_str(), value, unit);
}

/// Attempted / failed tally; thread-safe (stream clients share one).
class Tally {
 public:
  void record(bool ok, const std::string& what) {
    std::lock_guard lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("!! FAILED: %s\n", what.c_str());
    }
  }
  /// A failed check attached to an already-recorded attempt.
  void flag(const std::string& what) {
    std::lock_guard lock(mu_);
    ++failed_;
    std::printf("!! FAILED: %s\n", what.c_str());
  }
  void print() const {
    std::lock_guard lock(mu_);
    std::printf("RESULT %ld %ld\n", attempted_, failed_);
  }
  [[nodiscard]] bool clean() const {
    std::lock_guard lock(mu_);
    return failed_ == 0 && attempted_ > 0;
  }

 private:
  mutable std::mutex mu_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Deterministic splitmix64 stream: the benchmark's only randomness.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// b = A x for k columns of x = 1 + 1% seeded noise: a right-hand side
/// near the default (b = A * ones) one, as a repeat solve would bring.
std::vector<double> perturbed_rhs(const sparse::CsrMatrix& a, int k,
                                  std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(a.rows);
  SplitMix rng(seed);
  std::vector<double> b(n * static_cast<std::size_t>(k));
  std::vector<double> x(n);
  for (int t = 0; t < k; ++t) {
    for (double& xi : x) xi = 1.0 + 0.01 * (rng.uniform() - 0.5);
    sparse::spmv(a, x, std::span<double>(b.data() + t * n, n));
  }
  return b;
}

/// Serial ||b - A x|| / ||b|| for one column.
double true_relres(const sparse::CsrMatrix& a, const double* x,
                   const double* b) {
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<double> ax(n);
  sparse::spmv(a, std::span<const double>(x, n), ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

/// Records one verdict per RHS column of a solve: converged, outcome
/// ok, serial true residual within the guard bound.
void check_solve(const api::SolveReport& rep, const sparse::CsrMatrix& a,
                 const std::vector<double>& b, const std::vector<double>& x,
                 Tally& tally, const std::string& what) {
  const auto n = static_cast<std::size_t>(a.rows);
  const int k = rep.options.rhs;
  const double bound = api::kResidualGuardFactor * rep.options.rtol;
  for (int t = 0; t < k; ++t) {
    const bool converged = k > 1 ? rep.result.rhs_results.at(t).converged
                                 : rep.result.converged;
    const bool sized = x.size() == n * k && b.size() == n * k;
    const double tr = sized ? true_relres(a, x.data() + t * n, b.data() + t * n)
                            : HUGE_VAL;
    const bool ok = converged && rep.resilience.outcome == "ok" && tr <= bound;
    std::ostringstream msg;
    msg << what << " column " << t << ": converged=" << converged
        << " outcome=" << rep.resilience.outcome << " true_relres=" << tr
        << " bound=" << bound;
    tally.record(ok, msg.str());
  }
}

/// Counts that must repeat exactly between solves of one configuration.
struct Counts {
  long iters = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t p2p_rounds = 0;
  std::uint64_t bytes_allreduced = 0;
  std::uint64_t bytes_exchanged = 0;
  bool operator==(const Counts&) const = default;
};
Counts counts_of(const api::SolveReport& rep) {
  const par::CommStats& c = rep.result.comm_stats;
  return {rep.result.iters, c.allreduces, c.p2p_rounds, c.bytes_allreduced,
          c.bytes_exchanged};
}

/// Per-solve layer figures read off a SolveReport.
struct Phases {
  double spmv = 0, precond = 0, ortho = 0, total = 0, facade = 0;
  api::OrthoBreakdown bd;
  double restarts = 0, la_hits = 0, la_misses = 0;
  Counts counts;
};
Phases phases_of(const api::SolveReport& rep, double facade_overhead) {
  Phases p;
  p.spmv = rep.result.time_spmv();
  p.precond = rep.result.time_precond();
  p.ortho = rep.result.time_ortho();
  p.total = rep.result.time_total();
  p.facade = facade_overhead;
  p.bd = api::breakdown_of(rep.result);
  p.restarts = rep.result.restarts;
  p.la_hits = static_cast<double>(rep.result.lookahead_hits);
  p.la_misses = static_cast<double>(rep.result.lookahead_misses);
  p.counts = counts_of(rep);
  return p;
}

/// Prints the krylov.*, ortho.* and par count metrics, each reduced
/// over the samples with `reduce` (median for repeated identical
/// solves, mean per job for a mixed stream).
void print_phase_metrics(const std::vector<Phases>& ps,
                         double (*reduce)(const std::vector<double>&)) {
  const auto col = [&](auto get) {
    std::vector<double> v;
    for (const Phases& p : ps) v.push_back(get(p));
    return reduce(v);
  };
  metric("krylov.spmv_s", col([](const Phases& p) { return p.spmv; }), "s");
  // A share, not seconds: with precond=none the bucket is exactly zero
  // on every run, and a time that never varies reads as a fake one.
  metric("krylov.precond_frac",
         col([](const Phases& p) { return p.total > 0 ? p.precond / p.total : 0.0; }),
         "ratio");
  metric("krylov.ortho_s", col([](const Phases& p) { return p.ortho; }), "s");
  metric("krylov.total_s", col([](const Phases& p) { return p.total; }), "s");
  // Signed on purpose: the buckets are per-rank maxima, so at ranks > 1
  // they can over-count the critical path and this goes negative.
  metric("krylov.unattributed_s",
         col([](const Phases& p) {
           return p.total - p.spmv - p.precond - p.ortho;
         }),
         "s");
  metric("krylov.facade_overhead_s",
         col([](const Phases& p) { return p.facade; }), "s");
  metric("krylov.restarts", col([](const Phases& p) { return p.restarts; }),
         "count");
  metric("krylov.lookahead_hits",
         col([](const Phases& p) { return p.la_hits; }), "count");
  metric("krylov.lookahead_misses",
         col([](const Phases& p) { return p.la_misses; }), "count");
  metric("ortho.dot_s", col([](const Phases& p) { return p.bd.dot; }), "s");
  metric("ortho.reduce_s", col([](const Phases& p) { return p.bd.reduce; }), "s");
  metric("ortho.update_s", col([](const Phases& p) { return p.bd.update; }), "s");
  metric("ortho.factor_s", col([](const Phases& p) { return p.bd.factor; }), "s");
  metric("ortho.small_s", col([](const Phases& p) { return p.bd.small; }), "s");
  const auto cnt = [&](auto get) {
    return col([&](const Phases& p) { return static_cast<double>(get(p.counts)); });
  };
  metric("par.allreduces", cnt([](const Counts& c) { return c.allreduces; }), "count");
  metric("par.p2p_rounds", cnt([](const Counts& c) { return c.p2p_rounds; }), "count");
  metric("par.bytes_allreduced",
         cnt([](const Counts& c) { return c.bytes_allreduced; }), "B");
  metric("par.bytes_exchanged",
         cnt([](const Counts& c) { return c.bytes_exchanged; }), "B");
}

/// Median seconds per call of fn, called until ~min_s has elapsed (at
/// least 5 calls) after one untimed warm-up call.
double time_call(const std::function<void()>& fn, double min_s = 0.3) {
  fn();
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || since(start) < min_s) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(since(t0));
  }
  return median(samples);
}

/// Single-thread STREAM triad a = b + 3 c over arrays that together
/// span 4x the last-level cache, so no pass reuses cached data.  Best
/// of 5 passes, in GB/s (3 arrays moved per pass, write-allocate
/// traffic not counted).
double triad_gbs() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t bytes_each = (4 * static_cast<std::size_t>(llc)) / 3;
  const std::size_t n = bytes_each / sizeof(double);
  std::printf("# triad: 3 arrays x %.0f MiB = %.0f MiB (4x the %.0f MiB "
              "last-level cache), 1 thread\n",
              bytes_each / 1048576.0, 3 * bytes_each / 1048576.0,
              llc / 1048576.0);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::max(best, 3.0 * static_cast<double>(bytes_each) / since(t0) / 1e9);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong value");
  return best;
}

/// Times the dense, sparse and precond layers' public kernels on the
/// workload's per-rank shapes, serially as inside an SPMD rank.
void measure_kernels(const api::SolverOptions& opts,
                     const sparse::CsrMatrix& a, double triad) {
  par::ScopedSerial serial;
  const int k = opts.rhs;
  const sparse::RowPartition part(a.rows, opts.ranks);
  const sparse::DistCsr piece(a, part, 0);
  const int nloc = piece.n_local();

  // Panel shapes of one two-stage step: the s*k-wide new panel against
  // the bs*k-wide big panel (the Gram / projection and its update).
  const int wide = opts.bs * k;
  const int thin = opts.s * k;
  dense::Matrix q(nloc, wide), v(nloc, thin), r(wide, thin);
  SplitMix rng(12345);
  for (double& e : q.data()) e = rng.uniform() - 0.5;
  for (double& e : v.data()) e = rng.uniform() - 0.5;
  for (double& e : r.data()) e = 1e-3 * (rng.uniform() - 0.5);
  dense::Matrix g(wide, thin);
  const double flops = 2.0 * nloc * wide * thin;
  const double t_tn = time_call([&] { dense::gemm_tn(1.0, q.view(), v.view(), 0.0, g.view()); });
  const double t_nn = time_call([&] { dense::gemm_nn(-1.0, q.view(), r.view(), 1.0, v.view()); });
  const double bytes_tn = 8.0 * nloc * (wide + thin);      // read Q, V
  const double bytes_nn = 8.0 * nloc * (wide + 2 * thin);  // read Q, update V
  std::printf("# gemm shapes: %d x %d panel against %d x %d (per rank)\n",
              nloc, thin, nloc, wide);
  metric("dense.gemm_tn.gflops", flops / t_tn / 1e9, "GFLOP/s");
  metric("dense.gemm_nn.gflops", flops / t_nn / 1e9, "GFLOP/s");
  metric("dense.gemm_tn.frac_bw", bytes_tn / t_tn / 1e9 / triad, "ratio");
  metric("dense.gemm_nn.frac_bw", bytes_nn / t_nn / 1e9 / triad, "ratio");

  // SpMV / SpMM over the whole matrix, serially: the same row kernel a
  // rank runs on its rows.
  const auto n = static_cast<std::size_t>(a.rows);
  const double nnz = static_cast<double>(a.nnz());
  std::vector<double> x(n, 1.0), y(n, 0.0);
  const double t_spmv = time_call([&] { sparse::spmv(a, x, y); });
  // Computed bytes: values + column ids, row offsets, x once, y once.
  const double bytes_spmv = nnz * 12.0 + static_cast<double>(n) * 24.0;
  metric("sparse.spmv.gflops", 2.0 * nnz / t_spmv / 1e9, "GFLOP/s");
  metric("sparse.spmv.gbs", bytes_spmv / t_spmv / 1e9, "GB/s");
  metric("sparse.spmv.frac_bw", bytes_spmv / t_spmv / 1e9 / triad, "ratio");
  constexpr int kSpmm = 4;
  std::vector<sparse::ord> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> xk(n * kSpmm, 1.0), yk(n * kSpmm, 0.0);
  const double t_spmm = time_call([&] {
    sparse::spmm_rows_mapped(a, rows, xk.data(), kSpmm, yk.data(), n);
  });
  const double bytes_spmm =
      nnz * 12.0 + static_cast<double>(n) * (8.0 + 4.0 + 2.0 * 8.0 * kSpmm);
  metric("sparse.spmm.gbs", bytes_spmm / t_spmm / 1e9, "GB/s");

  // Chebyshev on the rank-0 piece: the power-method estimate (setup)
  // and one apply over the workload's k columns.
  std::vector<double> setups;
  std::shared_ptr<const precond::ChebyshevSetup> setup;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    setup = std::make_shared<const precond::ChebyshevSetup>(piece, 10);
    setups.push_back(since(t0));
  }
  const precond::ChebyshevPolynomial cheb(setup, opts.precond_degree);
  const auto nl = static_cast<std::size_t>(nloc);
  std::vector<double> px(nl * k, 1.0), py(nl * k, 0.0);
  const double t_apply = time_call([&] {
    cheb.apply_multi(nl, static_cast<std::size_t>(k), px.data(), nl, py.data(), nl);
  });
  metric("precond.setup_s", median(setups), "s");
  metric("precond.apply_s", t_apply, "s");
  metric("mem.triad_gbs", triad, "GB/s");
  std::printf("# frac_bw = computed bytes / time / triad: above 1 the operands "
              "stayed in cache, so it is a bound, not a utilisation\n");
}

/// Computed working set of one solve: matrix storage, the (m+1)-column
/// Krylov basis per RHS, and a handful of length-n vectors.
double working_set_mb(const api::SolverOptions& opts, const sparse::CsrMatrix& a) {
  const double n = a.rows;
  return (static_cast<double>(a.storage_bytes()) +
          8.0 * n * opts.rhs * (opts.m + 1 + 4)) /
         1048576.0;
}

struct RankAndModel {
  double rank1_s = 0, rank2_s = 0, exposed = 0, overlapped = 0;
};

/// par.rank_speedup and the modeled fabric split for one configuration:
/// two ranks=1 solves against two ranks=2 solves (net=off), then a
/// single net=calibrated solve whose modeled times are reported as such.
RankAndModel rank_and_model(api::SolverOptions opts, const sparse::CsrMatrix& a,
                            const std::vector<double>& b, Tally& tally) {
  RankAndModel out;
  const auto timed = [&](const api::SolverOptions& o, int reps) {
    api::Solver solver(o);
    solver.set_matrix_ref(a).set_rhs_ref(b);
    std::vector<double> walls;
    api::SolveReport rep;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      rep = solver.solve();
      walls.push_back(since(t0));
      check_solve(rep, a, b, solver.solution(), tally,
                  "ranks=" + std::to_string(o.ranks) + " net=" + o.net);
    }
    return std::make_pair(median(walls), rep);
  };
  opts.ranks = 1;
  out.rank1_s = timed(opts, 2).first;
  opts.ranks = 2;
  out.rank2_s = timed(opts, 2).first;
  opts.net = "calibrated";
  const api::SolveReport modeled = timed(opts, 1).second;
  out.exposed = modeled.result.comm_stats.injected_seconds;
  out.overlapped = modeled.result.comm_stats.overlapped_seconds;
  return out;
}

void print_rank_and_model(const RankAndModel& rm) {
  std::printf("# rank speedup: ranks=1 %.4f s vs ranks=2 %.4f s (net=off)\n",
              rm.rank1_s, rm.rank2_s);
  metric("par.rank_speedup", rm.rank1_s / rm.rank2_s, "x");
  std::printf("# modeled (net=calibrated, not wall-clock): exposed %.6f s, "
              "overlapped %.6f s\n",
              rm.exposed, rm.overlapped);
  metric("par.modeled_exposed_s", rm.exposed, "s");
  metric("par.modeled_overlapped_s", rm.overlapped, "s");
}

/// Median traced / untraced wall of alternating solves of one
/// configuration, minus one.  "Traced" = a per-restart observer that
/// records a span per restart cycle, the benchmark's only tracing.
double trace_overhead(api::Solver& solver, const sparse::CsrMatrix& a,
                      const std::vector<double>& b, int pairs, Tally& tally,
                      std::vector<double>* traced_walls = nullptr,
                      std::vector<api::SolveReport>* traced_reports = nullptr,
                      double min_seconds = 0.0) {
  std::vector<double> on, off;
  std::vector<double> spans;
  const auto start = Clock::now();
  for (int i = 0; i < pairs || since(start) < min_seconds; ++i) {
    for (const bool traced : {i % 2 == 0, i % 2 != 0}) {
      spans.clear();
      const auto t0 = Clock::now();
      if (traced) {
        solver.on_restart([&spans, t0](const krylov::ProgressEvent&) {
          spans.push_back(since(t0));
        });
      } else {
        solver.on_restart(nullptr);
      }
      const api::SolveReport rep = solver.solve();
      const double wall = since(t0);
      check_solve(rep, a, b, solver.solution(), tally,
                  traced ? "traced solve" : "untraced solve");
      (traced ? on : off).push_back(wall);
      if (traced && traced_walls != nullptr) traced_walls->push_back(wall);
      if (traced && traced_reports != nullptr) traced_reports->push_back(rep);
    }
  }
  solver.on_restart(nullptr);
  return median(on) / median(off) - 1.0;
}

struct ServiceFigures {
  std::vector<double> queue_s, solve_s;
  double hits = 0, misses = 0, evictions = 0, retries = 0;
  double warm_iters_ratio = 0, concurrency = 0;
};

void print_service_metrics(const ServiceFigures& f) {
  metric("service.queue_s.p50", median(f.queue_s), "s");
  metric("service.solve_s.p50", median(f.solve_s), "s");
  metric("service.cache_hit_ratio", f.hits / (f.hits + f.misses), "ratio");
  metric("service.evictions", f.evictions, "count");
  metric("service.warm_iters_ratio", f.warm_iters_ratio, "ratio");
  metric("service.retries", f.retries, "count");
  metric("service.concurrency", f.concurrency, "ratio");
}

// ---------------------------------------------------------------------
// Workload kind "solve"
// ---------------------------------------------------------------------

int run_solve(const util::Cli& cli, std::uint64_t seed, double seconds,
              bool trace) {
  const api::SolverOptions opts = api::SolverOptions::parse(cli.get("spec", ""));
  cli.reject_unknown();
  opts.validate();
  if (opts.net != "off") throw std::invalid_argument("timed solves need net=off");
  std::printf("# spec: %s\n", opts.to_string().c_str());
  std::printf("# --seed is not an input of this workload: the RHS is the "
              "fixed b = A*ones (block), so counts repeat exactly (seed %llu)\n",
              static_cast<unsigned long long>(seed));

  // Set-up: matrix assembly + RHS; the median is setup_s.  It is
  // repeated after every timed solve, so its samples span the same
  // stretch of time as the solves' (host interference comes in phases
  // of ten seconds or more, longer than a burst of back-to-back builds).
  std::vector<double> setups;
  const auto set_up = [&](sparse::CsrMatrix& m, std::vector<double>& rhs) {
    const auto t0 = Clock::now();
    m = api::make_matrix(opts);
    rhs = opts.rhs > 1 ? api::batch_rhs(m, opts.rhs) : api::ones_rhs(m);
    setups.push_back(since(t0));
  };
  sparse::CsrMatrix a;
  std::vector<double> b;
  set_up(a, b);
  std::printf("# matrix: n=%d nnz=%lld; computed working set %.1f MB\n",
              a.rows, static_cast<long long>(a.nnz()), working_set_mb(opts, a));

  Tally tally;
  api::Solver solver(opts);
  solver.set_matrix_ref(a).set_rhs_ref(b);

  // Untimed warm-up solve: first-touch of the solver's buffers.
  api::SolveReport first = solver.solve();
  check_solve(first, a, b, solver.solution(), tally, "warm-up solve");
  const Counts pinned = counts_of(first);

  std::vector<double> walls;
  std::vector<api::SolveReport> reports;
  double overhead = 0.0;
  if (!trace) {
    const auto start = Clock::now();
    constexpr std::size_t kMinReps = 5;
    while (walls.size() < kMinReps || since(start) < seconds) {
      const auto t0 = Clock::now();
      reports.push_back(solver.solve());
      walls.push_back(since(t0));
      check_solve(reports.back(), a, b, solver.solution(), tally,
                  "solve " + std::to_string(walls.size()));
      sparse::CsrMatrix a2;
      std::vector<double> b2;
      set_up(a2, b2);
    }
  } else {
    // Half the budget: the traced run also pays for the rank, modeled,
    // service and kernel measurements below.
    overhead =
        trace_overhead(solver, a, b, 3, tally, &walls, &reports, seconds / 2);
  }
  for (const api::SolveReport& rep : reports) {
    if (counts_of(rep) != pinned) {
      tally.flag("iteration/communication counts differ between solves");
    }
  }

  if (!trace) {
    const double total = std::accumulate(walls.begin(), walls.end(), 0.0);
    std::printf("# %zu timed solves, %ld iters each; walls (s):", walls.size(),
                pinned.iters);
    for (const double w : walls) std::printf(" %.3f", w);
    std::printf("\n");
    metric("solve_s", median(walls), "s");
    metric("setup_s", median(setups), "s");
    metric("iters", static_cast<double>(pinned.iters), "count");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("jobs_per_s", static_cast<double>(walls.size() * opts.rhs) / total, "1/s");
    metric("job_p50_s", median(walls), "s");
    metric("job_p90_s", quantile(walls, 0.9), "s");
  } else {
    std::vector<Phases> ps;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ps.push_back(phases_of(reports[i], walls[i] - reports[i].result.time_total()));
    }
    print_phase_metrics(ps, &median);
    metric("trace_overhead_frac", overhead, "ratio");
    print_rank_and_model(rank_and_model(opts, a, b, tally));

    // Service layer on this configuration: one cold job, then a
    // warm_start=1 repeat with a perturbed RHS.
    ServiceFigures f;
    const auto t0 = Clock::now();
    {
      service::SolverService svc;
      service::JobResult cold = svc.wait(svc.submit(opts));
      api::SolverOptions warm_opts = opts;
      warm_opts.warm_start = 1;
      const std::vector<double> b2 = perturbed_rhs(a, opts.rhs, seed);
      service::JobResult warm = svc.wait(svc.submit(warm_opts, b2));
      const double wall = since(t0);
      for (service::JobResult* r : {&cold, &warm}) {
        const bool ran = r->outcome == service::JobOutcome::kOk && r->error.empty();
        tally.record(ran, "service job " + std::to_string(r->id) + ": " +
                              service::to_string(r->outcome) + " " + r->error);
        if (!ran) continue;
        check_solve(r->report, a, r == &cold ? b : b2, r->solution, tally,
                    "service job");
        f.queue_s.push_back(r->report.service.queue_seconds);
        f.solve_s.push_back(r->report.result.time_total());
        f.retries += r->attempts - 1;
      }
      const service::OperatorCache::Stats st = svc.cache_stats();
      f.hits = static_cast<double>(st.hits);
      f.misses = static_cast<double>(st.misses);
      f.evictions = static_cast<double>(st.evictions);
      f.warm_iters_ratio = static_cast<double>(warm.report.result.iters) /
                           static_cast<double>(cold.report.result.iters);
      f.concurrency = std::accumulate(f.solve_s.begin(), f.solve_s.end(), 0.0) / wall;
    }
    print_service_metrics(f);
    measure_kernels(opts, a, triad_gbs());
  }
  tally.print();
  return tally.clean() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Workload kind "stream"
// ---------------------------------------------------------------------

/// One client session: a cold job against `op`, optionally followed,
/// once its result is back, by a warm_start=1 repeat whose RHS is
/// perturbed with `rhs_seed` (a caller re-solving its own operator).
struct StreamSession {
  std::size_t op = 0;
  bool repeat = false;
  std::uint64_t rhs_seed = 0;
};

/// Seeded in-place shuffle.
void shuffle(std::vector<std::size_t>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// The seeded session sequence: rounds of one session per operator in
/// a seeded order, `warm_per_round` of them with a warm repeat.  Which
/// operators get the repeats cycles through a seeded permutation, so
/// every operator is repeated equally often: seeds change order and
/// perturbations, not the amount of work.
std::vector<StreamSession> make_stream(std::uint64_t seed, std::size_t nops,
                                   std::size_t warm_per_round,
                                   std::size_t min_len) {
  SplitMix rng(seed);
  std::vector<StreamSession> sessions;
  std::vector<std::size_t> order(nops);
  std::vector<std::size_t> warm_cycle(nops);
  std::size_t cursor = nops;  // exhausted: reshuffle on first use
  while (sessions.size() < min_len) {
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, rng);
    std::vector<bool> warm(nops, false);
    for (std::size_t w = 0; w < std::min(warm_per_round, nops); ++w) {
      if (cursor == nops) {
        std::iota(warm_cycle.begin(), warm_cycle.end(), 0);
        shuffle(warm_cycle, rng);
        cursor = 0;
      }
      warm[warm_cycle[cursor++]] = true;
    }
    for (const std::size_t op : order) {
      sessions.push_back({op, warm[op], warm[op] ? rng.next() : 0});
    }
  }
  return sessions;
}

struct JobRecord {
  std::size_t op = 0;
  bool warm = false;
  double latency = 0;
  service::JobResult result;
};

int run_stream(const util::Cli& cli, std::uint64_t seed, double seconds,
               bool trace) {
  const std::string job_spec = cli.get("job", "");
  std::vector<std::string> op_specs;
  {
    std::stringstream ss(cli.get("operators", ""));
    for (std::string item; std::getline(ss, item, ';');) op_specs.push_back(item);
  }
  const int window = cli.get_int("window", 3);
  const auto min_jobs = static_cast<std::size_t>(cli.get_int("min_jobs", 150));
  const auto warm_per_round = static_cast<std::size_t>(cli.get_int("warm_per_round", 3));
  const double budget_share = cli.get_double("budget_share", 0.5);
  cli.reject_unknown();
  if (op_specs.empty() || window < 1) throw std::invalid_argument("empty stream");

  // At most W pool lanes: the service runs at most W jobs at once.
  par::set_num_threads(static_cast<unsigned>(window));

  std::vector<api::SolverOptions> ops;
  std::vector<sparse::CsrMatrix> mats;
  std::vector<std::vector<double>> ones;
  double footprint = 0.0;
  for (const std::string& s : op_specs) {
    ops.push_back(api::SolverOptions::parse(job_spec + " " + s));
    ops.back().validate();
    if (ops.back().net != "off") throw std::invalid_argument("stream jobs need net=off");
    mats.push_back(api::make_matrix(ops.back()));
    ones.push_back(api::ones_rhs(mats.back()));
    footprint += static_cast<double>(service::build_operator(ops.back())->bytes());
    std::printf("# operator %zu: %s (n=%d, computed working set %.1f MB)\n",
                ops.size() - 1, s.c_str(), mats.back().rows,
                working_set_mb(ops.back(), mats.back()));
  }
  service::ServiceConfig cfg;
  cfg.cache_budget_bytes = static_cast<std::size_t>(budget_share * footprint);
  std::printf("# job template: %s\n# window W=%d closed loop, cache budget "
              "%.1f MB = %.2f x the operators' %.1f MB footprint, seed %llu\n",
              job_spec.c_str(), window, cfg.cache_budget_bytes / 1048576.0,
              budget_share, footprint / 1048576.0,
              static_cast<unsigned long long>(seed));

  if (trace) seconds /= 2;  // leave room for the standalone layer probes
  const std::vector<StreamSession> sessions =
      make_stream(seed, ops.size(), warm_per_round, 20 * min_jobs);
  Tally tally;
  std::vector<JobRecord> records;
  std::mutex records_mu;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> started{0};
  double wall = 0.0;
  service::OperatorCache::Stats cache{};
  {
    service::SolverService svc(cfg);
    const auto start = Clock::now();
    const auto run_job = [&](std::size_t op, bool warm, std::uint64_t rhs_seed) {
      const sparse::CsrMatrix& a = mats[op];
      api::SolverOptions o = ops[op];
      std::vector<double> b;
      if (warm) {
        o.warm_start = 1;
        b = perturbed_rhs(a, 1, rhs_seed);
      }
      JobRecord rec{op, warm, 0.0, {}};
      const auto t0 = Clock::now();
      const std::uint64_t id = warm ? svc.submit(o, b) : svc.submit(o);
      rec.result = svc.wait(id);
      rec.latency = since(t0);
      const service::JobResult& r = rec.result;
      const std::string what = "job " + std::to_string(id);
      const bool ran = r.outcome == service::JobOutcome::kOk && r.error.empty();
      tally.record(ran, what + ": " + service::to_string(r.outcome) + " " + r.error);
      if (ran) {
        check_solve(r.report, a, warm ? b : ones[op], r.solution, tally, what);
      }
      rec.result.solution = {};
      std::lock_guard lock(records_mu);
      records.push_back(std::move(rec));
    };
    const auto client = [&] {
      for (;;) {
        const std::size_t idx = next.fetch_add(1);
        if (idx >= sessions.size() ||
            (started.load() >= min_jobs && since(start) >= seconds)) {
          return;
        }
        const StreamSession& ses = sessions[idx];
        started += ses.repeat ? 2 : 1;
        run_job(ses.op, false, 0);
        if (ses.repeat) run_job(ses.op, true, ses.rhs_seed);
      }
    };
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(window));
    for (int c = 0; c < window; ++c) {
      clients.emplace_back([&, c] {
        try {
          client();
        } catch (...) {
          errors[static_cast<std::size_t>(c)] = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    wall = since(start);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    cache = svc.cache_stats();
  }

  std::vector<double> latency, solve, setup, iters, queue;
  std::vector<Phases> ps;
  std::vector<double> cold_iters(ops.size(), 0.0);
  for (const JobRecord& rec : records) {
    const api::SolveReport& rep = rec.result.report;
    if (!rec.warm) cold_iters[rec.op] = static_cast<double>(rep.result.iters);
  }
  std::vector<double> warm_ratio;
  double retries = 0.0;
  for (const JobRecord& rec : records) {
    const api::SolveReport& rep = rec.result.report;
    latency.push_back(rec.latency);
    solve.push_back(rep.result.time_total());
    queue.push_back(rep.service.queue_seconds);
    iters.push_back(static_cast<double>(rep.result.iters));
    if (!rep.service.cache_hit) setup.push_back(rep.service.setup_seconds);
    if (rep.service.warm_started && cold_iters[rec.op] > 0) {
      warm_ratio.push_back(static_cast<double>(rep.result.iters) / cold_iters[rec.op]);
    }
    retries += rec.result.attempts - 1;
    ps.push_back(phases_of(rep, rec.latency - rep.service.queue_seconds -
                                    rep.service.setup_seconds -
                                    rep.result.time_total()));
  }
  std::printf("# %zu jobs in %.2f s: %llu cache hits, %llu misses, %llu "
              "evictions, %zu warm-started\n",
              records.size(), wall, static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions), warm_ratio.size());
  for (std::size_t op = 0; op < ops.size(); ++op) {
    std::size_t n = 0;
    for (const JobRecord& rec : records) n += rec.op == op ? 1 : 0;
    std::printf("#   operator %zu: %zu jobs, %.0f iters cold\n", op, n, cold_iters[op]);
  }

  if (!trace) {
    // A mean, not a median: per-job work spans 30 to 1,080 iterations,
    // and the median of such a mixture jumps between operator classes.
    metric("solve_s", mean(solve), "s");
    metric("setup_s", median(setup), "s");
    metric("iters", mean(iters), "count");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("jobs_per_s", static_cast<double>(records.size()) / wall, "1/s");
    metric("job_p50_s", median(latency), "s");
    metric("job_p90_s", quantile(latency, 0.9), "s");
  } else {
    print_phase_metrics(ps, &mean);
    ServiceFigures f;
    f.queue_s = queue;
    f.solve_s = solve;
    f.hits = static_cast<double>(cache.hits);
    f.misses = static_cast<double>(cache.misses);
    f.evictions = static_cast<double>(cache.evictions);
    f.retries = retries;
    f.warm_iters_ratio = mean(warm_ratio);
    f.concurrency = std::accumulate(solve.begin(), solve.end(), 0.0) / wall;
    print_service_metrics(f);

    // Standalone layers on the stream's heaviest operator (the last
    // one listed), the only Chebyshev user.
    const std::size_t rep_op = ops.size() - 1;
    api::Solver solver(ops[rep_op]);
    solver.set_matrix_ref(mats[rep_op]).set_rhs_ref(ones[rep_op]);
    metric("trace_overhead_frac",
           trace_overhead(solver, mats[rep_op], ones[rep_op], 6, tally), "ratio");
    print_rank_and_model(rank_and_model(ops[rep_op], mats[rep_op], ones[rep_op], tally));
    measure_kernels(ops[rep_op], mats[rep_op], triad_gbs());
  }
  tally.print();
  return tally.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Large buffers always come from (and return to) mmap, so peak_rss_mb
  // tracks the program's live memory instead of which glibc arenas the
  // short-lived rank and pool threads happened to fragment.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    const util::Cli cli(argc, argv);
    const std::string workload = cli.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(cli.get_long("seed", 1));
    const double seconds = cli.get_double("seconds", 10.0);
    const bool trace = cli.get_int("trace", 0) != 0;
    std::printf("# workload %s, %s run, %.0f s\n", workload.c_str(),
                trace ? "traced (per-layer)" : "untraced (end-to-end)", seconds);
    if (cli.has("spec")) return run_solve(cli, seed, seconds, trace);
    if (cli.has("job")) return run_stream(cli, seed, seconds, trace);
    throw std::invalid_argument("need --spec (solve) or --job (stream)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
