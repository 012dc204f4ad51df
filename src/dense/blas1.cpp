#include "dense/blas1.hpp"

#include "par/config.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsbo::dense {

namespace {

// Per-chunk kernels: each processes [begin, end) with a fixed
// accumulation order (vector lanes at fixed offsets from `begin`, then
// the scalar tail), so the chunked drivers below are deterministic for
// any thread count (see par/config.hpp and util/simd.hpp).

constexpr std::size_t kW = simd::kLanes;

double dot_range(const double* x, const double* y, std::size_t begin,
                 std::size_t end) {
  const double* px = x + begin;
  const double* py = y + begin;
  const std::size_t n = end - begin;
  // Four independent vector accumulators break the FMA dependence chain;
  // they are combined pairwise in a fixed order below.
  simd::Vec a0 = simd::zero(), a1 = simd::zero();
  simd::Vec a2 = simd::zero(), a3 = simd::zero();
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    a0 = simd::mul_add(simd::load(px + i), simd::load(py + i), a0);
    a1 = simd::mul_add(simd::load(px + i + kW), simd::load(py + i + kW), a1);
    a2 = simd::mul_add(simd::load(px + i + 2 * kW),
                       simd::load(py + i + 2 * kW), a2);
    a3 = simd::mul_add(simd::load(px + i + 3 * kW),
                       simd::load(py + i + 3 * kW), a3);
  }
  for (; i + kW <= n; i += kW) {
    a0 = simd::mul_add(simd::load(px + i), simd::load(py + i), a0);
  }
  double s =
      simd::reduce_add(simd::add(simd::add(a0, a1), simd::add(a2, a3)));
  for (; i < n; ++i) s += px[i] * py[i];
  return s;
}

double sumsq_range(const double* x, std::size_t begin, std::size_t end) {
  return dot_range(x, x, begin, end);
}

double amax_range(const double* x, std::size_t begin, std::size_t end) {
  const double* px = x + begin;
  const std::size_t n = end - begin;
  simd::Vec vm = simd::zero();
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    vm = simd::max(vm, simd::abs(simd::load(px + i)));
  }
  double m = simd::reduce_max(vm);
  for (; i < n; ++i) m = std::max(m, std::abs(px[i]));
  return m;
}

double scaled_sumsq_range(const double* x, double inv, std::size_t begin,
                          std::size_t end) {
  const double* px = x + begin;
  const std::size_t n = end - begin;
  const simd::Vec vinv = simd::set1(inv);
  simd::Vec a0 = simd::zero(), a1 = simd::zero();
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    const simd::Vec t0 = simd::mul(simd::load(px + i), vinv);
    const simd::Vec t1 = simd::mul(simd::load(px + i + kW), vinv);
    a0 = simd::mul_add(t0, t0, a0);
    a1 = simd::mul_add(t1, t1, a1);
  }
  for (; i + kW <= n; i += kW) {
    const simd::Vec t0 = simd::mul(simd::load(px + i), vinv);
    a0 = simd::mul_add(t0, t0, a0);
  }
  double s = simd::reduce_add(simd::add(a0, a1));
  for (; i < n; ++i) {
    const double t = px[i] * inv;
    s += t * t;
  }
  return s;
}

/// Runs `range_fn` over the fixed chunks of [0, n) and combines the
/// per-chunk partials in ascending chunk order with `combine`.
template <typename RangeFn, typename Combine>
double chunked_reduce(std::size_t n, const RangeFn& range_fn,
                      const Combine& combine) {
  if (n <= par::kReduceChunk) return range_fn(0, n);
  const std::size_t nchunks = par::reduce_chunk_count(n);
  util::aligned_vector<double> partials(nchunks, 0.0);
  par::for_reduce_chunks(
      n, [&](std::size_t ci, std::size_t b, std::size_t e) {
        partials[ci] = range_fn(b, e);
      });
  double acc = partials[0];
  for (std::size_t ci = 1; ci < nchunks; ++ci) acc = combine(acc, partials[ci]);
  return acc;
}

}  // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  return chunked_reduce(
      x.size(),
      [&](std::size_t b, std::size_t e) {
        return dot_range(x.data(), y.data(), b, e);
      },
      [](double a, double b) { return a + b; });
}

double sumsq(std::span<const double> x) {
  return chunked_reduce(
      x.size(),
      [&](std::size_t b, std::size_t e) { return sumsq_range(x.data(), b, e); },
      [](double a, double b) { return a + b; });
}

double nrm2(std::span<const double> x) {
  // Two-pass scaled norm: cheap and robust for the magnitudes GMRES
  // produces (Krylov vectors can overflow the naive sum of squares).
  double m = amax(x);
  if (m == 0.0 || !std::isfinite(m)) return m;
  const double inv = 1.0 / m;
  const double s = chunked_reduce(
      x.size(),
      [&](std::size_t b, std::size_t e) {
        return scaled_sumsq_range(x.data(), inv, b, e);
      },
      [](double a, double b) { return a + b; });
  return m * std::sqrt(s);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  const simd::Vec va = simd::set1(alpha);
  par::parallel_for_grained(x.size(), [&](std::size_t b, std::size_t e) {
    const double* px = x.data();
    double* py = y.data();
    std::size_t i = b;
    for (; i + kW <= e; i += kW) {
      simd::store(py + i,
                  simd::mul_add(va, simd::load(px + i), simd::load(py + i)));
    }
    // Same rounding as the vector body: the grained partition moves
    // with the thread count, so the tail must match lane-for-lane.
    for (; i < e; ++i) py[i] = simd::mul_add(alpha, px[i], py[i]);
  });
}

void scal(double alpha, std::span<double> x) {
  const simd::Vec va = simd::set1(alpha);
  par::parallel_for_grained(x.size(), [&](std::size_t b, std::size_t e) {
    double* px = x.data();
    std::size_t i = b;
    for (; i + kW <= e; i += kW) {
      simd::store(px + i, simd::mul(va, simd::load(px + i)));
    }
    for (; i < e; ++i) px[i] *= alpha;
  });
}

double amax(std::span<const double> x) {
  return chunked_reduce(
      x.size(),
      [&](std::size_t b, std::size_t e) { return amax_range(x.data(), b, e); },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace tsbo::dense
