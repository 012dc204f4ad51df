#pragma once
// Portable fixed-width SIMD layer for the kernel hot loops.
//
// One ISA is selected at compile time (no runtime dispatch — the whole
// build agrees on one lane width, which is what makes the determinism
// contract below checkable):
//
//   macro context                     Vec width   isa_name()
//   __AVX512F__                        8 x f64     "avx512"
//   __AVX2__ && __FMA__                4 x f64     "avx2"
//   __ARM_NEON                         2 x f64     "neon"
//   otherwise / TSBO_DISABLE_SIMD      4 x f64     "scalar" (plain C++)
//
// The CMake option TSBO_SIMD picks the ISA flags (default "native");
// -DTSBO_DISABLE_SIMD=ON is the escape hatch that forces the scalar
// fallback regardless of what the compiler would support.
//
// Determinism contract (same-build): every operation here is a fixed
// per-lane instruction sequence, and the horizontal reductions fold
// lanes in a fixed order (pairwise for reduce_add/reduce_max, ascending
// lane index for the dd reduce).  A kernel built on Vec therefore
// produces bit-identical results run-to-run and across thread counts —
// the fixed-chunk reduction scheme of par/config.hpp is untouched and
// lane boundaries within a chunk depend only on the chunk bounds.
// Cross-ISA bit-identity is explicitly NOT promised: an avx512 build
// and a scalar build associate additions differently (both are valid
// O(eps) results; the dd kernels agree to ~u_dd either way).
//
// EFT primitives: vec_two_sum / vec_two_prod / dd_add on VecDD apply
// exactly the scalar util/eft.hpp flop sequence to every lane (the EFTs
// are branch-free, which is why they vectorize cleanly), so lane l of a
// vectorized dd accumulation is bit-identical to a scalar eft
// accumulation of that lane's strided subsequence — tests/test_simd.cpp
// pins this.  vec_two_prod requires a correctly rounded fused
// multiply-add: hardware FMA on the SIMD ISAs, std::fma on the scalar
// fallback.
//
// mul_add(a, b, c) = a*b + c is the *performance* contract (fused where
// the ISA has FMA, two roundings on the scalar fallback); use the EFT
// primitives, never mul_add, where exactness matters.
//
// VecN<W> (1 <= W <= 8) holds W contiguous doubles — one row of a
// k-interleaved block operand — as one register group: one or two ymm
// on both x86 ISAs (the last one masked below 4 lanes), NEON pairs with
// a half-width tail; W = 1 and the scalar fallback are a plain array.
// load_n/store_n touch exactly W lanes (lanes past W are neither read
// nor written), and lane t of mul_add_n(a, b, c) is the scalar
// a * b[t] + c[t] of the same build bit for bit: the compiler contracts
// both forms into an FMA, or neither (see mul_add_n).

#include "util/eft.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>

#if !defined(TSBO_DISABLE_SIMD)
#if defined(__AVX512F__)
#define TSBO_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define TSBO_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define TSBO_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace tsbo::simd {

#if defined(TSBO_SIMD_AVX512)

struct Vec {
  __m512d v;
  static constexpr std::size_t kLanes = 8;
};

inline const char* isa_name() { return "avx512"; }
inline Vec zero() { return {_mm512_setzero_pd()}; }
inline Vec set1(double x) { return {_mm512_set1_pd(x)}; }
inline Vec load(const double* p) { return {_mm512_loadu_pd(p)}; }
inline void store(double* p, Vec a) { _mm512_storeu_pd(p, a.v); }
inline Vec add(Vec a, Vec b) { return {_mm512_add_pd(a.v, b.v)}; }
inline Vec sub(Vec a, Vec b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline Vec mul(Vec a, Vec b) { return {_mm512_mul_pd(a.v, b.v)}; }
/// a*b + c, fused.
inline Vec mul_add(Vec a, Vec b, Vec c) {
  return {_mm512_fmadd_pd(a.v, b.v, c.v)};
}
/// a*b - c as a single correctly rounded operation (EFT residuals).
inline Vec fms_exact(Vec a, Vec b, Vec c) {
  return {_mm512_fmsub_pd(a.v, b.v, c.v)};
}
inline Vec abs(Vec a) { return {_mm512_abs_pd(a.v)}; }
/// Zero-masked with an all-ones mask: every lane is max(a, b), and GCC 12
/// does not flag the unmasked form's undefined pass-through source.
inline Vec max(Vec a, Vec b) { return {_mm512_maskz_max_pd(0xFF, a.v, b.v)}; }
/// Loads lanes base[idx[0..kLanes)] (32-bit indices, CSR ordinals).
/// The masked form with a zero source and an all-ones mask loads every
/// lane (same values as the unmasked gather) and avoids GCC 12's false
/// "'__Y' may be used uninitialized" on the unmasked intrinsic.
inline Vec gather(const double* base, const std::int32_t* idx) {
  const __m256i vi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vi, base, 8)};
}

#elif defined(TSBO_SIMD_AVX2)

struct Vec {
  __m256d v;
  static constexpr std::size_t kLanes = 4;
};

inline const char* isa_name() { return "avx2"; }
inline Vec zero() { return {_mm256_setzero_pd()}; }
inline Vec set1(double x) { return {_mm256_set1_pd(x)}; }
inline Vec load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, Vec a) { _mm256_storeu_pd(p, a.v); }
inline Vec add(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
inline Vec sub(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline Vec mul(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline Vec mul_add(Vec a, Vec b, Vec c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
inline Vec fms_exact(Vec a, Vec b, Vec c) {
  return {_mm256_fmsub_pd(a.v, b.v, c.v)};
}
inline Vec abs(Vec a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline Vec max(Vec a, Vec b) { return {_mm256_max_pd(a.v, b.v)}; }
/// Masked all-lanes gather, as on AVX-512.
inline Vec gather(const double* base, const std::int32_t* idx) {
  const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vi, all, 8)};
}

#elif defined(TSBO_SIMD_NEON)

struct Vec {
  float64x2_t v;
  static constexpr std::size_t kLanes = 2;
};

inline const char* isa_name() { return "neon"; }
inline Vec zero() { return {vdupq_n_f64(0.0)}; }
inline Vec set1(double x) { return {vdupq_n_f64(x)}; }
inline Vec load(const double* p) { return {vld1q_f64(p)}; }
inline void store(double* p, Vec a) { vst1q_f64(p, a.v); }
inline Vec add(Vec a, Vec b) { return {vaddq_f64(a.v, b.v)}; }
inline Vec sub(Vec a, Vec b) { return {vsubq_f64(a.v, b.v)}; }
inline Vec mul(Vec a, Vec b) { return {vmulq_f64(a.v, b.v)}; }
inline Vec mul_add(Vec a, Vec b, Vec c) {
  return {vfmaq_f64(c.v, a.v, b.v)};
}
inline Vec fms_exact(Vec a, Vec b, Vec c) {
  return {vfmaq_f64(vnegq_f64(c.v), a.v, b.v)};
}
inline Vec abs(Vec a) { return {vabsq_f64(a.v)}; }
inline Vec max(Vec a, Vec b) { return {vmaxq_f64(a.v, b.v)}; }
inline Vec gather(const double* base, const std::int32_t* idx) {
  const double t[2] = {base[idx[0]], base[idx[1]]};
  return {vld1q_f64(t)};
}

#else  // scalar fallback (also selected by TSBO_DISABLE_SIMD)

struct Vec {
  static constexpr std::size_t kLanes = 4;
  double v[kLanes];
};

inline const char* isa_name() { return "scalar"; }
inline Vec zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
inline Vec set1(double x) { return {{x, x, x, x}}; }
inline Vec load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void store(double* p, Vec a) {
  for (std::size_t l = 0; l < Vec::kLanes; ++l) p[l] = a.v[l];
}
inline Vec add(Vec a, Vec b) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline Vec sub(Vec a, Vec b) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline Vec mul(Vec a, Vec b) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
  return r;
}
inline Vec mul_add(Vec a, Vec b, Vec c) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) {
    r.v[l] = a.v[l] * b.v[l] + c.v[l];
  }
  return r;
}
inline Vec fms_exact(Vec a, Vec b, Vec c) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) {
    r.v[l] = std::fma(a.v[l], b.v[l], -c.v[l]);
  }
  return r;
}
inline Vec abs(Vec a) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) r.v[l] = std::abs(a.v[l]);
  return r;
}
inline Vec max(Vec a, Vec b) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) {
    r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
  }
  return r;
}
inline Vec gather(const double* base, const std::int32_t* idx) {
  Vec r;
  for (std::size_t l = 0; l < Vec::kLanes; ++l) r.v[l] = base[idx[l]];
  return r;
}

#endif

inline constexpr std::size_t kLanes = Vec::kLanes;

/// Scalar counterpart of mul_add with the same rounding behavior (one
/// rounding on FMA ISAs, two on the scalar fallback).  Remainder loops
/// of *element-wise* kernels whose partition boundaries move with the
/// thread count (axpy-style) must use this so an element's bits do not
/// depend on whether it fell in the vector body or the scalar tail.
inline double mul_add(double a, double b, double c) {
#if defined(TSBO_SIMD_AVX512) || defined(TSBO_SIMD_AVX2) || \
    defined(TSBO_SIMD_NEON)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

// ---- partial-width register groups (VecN, see the header comment) ----

/// W lanes as a plain array: the scalar fallback at every width, and
/// W = 1 on every ISA (a lone column stays the scalar loop).
template <std::size_t W>
struct ArrayN {
  double v[W];
};

// One register of a RegN and a broadcast into it.  ymm on both x86
// ISAs: on an AVX-512 Xeon, ymm ran the 27-point block SpMM faster than
// a masked zmm at W = 3 and 4, and level at W = 8.
#if defined(TSBO_SIMD_AVX512) || defined(TSBO_SIMD_AVX2)
#define TSBO_SIMD_VECN_YMM 1
using RegD = __m256d;
inline constexpr std::size_t kRegLanes = 4;
inline RegD splat(double a) { return _mm256_set1_pd(a); }
/// Masks the first n lanes of a ymm (n < 4).
inline __m256i mask4(std::size_t n) {
  return _mm256_setr_epi64x(n > 0 ? -1 : 0, n > 1 ? -1 : 0, n > 2 ? -1 : 0,
                            0);
}
#elif defined(TSBO_SIMD_NEON)
using RegD = float64x2_t;  // an odd W's last pair uses its low half
inline constexpr std::size_t kRegLanes = 2;
inline RegD splat(double a) { return vdupq_n_f64(a); }
#endif

#if defined(TSBO_SIMD_VECN_YMM) || defined(TSBO_SIMD_NEON)
#define TSBO_SIMD_VECN_REG 1
template <std::size_t W>
struct RegN {
  RegD v[(W + kRegLanes - 1) / kRegLanes];
};
template <std::size_t W>
using VecN = std::conditional_t<W == 1, ArrayN<W>, RegN<W>>;
#else
template <std::size_t W>
using VecN = ArrayN<W>;
#endif

template <std::size_t W>
inline constexpr bool kArrayN = std::is_same_v<VecN<W>, ArrayN<W>>;

template <std::size_t W>
inline VecN<W> zero_n() {
  static_assert(W >= 1 && W <= 8);
  VecN<W> r{};
  if constexpr (kArrayN<W>) {
    for (std::size_t l = 0; l < W; ++l) r.v[l] = 0.0;
  } else {
#if defined(TSBO_SIMD_VECN_REG)
    for (auto& q : r.v) q = splat(0.0);
#endif
  }
  return r;
}

/// Loads p[0..W); nothing past p[W - 1] is read.
template <std::size_t W>
inline VecN<W> load_n(const double* p) {
  VecN<W> r{};
  if constexpr (kArrayN<W>) {
    for (std::size_t l = 0; l < W; ++l) r.v[l] = p[l];
  } else {
#if defined(TSBO_SIMD_VECN_YMM)
    for (std::size_t j = 0; 4 * j < W; ++j) {
      const std::size_t n = W - 4 * j;
      r.v[j] = n >= 4 ? _mm256_loadu_pd(p + 4 * j)
                      : _mm256_maskload_pd(p + 4 * j, mask4(n));
    }
#elif defined(TSBO_SIMD_NEON)
    for (std::size_t j = 0; 2 * j < W; ++j) {
      r.v[j] = 2 * j + 1 < W
                   ? vld1q_f64(p + 2 * j)
                   : vcombine_f64(vld1_f64(p + 2 * j), vdup_n_f64(0.0));
    }
#endif
  }
  return r;
}

/// Stores lanes [0, W) to p[0..W); nothing past p[W - 1] is written.
template <std::size_t W>
inline void store_n(double* p, const VecN<W>& a) {
  if constexpr (kArrayN<W>) {
    for (std::size_t l = 0; l < W; ++l) p[l] = a.v[l];
  } else {
#if defined(TSBO_SIMD_VECN_YMM)
    for (std::size_t j = 0; 4 * j < W; ++j) {
      const std::size_t n = W - 4 * j;
      if (n >= 4) {
        _mm256_storeu_pd(p + 4 * j, a.v[j]);
      } else {
        _mm256_maskstore_pd(p + 4 * j, mask4(n), a.v[j]);
      }
    }
#elif defined(TSBO_SIMD_NEON)
    for (std::size_t j = 0; 2 * j < W; ++j) {
      if (2 * j + 1 < W) {
        vst1q_f64(p + 2 * j, a.v[j]);
      } else {
        vst1_f64(p + 2 * j, vget_low_f64(a.v[j]));
      }
    }
#endif
  }
}

/// Lane t: a * b[t] + c[t], written with vector operators so the
/// compiler fuses it exactly where it fuses the scalar expression (an
/// FMA from -O2 with FMA hardware, mul then add otherwise): each lane
/// rounds as the scalar loop of the same build.
template <std::size_t W>
inline VecN<W> mul_add_n(double a, const VecN<W>& b, const VecN<W>& c) {
  VecN<W> r{};
  if constexpr (kArrayN<W>) {
    for (std::size_t l = 0; l < W; ++l) r.v[l] = a * b.v[l] + c.v[l];
  } else {
#if defined(TSBO_SIMD_VECN_REG)
    const RegD av = splat(a);
    for (std::size_t j = 0; j < std::size(r.v); ++j) {
      r.v[j] = av * b.v[j] + c.v[j];
    }
#endif
  }
  return r;
}

/// Lane t: b[t] * a.
template <std::size_t W>
inline VecN<W> mul_n(const VecN<W>& b, double a) {
  VecN<W> r{};
  if constexpr (kArrayN<W>) {
    for (std::size_t l = 0; l < W; ++l) r.v[l] = b.v[l] * a;
  } else {
#if defined(TSBO_SIMD_VECN_REG)
    const RegD av = splat(a);
    for (std::size_t j = 0; j < std::size(r.v); ++j) r.v[j] = b.v[j] * av;
#endif
  }
  return r;
}

// ---- horizontal reductions (fixed order) -----------------------------

/// Pairwise fold in fixed order: ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
inline double reduce_add(Vec a) {
  double t[Vec::kLanes];
  store(t, a);
  for (std::size_t width = Vec::kLanes; width > 1; width /= 2) {
    for (std::size_t l = 0; l < width / 2; ++l) {
      t[l] = t[2 * l] + t[2 * l + 1];
    }
  }
  return t[0];
}

/// Same fixed pairwise fold with max (order is moot for max but fixed).
inline double reduce_max(Vec a) {
  double t[Vec::kLanes];
  store(t, a);
  for (std::size_t width = Vec::kLanes; width > 1; width /= 2) {
    for (std::size_t l = 0; l < width / 2; ++l) {
      t[l] = t[2 * l] > t[2 * l + 1] ? t[2 * l] : t[2 * l + 1];
    }
  }
  return t[0];
}

// ---- vectorized error-free transformations ---------------------------
// Per-lane the flop sequences are identical to util/eft.hpp; see the
// header comment for the exactness and determinism contracts.

/// Unevaluated per-lane sum hi + lo (a dd value in every lane).
struct VecDD {
  Vec hi, lo;
};

inline VecDD dd_zero() { return {zero(), zero()}; }

/// Per-lane eft::quick_two_sum (requires |a| >= |b| lane-wise).
inline VecDD vec_quick_two_sum(Vec a, Vec b) {
  const Vec s = add(a, b);
  return {s, sub(b, sub(s, a))};
}

/// Per-lane eft::two_sum (branch-free Knuth).
inline VecDD vec_two_sum(Vec a, Vec b) {
  const Vec s = add(a, b);
  const Vec bb = sub(s, a);
  const Vec err = add(sub(a, sub(s, bb)), sub(b, bb));
  return {s, err};
}

/// Per-lane eft::two_prod (FMA residual).
inline VecDD vec_two_prod(Vec a, Vec b) {
  const Vec p = mul(a, b);
  return {p, fms_exact(a, b, p)};
}

/// Per-lane eft::dd_add(dd&, double), renormalized.
inline void dd_add(VecDD& x, Vec y) {
  const VecDD s = vec_two_sum(x.hi, y);
  x = vec_quick_two_sum(s.hi, add(s.lo, x.lo));
}

/// Per-lane eft::dd_add(dd&, dd) (QD accurate variant), renormalized.
inline void dd_add(VecDD& x, const VecDD& y) {
  VecDD s = vec_two_sum(x.hi, y.hi);
  const VecDD t = vec_two_sum(x.lo, y.lo);
  s = vec_quick_two_sum(s.hi, add(s.lo, t.hi));
  x = vec_quick_two_sum(s.hi, add(s.lo, t.lo));
}

/// Folds the per-lane dd partials into one scalar dd in ascending lane
/// order with the scalar renormalized eft::dd_add.
inline eft::dd reduce(const VecDD& x) {
  double hi[Vec::kLanes], lo[Vec::kLanes];
  store(hi, x.hi);
  store(lo, x.lo);
  eft::dd acc{hi[0], lo[0]};
  for (std::size_t l = 1; l < Vec::kLanes; ++l) {
    eft::dd_add(acc, eft::dd{hi[l], lo[l]});
  }
  return acc;
}

}  // namespace tsbo::simd

namespace tsbo::util {

/// Calls f.template operator()<W>() for the compile-time W == w,
/// 1 <= w <= Max, so a runtime width (a tile or column-chunk tail) runs
/// the same compile-time kernel as a full one; a runtime width would
/// spill its accumulators.  Nest two calls for a two-dimensional tile.
template <auto Max, typename F>
inline void with_width(decltype(Max) w, const F& f) {
  if constexpr (Max > 1) {
    if (w < Max) return with_width<Max - 1>(w, f);
  }
  f.template operator()<Max>();
}

}  // namespace tsbo::util
