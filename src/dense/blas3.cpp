#include "dense/blas3.hpp"

#include "par/config.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsbo::dense {

namespace {
// Row-block height: a 256 x ncols tile of the tall operand stays in L1/L2
// while all columns of the small operand are applied to it.  Divides
// par::kReduceChunk, so reduction chunks are whole numbers of tiles.
constexpr index_t kRowBlock = 256;
static_assert(par::kReduceChunk % static_cast<std::size_t>(kRowBlock) == 0);

// Small-operand (panel-width) tile over gemm_nn's inner dimension, the
// flat panel width, which the block (rhs=k) solver grows to s*k and the
// two-stage flush to bs*k — wide enough that streaming every A column
// per C tile spills L2.  Tiling at 64 columns keeps a 256 x 64 A tile
// (128 KiB) hot across C's columns.  Tile boundaries move no bits: C
// passes through memory between tiles and every element keeps its own
// accumulation chain.
constexpr index_t kColBlock = 64;

// Below this many m * p * n multiply-adds, gemm_tn runs its chunk
// schedule inline instead of fanning the chunks out over the lanes.
// Measured at 2 lanes on a 4-vCPU Sapphire Rapids KVM host (AVX-512),
// best of 300 calls: the stage-1 Gram 32768 x (q0+5) x 5 ran 1.2-1.9x
// faster on the lanes at every q0 in 1..56 (1.0 M to 10.0 M), and
// 32768 x 5 x 5 (0.8 M) 1.3x; 16384 x 5 x 5 (0.4 M) ran 6% slower.
// paper2d_9pt solve times with the bound at 0.5 M and at 1 M were
// indistinguishable.
constexpr std::size_t kGemmTnSerialWork = 1'000'000;

constexpr index_t kW = static_cast<index_t>(simd::kLanes);

// Register tiles, chosen per ISA so the accumulators of one microkernel
// call stay in registers (32 vector registers on AVX-512 and NEON, 16 on
// AVX2; the scalar fallback's Vec is a 4-double array), each shape the
// fastest of a sweep at the ortho shapes (32768 rows, widths 5 to 61):
//   kTnI x kTnJ  gemm_tn outputs, two accumulators each;
//   kNnR x kNnJ  gemm_nn row-vectors x C columns;
//   kTrR x kTrJ  trsm row-vectors x columns of B.
#if defined(TSBO_SIMD_AVX512) || defined(TSBO_SIMD_NEON)
constexpr int kTnI = 4, kTnJ = 2;
constexpr int kNnR = 4, kNnJ = 4;
constexpr int kTrR = 6, kTrJ = 2;
#elif defined(TSBO_SIMD_AVX2)
constexpr int kTnI = 3, kTnJ = 2;
constexpr int kNnR = 2, kNnJ = 4;
constexpr int kTrR = 3, kTrJ = 3;
#else
constexpr int kTnI = 1, kTnJ = 2;
constexpr int kNnR = 2, kNnJ = 2;
constexpr int kTrR = 3, kTrJ = 1;
#endif

// gemm_tn sweeps B in 256 x 8 tiles (16 KiB, L1-resident) so the
// microkernel's B loads hit L1 while A's column blocks stream past.
constexpr index_t kTnColTile = 8;
static_assert(kTnColTile % kTnJ == 0);

// gemm_nn scales a 64 x 16 block of B by alpha once per row tile into a
// stack buffer the microkernel broadcasts from.
constexpr index_t kNnCoefCols = 16;
static_assert(kNnCoefCols % kNnJ == 0);

// Tile positions (multiples of kRowBlock) and the vector/tail split
// within a tile depend only on the problem size, never on the thread
// partition, so mixing fused vector lanes with scalar tails stays
// bit-stable across thread counts.

/// Shared GEMM prologue: C := beta * C.  beta == 0 overwrites (clearing
/// NaN/Inf) rather than multiplying.  Threaded over rows for tall C.
void scale_columns(double beta, MatrixView c) {
  if (beta == 1.0 || c.rows == 0 || c.cols == 0) return;
  const simd::Vec vb = simd::set1(beta);
  par::parallel_for_grained(
      static_cast<std::size_t>(c.rows), [&](std::size_t b, std::size_t e) {
        const auto nb = static_cast<index_t>(e - b);
        for (index_t j = 0; j < c.cols; ++j) {
          double* cj = c.col(j) + static_cast<index_t>(b);
          if (beta == 0.0) {
            std::fill_n(cj, nb, 0.0);
          } else {
            index_t i = 0;
            for (; i + kW <= nb; i += kW) {
              simd::store(cj + i, simd::mul(vb, simd::load(cj + i)));
            }
            for (; i < nb; ++i) cj[i] *= beta;
          }
        }
      });
}

inline std::size_t offset(index_t i, index_t ld) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
}

/// part(i, j) += a(:, i) . b(:, j) over nb rows for an I x J block of
/// outputs (a: I columns, b: J columns; part has leading dimension ldp).
/// Each output has its own two vector accumulators, alternating over
/// 2*kW row steps, a single trailing kW step into the first, folded as
/// reduce_add(va + vb), then the scalar tail: the arithmetic of a lone
/// dot product, whatever the block shape.  Each vector of b is loaded
/// once per row step and shared by the I outputs of its column.
template <int I, int J>
inline void dot_tile(const double* a, index_t lda, const double* b,
                     index_t ldb, index_t nb, double* part, index_t ldp) {
  simd::Vec va[I][J], vb[I][J];
  for (int i = 0; i < I; ++i) {
    for (int j = 0; j < J; ++j) va[i][j] = vb[i][j] = simd::zero();
  }
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    simd::Vec x0[I], x1[I];
    for (int i = 0; i < I; ++i) {
      x0[i] = simd::load(a + offset(i, lda) + r);
      x1[i] = simd::load(a + offset(i, lda) + r + kW);
    }
    for (int j = 0; j < J; ++j) {
      const simd::Vec y0 = simd::load(b + offset(j, ldb) + r);
      const simd::Vec y1 = simd::load(b + offset(j, ldb) + r + kW);
      for (int i = 0; i < I; ++i) {
        va[i][j] = simd::mul_add(x0[i], y0, va[i][j]);
        vb[i][j] = simd::mul_add(x1[i], y1, vb[i][j]);
      }
    }
  }
  if (r + kW <= nb) {
    for (int j = 0; j < J; ++j) {
      const simd::Vec y0 = simd::load(b + offset(j, ldb) + r);
      for (int i = 0; i < I; ++i) {
        va[i][j] = simd::mul_add(simd::load(a + offset(i, lda) + r), y0,
                                 va[i][j]);
      }
    }
    r += kW;
  }
  for (int j = 0; j < J; ++j) {
    const double* bj = b + offset(j, ldb);
    for (int i = 0; i < I; ++i) {
      const double* ai = a + offset(i, lda);
      double t = simd::reduce_add(simd::add(va[i][j], vb[i][j]));
      for (index_t q = r; q < nb; ++q) t += ai[q] * bj[q];
      part[offset(j, ldp) + static_cast<std::size_t>(i)] += t;
    }
  }
}

/// c(:, j) += coef(l, j) * a(:, l) for l in [0, nl), over RV * kW rows
/// and J columns of C (coef: l-major, row stride kNnCoefCols).  The C
/// block stays in registers while l runs, so each element is one FMA
/// chain in ascending l; every step costs one load of a per row-vector
/// and one broadcast per column.
template <int RV, int J>
inline void update_tile(const double* a, index_t lda, index_t nl,
                        const double* coef, double* c, index_t ldc) {
  simd::Vec acc[RV][J];
  for (int j = 0; j < J; ++j) {
    for (int v = 0; v < RV; ++v) {
      acc[v][j] = simd::load(c + offset(j, ldc) + v * kW);
    }
  }
  for (index_t l = 0; l < nl; ++l) {
    const double* al = a + offset(l, lda);
    simd::Vec x[RV];
    for (int v = 0; v < RV; ++v) x[v] = simd::load(al + v * kW);
    const double* cl = coef + offset(l, kNnCoefCols);
    for (int j = 0; j < J; ++j) {
      const simd::Vec s = simd::set1(cl[j]);
      for (int v = 0; v < RV; ++v) {
        acc[v][j] = simd::mul_add(s, x[v], acc[v][j]);
      }
    }
  }
  for (int j = 0; j < J; ++j) {
    for (int v = 0; v < RV; ++v) {
      simd::store(c + offset(j, ldc) + v * kW, acc[v][j]);
    }
  }
}

/// Columns [j0, j0 + J) of B := B U^{-1} over RV * kW rows (b: the rows'
/// column 0), with the earlier columns already final in memory.  Each
/// element is an FMA chain with -u(l, j) in ascending l that skips
/// u(l, j) == 0, ended by a multiply by 1/u(j, j); the block's own
/// columns feed its later ones from registers.
template <int RV, int J>
inline void trsm_tile(ConstMatrixView u, double* b, index_t ldb, index_t j0) {
  simd::Vec acc[RV][J];
  for (int j = 0; j < J; ++j) {
    for (int v = 0; v < RV; ++v) {
      acc[v][j] = simd::load(b + offset(j0 + j, ldb) + v * kW);
    }
  }
  for (index_t l = 0; l < j0; ++l) {
    const double* bl = b + offset(l, ldb);
    simd::Vec x[RV];
    for (int v = 0; v < RV; ++v) x[v] = simd::load(bl + v * kW);
    for (int j = 0; j < J; ++j) {
      const double ulj = u(l, j0 + j);
      if (ulj == 0.0) continue;
      const simd::Vec s = simd::set1(-ulj);
      for (int v = 0; v < RV; ++v) {
        acc[v][j] = simd::mul_add(s, x[v], acc[v][j]);
      }
    }
  }
  for (int j = 0; j < J; ++j) {
    for (int l = 0; l < j; ++l) {
      const double ulj = u(j0 + l, j0 + j);
      if (ulj == 0.0) continue;
      const simd::Vec s = simd::set1(-ulj);
      for (int v = 0; v < RV; ++v) {
        acc[v][j] = simd::mul_add(s, acc[v][l], acc[v][j]);
      }
    }
    const simd::Vec vinv = simd::set1(1.0 / u(j0 + j, j0 + j));
    for (int v = 0; v < RV; ++v) {
      acc[v][j] = simd::mul(vinv, acc[v][j]);
      simd::store(b + offset(j0 + j, ldb) + v * kW, acc[v][j]);
    }
  }
}

/// cj[0, nb) += b0 * a0[0, nb) + b1 * a1[0, nb), fused per element.
inline void fused_axpy2(double b0, const double* a0, double b1,
                        const double* a1, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  const simd::Vec v1 = simd::set1(b1);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::Vec acc = simd::load(cj + i);
    acc = simd::mul_add(v0, simd::load(a0 + i), acc);
    acc = simd::mul_add(v1, simd::load(a1 + i), acc);
    simd::store(cj + i, acc);
  }
  for (; i < nb; ++i) {
    cj[i] = simd::mul_add(b1, a1[i], simd::mul_add(b0, a0[i], cj[i]));
  }
}

/// cj[0, nb) += b0 * a0[0, nb), fused per element.
inline void fused_axpy1(double b0, const double* a0, double* cj, index_t nb) {
  const simd::Vec v0 = simd::set1(b0);
  index_t i = 0;
  for (; i + kW <= nb; i += kW) {
    simd::store(cj + i,
                simd::mul_add(v0, simd::load(a0 + i), simd::load(cj + i)));
  }
  for (; i < nb; ++i) cj[i] = simd::mul_add(b0, a0[i], cj[i]);
}

inline double dot1(const double* a0, const double* bj, index_t nb) {
  simd::Vec v0a = simd::zero(), v0b = simd::zero();
  index_t r = 0;
  for (; r + 2 * kW <= nb; r += 2 * kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
    v0b = simd::mul_add(simd::load(a0 + r + kW), simd::load(bj + r + kW), v0b);
  }
  for (; r + kW <= nb; r += kW) {
    v0a = simd::mul_add(simd::load(a0 + r), simd::load(bj + r), v0a);
  }
  double s = simd::reduce_add(simd::add(v0a, v0b));
  for (; r < nb; ++r) s += a0[r] * bj[r];
  return s;
}

}  // namespace

void gemm_nn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.rows == c.rows && a.cols == b.rows && b.cols == c.cols);
  const index_t m = a.rows, k = a.cols, n = b.cols;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;

  // Output rows are disjoint across threads, and the accumulation order
  // along k for each (i, j) is fixed, so any row partition is exact.
  par::parallel_for_tiles(
      static_cast<std::size_t>(m), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto r0lo = static_cast<index_t>(rb);
        const auto r0hi = static_cast<index_t>(re);
        double coef[kColBlock * kNnCoefCols];
        for (index_t i0 = r0lo; i0 < r0hi; i0 += kRowBlock) {
          const index_t ib = std::min(kRowBlock, r0hi - i0);
          const index_t nvec = ib / kW;
          // Inner-dimension tiles: the 256 x 64 A tile stays hot across
          // all of C's columns; C passes through memory between tiles,
          // which keeps every element's chain in ascending l.
          for (index_t l0 = 0; l0 < k; l0 += kColBlock) {
            const index_t nl = std::min(kColBlock, k - l0);
            for (index_t jt = 0; jt < n; jt += kNnCoefCols) {
              const index_t njt = std::min(kNnCoefCols, n - jt);
              for (index_t l = 0; l < nl; ++l) {
                for (index_t j = 0; j < njt; ++j) {
                  coef[offset(l, kNnCoefCols) + j] = alpha * b(l0 + l, jt + j);
                }
              }
              const double* al0 = a.col(l0) + i0;
              for (index_t v0 = 0; v0 < nvec; v0 += kNnR) {
                const index_t nv = std::min<index_t>(kNnR, nvec - v0);
                for (index_t j0 = 0; j0 < njt; j0 += kNnJ) {
                  util::with_width<kNnR>(nv, [&]<int RV>() {
                    util::with_width<kNnJ>(
                        std::min<index_t>(kNnJ, njt - j0), [&]<int J>() {
                          update_tile<RV, J>(al0 + v0 * kW, a.ld, nl,
                                             coef + j0,
                                             c.col(jt + j0) + i0 + v0 * kW,
                                             c.ld);
                        });
                  });
                }
              }
              // Rows past the last whole vector: the same chains, scalar.
              for (index_t j = 0; j < njt; ++j) {
                double* cj = c.col(jt + j) + i0;
                for (index_t i = nvec * kW; i < ib; ++i) {
                  const double* ai = al0 + i;
                  double t = cj[i];
                  for (index_t l = 0; l < nl; ++l) {
                    t = simd::mul_add(coef[offset(l, kNnCoefCols) + j],
                                      ai[offset(l, a.ld)], t);
                  }
                  cj[i] = t;
                }
              }
            }
          }
        }
      });
}

namespace {

/// C += alpha * [A0 A1]^T B over the fixed chunk schedule, after the
/// caller's beta prologue.  The A operand comes from two column
/// sources: rows [0, A0.cols) of C from A0, rows [A0.cols, p) from A1.
/// Each source runs its own register-tile sweep, so no tile straddles
/// the two and they need not be adjacent in memory.  With `upper`,
/// A1 == B and the A1 x B block is symmetric: tiles wholly below its
/// diagonal are skipped, and that block's strict lower triangle is
/// mirrored from the upper one after the combine.
void tn_product(double alpha, ConstMatrixView a0, ConstMatrixView a1,
                ConstMatrixView b, bool upper, MatrixView c) {
  const index_t m = b.rows, nq = a0.cols, p = nq + a1.cols, n = b.cols;
  assert(c.rows == p && c.cols == n && a1.rows == m);
  assert(nq == 0 || a0.rows == m);
  if (alpha == 0.0 || m == 0 || p == 0 || n == 0) return;

  // Deterministic chunked reduction over the long row dimension: one
  // p x n partial Gram block per fixed chunk (bounds depend only on m),
  // combined in ascending chunk order.  Both execution paths below run
  // the identical chunk schedule, so results are bitwise independent of
  // the thread count.
  const std::size_t pn =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(n);
  const std::size_t nchunks =
      par::reduce_chunk_count(static_cast<std::size_t>(m));

  // Accumulates rows [rlo, rhi) of the Gram block into `part`
  // (column-major p x n).  Each part(i, j) receives exactly one addend
  // per r0 tile, in ascending r0 order, whatever the register tiling.
  const auto accumulate = [&](double* part, index_t rlo, index_t rhi) {
    for (index_t r0 = rlo; r0 < rhi; r0 += kRowBlock) {
      const index_t nb = std::min(kRowBlock, rhi - r0);
      // Output-column tiles over B: the 256 x kTnColTile B tile stays in
      // L1 while every A column block streams past it once.
      for (index_t jt = 0; jt < n; jt += kTnColTile) {
        const index_t jhi = std::min(n, jt + kTnColTile);
        const auto sweep = [&](ConstMatrixView a, index_t base, bool tri) {
          // In the symmetric block, A columns at or past jhi only meet
          // B columns below the diagonal.
          const index_t ihi = tri ? std::min(a.cols, jhi) : a.cols;
          for (index_t i0 = 0; i0 < ihi; i0 += kTnI) {
            const index_t ni = std::min<index_t>(kTnI, a.cols - i0);
            for (index_t j0 = jt; j0 < jhi; j0 += kTnJ) {
              const index_t nj = std::min<index_t>(kTnJ, jhi - j0);
              if (tri && i0 >= j0 + nj) continue;  // wholly below diagonal
              util::with_width<kTnI>(ni, [&]<int I>() {
                util::with_width<kTnJ>(nj, [&]<int J>() {
                  dot_tile<I, J>(a.col(i0) + r0, a.ld, b.col(j0) + r0, b.ld,
                                 nb, part + offset(j0, p) + base + i0, p);
                });
              });
            }
          }
        };
        sweep(a0, 0, false);
        sweep(a1, nq, upper);
      }
    }
  };
  const auto combine = [&](const double* part) {
    for (index_t j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* pj = part + static_cast<std::size_t>(j) * p;
      for (index_t i = 0; i < p; ++i) cj[i] += alpha * pj[i];
    }
  };
  const auto mirror = [&] {
    if (!upper) return;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j + 1; i < n; ++i) c(nq + i, j) = c(nq + j, i);
    }
  };

  // Small shapes run the same chunk schedule inline, folding each chunk
  // through one reused partial block in ascending order (arithmetic
  // identical to the threaded combine): below kGemmTnSerialWork, pool
  // dispatch and the nchunks * pn partial buffer cost more than the
  // lanes save.
  if (static_cast<std::size_t>(m) * pn < kGemmTnSerialWork) {
    util::aligned_vector<double> part(pn);
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
      std::fill(part.begin(), part.end(), 0.0);
      const auto rlo = static_cast<index_t>(ci * par::kReduceChunk);
      const auto rhi = static_cast<index_t>(
          std::min((ci + 1) * par::kReduceChunk, static_cast<std::size_t>(m)));
      accumulate(part.data(), rlo, rhi);
      combine(part.data());
    }
    mirror();
    return;
  }

  // Pad each per-chunk partial block to a 64-byte boundary so chunks
  // written by different threads never share a cache line; the combine
  // reads only the first pn entries of each block.  A single-lane
  // caller runs these chunks inline too.
  const std::size_t stride = (pn + 7) & ~std::size_t{7};
  util::aligned_vector<double> partials(nchunks * stride, 0.0);
  par::for_reduce_chunks(
      static_cast<std::size_t>(m),
      [&](std::size_t ci, std::size_t rb, std::size_t re) {
        accumulate(partials.data() + ci * stride, static_cast<index_t>(rb),
                   static_cast<index_t>(re));
      });
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    combine(partials.data() + ci * stride);
  }
  mirror();
}

}  // namespace

void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.cols == c.rows && a.rows == b.rows && b.cols == c.cols);
  scale_columns(beta, c);
  tn_product(alpha, ConstMatrixView{nullptr, a.rows, 0, a.rows}, a, b, false,
             c);
}

void gram_tn(ConstMatrixView q, ConstMatrixView v, MatrixView g) {
  assert(g.rows == q.cols + v.cols && g.cols == v.cols);
  scale_columns(0.0, g);
  tn_product(1.0, q, v, v, true, g);
}

void gemm_nt(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  assert(a.rows == c.rows && a.cols == b.cols && b.rows == c.cols);
  const index_t m = a.rows, k = a.cols, n = b.rows;
  scale_columns(beta, c);
  if (alpha == 0.0 || k == 0) return;
  par::parallel_for_tiles(
      static_cast<std::size_t>(m), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto rlo = static_cast<index_t>(rb);
        const auto nb = static_cast<index_t>(re - rb);
        for (index_t j = 0; j < n; ++j) {
          double* cj = c.col(j) + rlo;
          index_t l = 0;
          for (; l + 1 < k; l += 2) {
            fused_axpy2(alpha * b(j, l), a.col(l) + rlo, alpha * b(j, l + 1),
                        a.col(l + 1) + rlo, cj, nb);
          }
          for (; l < k; ++l) {
            fused_axpy1(alpha * b(j, l), a.col(l) + rlo, cj, nb);
          }
        }
      });
}

void trsm_right_upper(ConstMatrixView u, MatrixView b) {
  assert(u.rows == u.cols && u.cols == b.cols);
  const index_t n = b.rows, s = b.cols;
  // Row-tiled: the i0-tile of all s columns stays in cache through the
  // whole triangular sweep.  An untiled sweep re-streams the tall panel
  // O(s) times, which dominates at the two-stage big-panel width.
  // Rows never interact in B := B U^{-1}, so tiles run in parallel.
  par::parallel_for_tiles(
      static_cast<std::size_t>(n), static_cast<std::size_t>(kRowBlock),
      [&](std::size_t rb, std::size_t re) {
        const auto rlo = static_cast<index_t>(rb);
        const auto rhi = static_cast<index_t>(re);
        for (index_t i0 = rlo; i0 < rhi; i0 += kRowBlock) {
          const index_t ib = std::min(kRowBlock, rhi - i0);
          const index_t nvec = ib / kW;
          // Row strips of kTrR vectors sweep all s columns, kTrJ at a
          // time, while the strip's finished columns stay in L1.
          for (index_t v0 = 0; v0 < nvec; v0 += kTrR) {
            const index_t nv = std::min<index_t>(kTrR, nvec - v0);
            double* strip = b.data + i0 + v0 * kW;
            for (index_t j0 = 0; j0 < s; j0 += kTrJ) {
              util::with_width<kTrR>(nv, [&]<int RV>() {
                util::with_width<kTrJ>(
                    std::min<index_t>(kTrJ, s - j0),
                    [&]<int J>() { trsm_tile<RV, J>(u, strip, b.ld, j0); });
              });
            }
          }
          // Rows past the last whole vector: the same chains, scalar.
          for (index_t i = i0 + nvec * kW; i < i0 + ib; ++i) {
            for (index_t j = 0; j < s; ++j) {
              double t = b(i, j);
              for (index_t l = 0; l < j; ++l) {
                const double ulj = u(l, j);
                if (ulj == 0.0) continue;
                t = simd::mul_add(-ulj, b(i, l), t);
              }
              b(i, j) = t * (1.0 / u(j, j));
            }
          }
        }
      });
}

double frobenius_norm(ConstMatrixView a) {
  // One chunked reduction over the row dimension covering all columns
  // per chunk: a single pool dispatch, deterministic because the chunk
  // bounds are fixed and partials combine in ascending order.
  const auto m = static_cast<std::size_t>(a.rows);
  const std::size_t nchunks = par::reduce_chunk_count(m);
  if (a.cols == 0 || nchunks == 0) return 0.0;
  util::aligned_vector<double> partials(nchunks, 0.0);
  par::for_reduce_chunks(m, [&](std::size_t ci, std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (index_t j = 0; j < a.cols; ++j) {
      const double* col = a.col(j) + b;
      acc += dot1(col, col, static_cast<index_t>(e - b));
    }
    partials[ci] = acc;
  });
  double s = 0.0;
  for (const double p : partials) s += p;
  return std::sqrt(s);
}

}  // namespace tsbo::dense
