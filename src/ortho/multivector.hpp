#pragma once
// Distributed tall-skinny multivector primitives.
//
// Basis vectors are stored as rank-local row blocks (1-D block row
// layout, paper Section VII) of a column-major panel.  The primitives
// here are the paper's three orthogonalization building blocks:
//   * block dot products  R = Q^T V   (local GEMM + one global reduce)
//   * vector updates      V -= Q R    (local GEMM, no communication)
//   * normalization       V := V R^{-1} (local TRSM, no communication)
// plus the fused Gram matrix [Q, V]^T V that makes BCGS-PIP a
// *single-reduce* algorithm, and a breakdown-aware Cholesky wrapper.
//
// Every routine is collective across the communicator in OrthoContext;
// with a null communicator the same code runs single-rank (used by the
// MATLAB-style numerical studies of Figs. 6-8).

#include "dense/cholesky.hpp"
#include "dense/matrix.hpp"
#include "par/communicator.hpp"
#include "util/timer.hpp"

#include <stdexcept>
#include <string>

namespace tsbo::ortho {

using dense::ConstMatrixView;
using dense::index_t;
using dense::MatrixView;
using util::Phase;
using util::ScopedPhase;

/// What to do when the Cholesky factorization of a Gram matrix breaks
/// down (input condition number past ~eps^{-1/2}, paper condition (1)).
enum class BreakdownPolicy {
  kThrow,  ///< raise CholeskyBreakdown (numerical studies want to see it)
  kShift,  ///< retry with a diagonal shift (Fukaya et al. [11] remedy)
};

/// Raised on unrecoverable Gram-matrix breakdown.
class CholeskyBreakdown : public std::runtime_error {
 public:
  explicit CholeskyBreakdown(const std::string& what)
      : std::runtime_error(what) {}
};

/// Shared knobs + instrumentation for every orthogonalization call.
struct OrthoContext {
  par::Communicator* comm = nullptr;   ///< null -> single-rank execution
  util::PhaseTimers* timers = nullptr; ///< optional phase breakdown
  BreakdownPolicy policy = BreakdownPolicy::kThrow;
  /// Accumulate Gram matrices in double-double AND keep them in
  /// double-double through the Cholesky factorization (mixed-precision
  /// CholQR extension, paper related work [26]/[27]).  Contract: with
  /// this set, CholQR2 / BCGS-PIP deliver O(eps) orthogonality for
  /// kappa(V) up to ~1e15 (u_dd^{-1/2}) instead of ~1e8 (eps^{-1/2});
  /// only the triangular factor is rounded back to double, for the
  /// TRSM.  Costs ~5-10x the plain local Gram flops and 2x the reduce
  /// payload; the synchronization count is unchanged.
  bool mixed_precision_gram = false;

  // Instrumentation (mutated by the kernels).
  int cholesky_breakdowns = 0;  ///< failures seen (before recovery)
  int shift_retries = 0;        ///< shifted re-factorizations performed

  // --- Conditioning monitor (stability-autopilot input) ---------------
  // Every successful Gram Cholesky records a free conditioning estimate
  // from its triangular factor's diagonal,
  //     est = (max_i |r_ii| / min_i |r_ii|)^2  <=  kappa_2(G),
  // so sqrt(est) lower-bounds the basis condition number kappa_2(V)
  // the paper's conditions (1)/(5)/(9) constrain.  The factor is
  // computed from the *globally reduced* (rank-replicated) Gram, so the
  // estimate is bitwise-identical on every rank at any thread count —
  // safe to branch on without extra communication.  Note: schemes whose
  // intra-block step never factors a Gram (HHQR) contribute nothing.
  double last_gram_kappa = 0.0;  ///< estimate from the latest factorization
  double gram_kappa_peak = 0.0;  ///< running max since the last take_*()
  /// Returns the running peak and resets it; the s-step solver polls
  /// this once per panel (the stage-1 factorization dominates the peak;
  /// re-orthogonalization passes see O(1)-conditioned Grams).
  double take_gram_kappa_peak() {
    const double peak = gram_kappa_peak;
    gram_kappa_peak = 0.0;
    return peak;
  }

  [[nodiscard]] int nranks() const { return comm ? comm->size() : 1; }
};

/// Exception-safe override of ctx.mixed_precision_gram for one pass.
/// The re-orthogonalization passes of the *2 algorithms use it to drop
/// to plain double once a clean first pass has left kappa(Q) = O(1) —
/// the dd Gram's 5-10x cost buys no stability there.
class ScopedGramPrecision {
 public:
  ScopedGramPrecision(OrthoContext& ctx, bool value)
      : ctx_(ctx), saved_(ctx.mixed_precision_gram) {
    ctx_.mixed_precision_gram = value;
  }
  ~ScopedGramPrecision() { ctx_.mixed_precision_gram = saved_; }
  ScopedGramPrecision(const ScopedGramPrecision&) = delete;
  ScopedGramPrecision& operator=(const ScopedGramPrecision&) = delete;

 private:
  OrthoContext& ctx_;
  bool saved_;
};

/// C = A^T B followed by a global sum-reduce of C.  One synchronization.
/// With ctx.mixed_precision_gram the local product is accumulated in
/// double-double but rounded to double before the reduce — use
/// block_dot_dd when the downstream consumer (a Cholesky) needs the
/// extended precision to survive.
void block_dot(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
               MatrixView c);

/// Pair-form block dot: C = A^T B accumulated in double-double and
/// returned unrounded as c_hi + c_lo, including across ranks (one
/// fused dd all-reduce == one synchronization).  Feed the pair into
/// chol_factor_dd to run mixed-precision CholQR end to end.
void block_dot_dd(OrthoContext& ctx, ConstMatrixView a, ConstMatrixView b,
                  MatrixView c_hi, MatrixView c_lo);

/// G = [Q, V]^T V in a single reduce: G is (q + s) x s where q = Q.cols,
/// s = V.cols.  Rows [0, q) hold Q^T V; rows [q, q+s) hold V^T V.
/// This is the Pythagorean trick that gives BCGS-PIP its single
/// synchronization (paper Fig. 4a line 1).  The local product is one
/// dense::gram_tn call: one pass over Q and V, and V^T V summed as its
/// upper triangle and mirrored (bits equal to two gemm_tn calls).
void fused_gram(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                MatrixView g);

/// Pair-form fused Gram G = [Q, V]^T V (same layout as fused_gram) in
/// double-double, one fused dd all-reduce.  Used by the mixed-precision
/// BCGS-PIP path so the Pythagorean update and Cholesky stay in dd.
void fused_gram_dd(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView v,
                   MatrixView g_hi, MatrixView g_lo);

/// V -= Q * C.  Local GEMM; no communication.
void block_update(OrthoContext& ctx, ConstMatrixView q, ConstMatrixView c,
                  MatrixView v);

/// V := V * R^{-1}.  Local TRSM; no communication.
void block_scale(OrthoContext& ctx, ConstMatrixView r, MatrixView v);

/// Breakdown-aware Cholesky of the (small, replicated) Gram matrix g;
/// overwrites g with the upper factor.  Under kShift, retries with
/// progressively larger diagonal shifts (never more than 3 attempts);
/// under kThrow, raises CholeskyBreakdown naming `what`.  Consults the
/// `gram.chol` fault site once per call, before any factor attempt: a
/// corrupt there makes the factorization report indefinite.
void chol_factor(OrthoContext& ctx, MatrixView g, const std::string& what);

/// Double-double counterpart of chol_factor: factors the pair-form
/// Gram g_hi + g_lo entirely in dd (valid for kappa(G) up to ~u_dd^{-1}
/// ~ 2e31, i.e. kappa(V) up to ~1e15) and leaves R in pair form in
/// g_hi/g_lo; round with dense::dd_round for the working-precision
/// TRSM.  Under kShift, retries with diagonal shifts sized to
/// u_dd * ||G|| (not eps * ||G||), so recovery perturbs ~1e16x less
/// than the double path.
void chol_factor_dd(OrthoContext& ctx, MatrixView g_hi, MatrixView g_lo,
                    const std::string& what);

/// ||x||_2 across ranks (one reduce).
double global_norm(OrthoContext& ctx, std::span<const double> x);

/// Restart-boundary reduce of a residual block R (b = R.cols columns):
/// g (b x b) receives the Gram R^T R in ONE reduce, so column t's norm
/// is sqrt(g(t, t)) and the seed factor needs no further sync.  One
/// column takes the vector path — the deterministic sumsq plus scalar
/// all-reduce of global_norm, whose bits sqrt(g(0, 0)) reproduces.
void residual_gram(OrthoContext& ctx, ConstMatrixView r, MatrixView g);

/// Seeds a restart cycle from residual_gram's g: writes the orthonormal
/// block Q0 = R S0^{-1} to q and overwrites g with S0, the right-hand
/// side factor of the cycle's least-squares problem.  Wider blocks
/// factor S0 = chol(G) (one Gram Cholesky); one column is q = r / gamma
/// with S0 = gamma = ||r||, a scaling that consumes no `gram.chol`
/// fault ordinal.
void seed_block(OrthoContext& ctx, ConstMatrixView r, MatrixView g,
                MatrixView q);

}  // namespace tsbo::ortho
