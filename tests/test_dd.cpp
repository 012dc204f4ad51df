// Double-double layer: EFT exactness identities, normalization
// invariants, dd Cholesky beyond the double range, the CholQR2+dd
// conditioning boundary (paper related work [26]/[27]), and
// parallel-vs-serial bitwise equality of gemm_tn_dd.

#include "ortho_kappa_sweep.hpp"

#include "api/registry.hpp"
#include "dense/blas3.hpp"
#include "dense/dd.hpp"
#include "dense/svd.hpp"
#include "ortho/intra.hpp"
#include "par/config.hpp"
#include "par/spmd.hpp"
#include "synth/synthetic.hpp"
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;
using dense::dd;
using dense::index_t;
using dense::Matrix;

constexpr double kEps = std::numeric_limits<double>::epsilon();

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  util::fill_normal(rng, m.data());
  return m;
}

// ---------------------------------------------------------------------------
// EFT exactness identities.
// ---------------------------------------------------------------------------

TEST(Eft, TwoSumResidualIsExactAtModerateExponentGaps) {
  // With an exponent gap <= 10 the exact sum of two doubles fits in the
  // 64-bit x87 long double mantissa, so the identity a + b == s + err
  // can be checked exactly against it.
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 1000; ++trial) {
    const double a = rng.normal() * std::ldexp(1.0, trial % 11);
    const double b = rng.normal();
    const dd r = dense::two_sum(a, b);
    const long double exact =
        static_cast<long double>(a) + static_cast<long double>(b);
    EXPECT_EQ(static_cast<long double>(r.hi) + static_cast<long double>(r.lo),
              exact);
  }
}

TEST(Eft, TwoSumRecoversSwampedAddend) {
  // Exponent gap >> 53: the addend vanishes from the rounded sum and
  // must reappear *exactly* in the residual.
  const dd r = dense::two_sum(1e20, 3.0);
  EXPECT_EQ(r.hi, 1e20);
  EXPECT_EQ(r.lo, 3.0);
  const dd q = dense::two_sum(1.0, kEps / 4.0);
  EXPECT_EQ(q.hi, 1.0);
  EXPECT_EQ(q.lo, kEps / 4.0);
}

TEST(Eft, TwoProdMatchesDekkerSplit) {
  // The FMA residual must agree bit-for-bit with Dekker's split-based
  // error-free product (the pre-FMA reference construction).
  const auto dekker = [](double a, double b) {
    constexpr double split = 134217729.0;  // 2^27 + 1
    const double ta = split * a, tb = split * b;
    const double ahi = ta - (ta - a), bhi = tb - (tb - b);
    const double alo = a - ahi, blo = b - bhi;
    const double p = a * b;
    const double err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo;
    return dd{p, err};
  };
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const double a = rng.normal() * std::ldexp(1.0, trial % 40);
    const double b = rng.normal();
    const dd fma = dense::two_prod(a, b);
    const dd ref = dekker(a, b);
    EXPECT_EQ(fma.hi, ref.hi);
    EXPECT_EQ(fma.lo, ref.lo);
  }
}

TEST(Eft, DdAddKeepsResultNormalized) {
  // |lo| <= ulp(hi) after every accumulate — the invariant the seed
  // implementation violated (its low word drifted unrenormalized).
  const auto ulp = [](double x) {
    const double ax = std::abs(x);
    return std::nextafter(ax, std::numeric_limits<double>::infinity()) - ax;
  };
  util::Xoshiro256 rng(3);
  dd acc;
  for (int trial = 0; trial < 5000; ++trial) {
    dense::dd_add(acc, rng.normal() * std::ldexp(1.0, trial % 60 - 30));
    if (acc.hi != 0.0) {
      EXPECT_LE(std::abs(acc.lo), ulp(acc.hi)) << "trial " << trial;
    }
  }
}

TEST(Eft, AccumulationSurvivesCatastrophicCancellation) {
  // 1e16 swamps 1e-8 in plain double (ulp(1e16) = 2), so the double sum
  // of this sequence collapses to 0; the dd accumulation must recover
  // the 1e-5 remainder to near dd precision.
  dd acc;
  double plain = 0.0;
  dense::dd_add(acc, 1e16);
  plain += 1e16;
  for (int k = 0; k < 1000; ++k) {
    dense::dd_add(acc, 1e-8);
    plain += 1e-8;
  }
  dense::dd_add(acc, -1e16);
  plain += -1e16;
  EXPECT_EQ(plain, 0.0);
  EXPECT_NEAR(dense::dd_to_double(acc), 1e-5, 1e-17);
}

TEST(Eft, MulDivSqrtRoundtrip) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const dd x = dense::two_sum(std::abs(rng.normal()) + 0.5,
                                rng.normal() * 1e-18);
    const dd y = dense::two_sum(std::abs(rng.normal()) + 0.5,
                                rng.normal() * 1e-18);
    // (x / y) * y == x to ~u_dd.
    const dd q = dense::dd_mul(dense::dd_div(x, y), y);
    EXPECT_NEAR(dense::dd_to_double(dense::dd_sub(q, x)), 0.0,
                1e-29 * std::abs(x.hi));
    // sqrt(x)^2 == x to ~u_dd.
    const dd s = dense::dd_sqrt(x);
    const dd sq = dense::dd_mul(s, s);
    EXPECT_NEAR(dense::dd_to_double(dense::dd_sub(sq, x)), 0.0,
                1e-29 * std::abs(x.hi));
  }
}

// ---------------------------------------------------------------------------
// dd Cholesky: succeeds where the double factorization must fail.
// ---------------------------------------------------------------------------

TEST(PotrfDd, FactorsGramBeyondTheDoubleCliff) {
  // kappa(V) = 1e10 => kappa(V^T V) = 1e20 > 1/eps: the double
  // Cholesky sees an indefinite matrix even though the Gram was
  // accumulated in dd, while the dd factorization still has ~11
  // digits of headroom (u_dd^{-1} ~ 2e31).
  const index_t n = 800, s = 5;
  const Matrix v = synth::logscaled(n, s, 1e10, 7);
  Matrix g_hi(s, s), g_lo(s, s);
  dense::gemm_tn_dd(v.view(), v.view(), g_hi.view(), g_lo.view());

  Matrix g_double(s, s);
  dense::dd_round(g_hi.view(), g_lo.view(), g_double.view());
  // The trailing pivot's exact value is sigma_min(V)^2 ~ 1e-20 ||G||,
  // four orders below the O(eps ||G||) rounding noise of the double
  // sweep — so whether the double factorization *detects* breakdown is
  // a per-build coin flip on the noise sign (the SIMD build's fused
  // contractions flip it).  The build-stable pin: if it completes, its
  // trailing pivot is noise (far above the true value the dd
  // factorization recovers below).
  Matrix g_double_copy = dense::copy_of(g_double.view());
  const bool double_ok = dense::potrf_upper(g_double_copy.view()).ok();

  ASSERT_TRUE(dense::potrf_upper_dd(g_hi.view(), g_lo.view()).ok());
  const double pivot_dd = g_hi(s - 1, s - 1);
  const double gnorm = dense::one_norm(g_double.view());
  // dd pivot is the accurate sigma_min-level value, well below the
  // double noise floor of sqrt(eps ||G||) ~ 1e-8.
  EXPECT_LT(pivot_dd * pivot_dd, 1e-2 * kEps * gnorm);
  if (double_ok) {
    const double pivot_double = g_double_copy(s - 1, s - 1);
    EXPECT_GT(pivot_double, 10.0 * pivot_dd)
        << "a completed double factorization can only carry a "
           "noise-level trailing pivot here";
  }

  // Rounded R reconstructs the Gram matrix to working precision.
  Matrix r(s, s);
  dense::dd_round(g_hi.view(), g_lo.view(), r.view());
  Matrix rtr(s, s);
  dense::gemm_tn(1.0, r.view(), r.view(), 0.0, rtr.view());
  EXPECT_LT(dense::max_abs_diff(rtr.view(), g_double.view()),
            1e-13 * dense::one_norm(g_double.view()));
}

// ---------------------------------------------------------------------------
// The CholQR2 + dd-Gram conditioning range (the paper's mixed-precision
// related work, and this repo's MixedPrecision seed test at kappa 3e9).
// ---------------------------------------------------------------------------

TEST(CholQr2Dd, KappaSweepExtendsRangePastEpsHalf) {
  // Plain CholQR2 is limited to kappa < eps^{-1/2} ~ 6.7e7; the dd
  // Gram + dd Cholesky extend the usable range to ~1e15 (u_dd^{-1/2}).
  // Sweep decades past the double cliff and require full O(eps)
  // orthogonality under the hard-failure policy.
  const index_t n = 1500, s = 5;
  for (const double kappa : {3e9, 1e11, 1e12}) {
    Matrix v = synth::logscaled(n, s, kappa, 53);
    Matrix r(s, s);
    ortho::OrthoContext ctx;
    ctx.mixed_precision_gram = true;
    ctx.policy = ortho::BreakdownPolicy::kThrow;
    ASSERT_NO_THROW(ortho::cholqr2(ctx, v.view(), r.view())) << kappa;
    EXPECT_LT(dense::orthogonality_error(v.view()), 1e-11) << kappa;
    EXPECT_EQ(ctx.cholesky_breakdowns, 0) << kappa;
  }
}

TEST(CholQr2Dd, PlainDoubleStillBreaksAtTheBoundary) {
  // The same panels that the dd path factors cleanly must break the
  // plain-double path — this pins the range boundary from both sides.
  // "Breaks" has two build-dependent manifestations past the eps^{-1/2}
  // cliff: the Cholesky detects the indefinite Gram and throws, or it
  // completes on rounding noise and the resulting Q loses
  // orthogonality wholesale (error ~ eps * kappa^2 >> 1e-6).  Which one
  // occurs flips with the build's rounding (the SIMD build contracts
  // differently), so the test accepts either — single-pass CholQR,
  // because a lucky second pass of the *2 variants can fully
  // re-orthogonalize a noise factor and mask the cliff.
  const index_t n = 1500, s = 5;
  for (const double kappa : {3e9, 1e11, 1e12}) {
    Matrix v = synth::logscaled(n, s, kappa, 53);
    Matrix r(s, s);
    ortho::OrthoContext ctx;
    ctx.policy = ortho::BreakdownPolicy::kThrow;
    bool threw = false;
    try {
      ortho::cholqr(ctx, v.view(), r.view());
    } catch (const ortho::CholeskyBreakdown&) {
      threw = true;
    }
    if (!threw) {
      EXPECT_GT(dense::orthogonality_error(v.view()), 1e-6) << kappa;
    }
  }
}

TEST(CholQr2Dd, NonFiniteGramThrowsUnderShiftPolicy) {
  // A NaN basis entry makes ||G|| NaN, which would defeat the shifted
  // retry loop's growth/bail-out arithmetic — both precision paths must
  // fail loudly instead of retrying forever.
  for (const bool dd : {false, true}) {
    Matrix v = random_matrix(200, 4, 17);
    v(7, 2) = std::numeric_limits<double>::quiet_NaN();
    Matrix r(4, 4);
    ortho::OrthoContext ctx;
    ctx.mixed_precision_gram = dd;
    ctx.policy = ortho::BreakdownPolicy::kShift;
    EXPECT_THROW(ortho::cholqr(ctx, v.view(), r.view()),
                 ortho::CholeskyBreakdown)
        << "dd=" << dd;
  }
}

// ---------------------------------------------------------------------------
// Determinism: thread sweep and distributed execution.
// ---------------------------------------------------------------------------

/// Restores the global threading config after each test, and lowers the
/// dispatch grain so modest test sizes actually cross the threshold.
class DdParKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_grain_ = par::parallel_grain();
    par::set_parallel_grain(512);
  }
  void TearDown() override {
    par::set_num_threads(0);
    par::set_parallel_grain(saved_grain_);
  }

 private:
  std::size_t saved_grain_ = 0;
};

TEST_F(DdParKernels, GemmTnDdBitwiseAcrossThreadCounts) {
  // Several reduction chunks plus a remainder; thread counts cover
  // serial, even, odd, and the host's concurrency.
  const index_t m = 3 * 4096 + 517;
  const Matrix a = random_matrix(m, 7, 11);
  const Matrix b = random_matrix(m, 5, 12);

  Matrix ref_hi, ref_lo;
  const std::vector<unsigned> sweep = {
      1u, 2u, 7u, std::max(1u, std::thread::hardware_concurrency())};
  for (const unsigned t : sweep) {
    par::set_num_threads(t);
    Matrix c_hi(7, 5), c_lo(7, 5);
    dense::gemm_tn_dd(a.view(), b.view(), c_hi.view(), c_lo.view());
    if (t == 1u) {
      ref_hi = dense::copy_of(c_hi.view());
      ref_lo = dense::copy_of(c_lo.view());
      continue;
    }
    for (index_t j = 0; j < 5; ++j) {
      for (index_t i = 0; i < 7; ++i) {
        ASSERT_EQ(c_hi(i, j), ref_hi(i, j)) << t;
        ASSERT_EQ(c_lo(i, j), ref_lo(i, j)) << t;
      }
    }
  }
}

TEST_F(DdParKernels, RoundedGramIsBitwiseSymmetricAndThreadStable) {
  const Matrix a = random_matrix(4096 + 233, 6, 13);
  Matrix g1(6, 6), g2(6, 6);
  // A^T A through the rounded gemm_tn_dd (the kernel block_dot runs
  // under the dd Gram): the self-product path computes i <= j and
  // mirrors.
  par::set_num_threads(1);
  dense::gemm_tn_dd(a.view(), a.view(), g1.view());
  par::set_num_threads(7);
  dense::gemm_tn_dd(a.view(), a.view(), g2.view());
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 6; ++i) {
      ASSERT_EQ(g1(i, j), g1(j, i));
      ASSERT_EQ(g1(i, j), g2(i, j));
    }
  }
}

// ---------------------------------------------------------------------------
// Registered-scheme kappa sweep (shared harness, tests/ortho_kappa_sweep.hpp):
// every s-step scheme's stability boundary, pinned from both sides of the
// eps^{-1/2} cliff, and the dd-Gram extension past it.
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* name;  ///< ortho registry key
  bool chol_based;   ///< panel factorization is a Gram Cholesky
  bool two_pass;     ///< re-orthogonalized => O(eps) final error
};

class OrthoKappaSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OrthoKappaSweep, CoversARegisteredSstepScheme) {
  // The sweep must track the registry: a scheme rename or removal shows
  // up here instead of silently shrinking the boundary coverage.
  const api::OrthoEntry& entry = api::ortho_registry().at(GetParam().name);
  EXPECT_TRUE(entry.sstep) << GetParam().name;
}

TEST_P(OrthoKappaSweep, BelowCliffEverySchemeHolds) {
  // kappa = 1e5 < eps^{-1/2} ~ 6.7e7: condition (1) satisfied, so no
  // scheme may break down.  Two-pass schemes deliver O(eps); the
  // one-pass PIP is bounded by its kappa^2 * eps first-sweep error.
  const auto& c = GetParam();
  const test::KappaSweepResult r = test::kappa_sweep(c.name, 1e5);
  EXPECT_FALSE(r.breakdown) << c.name;
  EXPECT_LT(r.ortho_error, c.two_pass ? 1e-12 : 1e-3) << c.name;
  if (c.chol_based) {
    // The free conditioning estimate must see the ill-conditioning at
    // the right order (diagonal ratios underestimate kappa, never by
    // more than a couple of decades on these panels).
    EXPECT_GT(r.monitor_kappa, 1e2) << c.name;
    EXPECT_LT(r.monitor_kappa, 6.7e7) << c.name;
  } else {
    // HHQR panels never square the conditioning into a Gram Cholesky;
    // at most a trivial normalization records an O(1) ratio.
    EXPECT_LT(r.monitor_kappa, 2.0) << c.name;
  }
}

TEST_P(OrthoKappaSweep, PastCliffPinsTheBoundary) {
  // kappa = 1e10 >> eps^{-1/2}: the Gram squares it past 1/eps.
  // Cholesky-based schemes must fail — either detected (throw) or
  // silently (orthogonality lost wholesale); which one is a per-build
  // coin flip on the rounding noise, so the pin is the disjunction.
  // The HHQR inner factorization has no squared Gram and must survive.
  const auto& c = GetParam();
  const test::KappaSweepResult r = test::kappa_sweep(c.name, 1e10);
  if (c.chol_based) {
    EXPECT_TRUE(r.breakdown || r.ortho_error > 1e-6)
        << c.name << " err=" << r.ortho_error;
  } else {
    EXPECT_FALSE(r.breakdown) << c.name;
    EXPECT_LT(r.ortho_error, 1e-12) << c.name;
  }
}

TEST_P(OrthoKappaSweep, DdGramExtendsTheBoundary) {
  // The same kappa = 1e10 panels with the double-double Gram: every
  // Cholesky-based scheme must now factor cleanly (u_dd^{-1/2} ~ 1e15
  // headroom), which is exactly the escalation step the stability
  // autopilot buys when it flips mixed_precision_gram on.
  const auto& c = GetParam();
  test::KappaSweepSpec spec;
  spec.dd_gram = true;
  const test::KappaSweepResult r = test::kappa_sweep(c.name, 1e10, spec);
  EXPECT_FALSE(r.breakdown) << c.name;
  EXPECT_LT(r.ortho_error, c.two_pass ? 1e-10 : 1e-3) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSstepSchemes, OrthoKappaSweep,
    ::testing::Values(SweepCase{"bcgs2", true, true},
                      SweepCase{"bcgs2_hhqr", false, true},
                      SweepCase{"bcgs_pip", true, false},
                      SweepCase{"bcgs_pip2", true, true},
                      SweepCase{"two_stage", true, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DdDistributed, CholQr2DdMatchesSequentialAndKeepsSyncCount) {
  // The fused dd all-reduce must (a) preserve CholQR2's two-reduce
  // budget and (b) reproduce the sequential factor to rounding (the
  // rank partition changes the dd association only at ~u_dd level).
  const index_t n = 1200, s = 4;
  const Matrix v0 = synth::logscaled(n, s, 1e9, 29);

  Matrix v_seq = dense::copy_of(v0.view());
  Matrix r_seq(s, s);
  ortho::OrthoContext seq_ctx;
  seq_ctx.mixed_precision_gram = true;
  ortho::cholqr2(seq_ctx, v_seq.view(), r_seq.view());

  for (const int p : {2, 3}) {
    Matrix v_dist(n, s);
    Matrix r_dist(s, s);
    par::spmd_run(p, [&](par::Communicator& comm) {
      const auto range = par::block_row_range(n, comm.size(), comm.rank());
      Matrix local = dense::copy_of(v0.view().block(
          static_cast<index_t>(range.begin), 0,
          static_cast<index_t>(range.size()), s));
      Matrix r_local(s, s);
      ortho::OrthoContext ctx;
      ctx.comm = &comm;
      ctx.mixed_precision_gram = true;
      comm.reset_stats();
      ortho::cholqr2(ctx, local.view(), r_local.view());
      EXPECT_EQ(comm.stats().allreduces, 2u);
      dense::copy(local.view(),
                  v_dist.view().block(static_cast<index_t>(range.begin), 0,
                                      static_cast<index_t>(range.size()), s));
      if (comm.rank() == 0) dense::copy(r_local.view(), r_dist.view());
    });
    EXPECT_LT(dense::max_abs_diff(r_seq.view(), r_dist.view()),
              1e-9 * dense::frobenius_norm(r_seq.view()))
        << "p=" << p;
    EXPECT_LT(dense::max_abs_diff(v_seq.view(), v_dist.view()), 1e-9)
        << "p=" << p;
  }
}

}  // namespace
