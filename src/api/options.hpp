#pragma once
// String-keyed solver configuration: the single description of a run
// that the facade (api/solver.hpp), the bench harnesses, the examples,
// and the tests all share.
//
// Every field parses from and serializes to "key=value" string pairs
// ("solver=sstep ortho=two_stage basis=newton m=60 s=5 bs=60 ..."),
// with unknown-key and invalid-value errors instead of silent
// acceptance, so a run is reproducible from the one-line echo a
// SolveReport carries.  Scheme/preconditioner/matrix names resolve
// through the api registries (api/registry.hpp) — adding a scheme means
// registering a name, not growing an enum switch.
//
// Paper notation mapping (see docs/algorithms.md for the full table):
//   m  = restart length,  s = step size,  bs = two-stage big-panel
//   size; ortho names = Table III columns (cgs2 / bcgs2 / bcgs_pip2 /
//   two_stage).

#include "krylov/gmres.hpp"
#include "krylov/sstep_gmres.hpp"
#include "par/network_model.hpp"

#include <string>
#include <utility>
#include <vector>

namespace tsbo::util {
class Cli;
}

namespace tsbo::api {

/// Residual-guard gap factor (see SolverOptions::verify_residual): a
/// solve is flagged corrupted when the serially recomputed true
/// residual exceeds kResidualGuardFactor * max(reported relres, rtol).
/// The factor absorbs the benign gap Carson & Ma (arXiv:2409.03079)
/// bound between the recurrence estimate and the true residual of a
/// backward-stable s-step GMRES, plus the parallel-vs-serial
/// recompute rounding; a flipped exponent bit overshoots it by many
/// orders of magnitude.
inline constexpr double kResidualGuardFactor = 100.0;

struct SolverOptions {
  // ---- algorithm ----------------------------------------------------
  std::string solver = "sstep";  ///< "gmres" | "sstep"
  /// ortho_registry() key; "" resolves to the solver's default at
  /// parse/validate time ("cgs2" for gmres, "two_stage" for sstep).
  std::string ortho;
  std::string basis = "monomial";  ///< monomial | newton | chebyshev
  std::string precond = "none";    ///< precond_registry() key
  int m = 60;   ///< restart length (paper: 60)
  int s = 5;    ///< step size (paper's conservative default)
  int bs = 60;  ///< two-stage second step size (s <= bs <= m, s | bs)
  double rtol = 1e-6;
  long max_iters = 1000000;
  int max_restarts = 1000000;
  /// Spectral interval for Newton/Chebyshev bases.
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  bool mixed_precision_gram = false;  ///< double-double Gram extension
  std::string breakdown = "shift";    ///< "shift" | "throw"
  /// Stability autopilot (sstep only; see
  /// krylov::SStepGmresConfig::Autopilot and docs/algorithms.md):
  /// monitor the per-panel Gram conditioning estimate, shrink/grow s
  /// between restarts, escalate the Gram to double-double on demand,
  /// and recover from CholeskyBreakdown by re-basing instead of
  /// aborting (the breakdown= policy is superseded while enabled).
  bool autopilot = false;
  double ap_kappa_high = 1e7;  ///< escalate above this basis-kappa estimate
  double ap_kappa_low = 1e5;   ///< cycles below this count as healthy
  int ap_s_min = 1;            ///< smallest step size the ladder may reach
  int ap_patience = 2;         ///< healthy cycles before relaxing a rung
  int precond_sweeps = 1;   ///< Gauss-Seidel sweeps
  int precond_degree = 4;   ///< Chebyshev polynomial degree
  /// Explicit Chebyshev-preconditioner interval; 0/0 = power-method
  /// estimate.
  double precond_lambda_min = 0.0;
  double precond_lambda_max = 0.0;

  // ---- execution ----------------------------------------------------
  int ranks = 4;            ///< SPMD rank count
  std::string net = "off";  ///< off | calibrated | ethernet | cluster
  /// Number of right-hand sides solved as one batch (the s-step
  /// engine's block width, krylov/sstep_gmres.hpp).  rhs=1 is the
  /// classic single-RHS path.  rhs=k > 1 requires solver=sstep and
  /// rejects autopilot=1: the facade expects a length n*k RHS (column t
  /// at offset t*n), runs all k columns through shared panels — one
  /// halo exchange per operator application, one Gram reduce per stage
  /// regardless of k — and reports per-RHS results[].
  int rhs = 1;
  /// Warm-start request (0 or 1; interpreted by the solver service,
  /// src/service/): 1 seeds x0 from the cached operator's previous
  /// solution when the same operator is solved again with a perturbed
  /// RHS.  Standalone api::Solver runs ignore it (cold path untouched);
  /// an int rather than a bool so "warm_start=2" fails validate() with
  /// the standard out-of-range text instead of parse-time rejection.
  int warm_start = 0;

  // ---- resilience (docs/algorithms.md "Fault injection & resilience")
  /// Wall-clock budget per job in milliseconds; 0 = none.  The service
  /// arms a CancelToken at dispatch (covering queue-exit to completion
  /// across every retry attempt); standalone api::Solver runs arm one
  /// per solve().  Polled at restart boundaries — a solve overruns by
  /// at most one restart cycle, then completes as timed_out with the
  /// best iterate so far.
  long deadline_ms = 0;
  /// Extra attempts after a failed or corrupted attempt (service only;
  /// ok / timed_out / cancelled never retry).  Backoff between attempts
  /// is exponential with deterministic jitter derived from the job id.
  int retries = 0;
  /// Circuit breaker: after this many CONSECUTIVE non-ok completions of
  /// the same canonical spec, further jobs of that spec fail fast as
  /// `quarantined` until one succeeds.  0 = disabled.
  int quarantine_after = 0;
  /// 0 or 1: recompute the true residual ||b - A x|| / ||b|| serially
  /// against the assembled matrix after the iteration and compare with
  /// the reported relres.  Motivated by Carson & Ma's backward-stability
  /// analysis of s-step GMRES (arXiv:2409.03079): for a sound solve the
  /// two agree to a modest factor, so a gap beyond
  /// kResidualGuardFactor * max(relres, rtol) flags the solve
  /// `corrupted` (soft errors the recurrence would report as
  /// converged).  Under the service a corrupted verdict triggers a
  /// retry with the cached operator re-validated against its stored
  /// checksum.
  int verify_residual = 0;
  /// Fault-injection plan (par::FaultPlan::parse syntax), "" = none:
  /// "site@ordinal:action[;...]", action = throw | corrupt | delay<ms>.
  std::string faults;

  // ---- matrix source (when the facade builds the matrix) ------------
  std::string matrix = "laplace2d_5pt";  ///< matrix_registry() key
  std::string matrix_file;               ///< path for matrix = "file"
  int nx = 64;  ///< grid extent; ny/nz = 0 inherit nx
  int ny = 0;
  int nz = 0;
  int n = 0;  ///< surrogate target row count (0 = registry default)
  bool equilibrate = false;  ///< paper Section VI max-scaling

  /// All option keys, in canonical (serialization) order.
  static const std::vector<std::string>& keys();

  /// Applies `kv` on top of `base`.  Throws std::invalid_argument on an
  /// unknown key (with a did-you-mean hint) or an unparsable value, and
  /// resolves an empty `ortho` to the solver's default so that
  /// parse(to_kv()) round-trips exactly.
  static SolverOptions parse(
      const std::vector<std::pair<std::string, std::string>>& kv,
      SolverOptions base);
  static SolverOptions parse(
      const std::vector<std::pair<std::string, std::string>>& kv);

  /// Whitespace-separated "key=value" form of the above.
  static SolverOptions parse(const std::string& spec, SolverOptions base);
  static SolverOptions parse(const std::string& spec);

  /// Reads every option key from a parsed command line (absent keys
  /// keep `base` values).  Marks all keys as known for
  /// Cli::reject_unknown().
  static SolverOptions from_cli(const util::Cli& cli, SolverOptions base);
  static SolverOptions from_cli(const util::Cli& cli);

  /// Single-key accessors (string domain).  Throw on unknown keys.
  void set(const std::string& key, const std::string& value);
  [[nodiscard]] std::string get(const std::string& key) const;

  /// Every field as key=value pairs in keys() order; parse(to_kv()) is
  /// the identity.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> to_kv() const;

  /// One-line "key=value key=value ..." echo (the report provenance).
  [[nodiscard]] std::string to_string() const;

  /// Cross-field validation: known solver/ortho/basis/precond/net
  /// names, ortho entry compatible with the solver kind, positive
  /// sizes.  Structural s | m constraints stay with the krylov solvers.
  void validate() const;

  [[nodiscard]] bool is_sstep() const { return solver == "sstep"; }

  /// `ortho` with "" resolved to the solver's default — what validate()
  /// and the config lowering actually use, so a default-constructed
  /// struct (never passed through parse()) still names a valid scheme.
  [[nodiscard]] std::string resolved_ortho() const {
    if (!ortho.empty()) return ortho;
    return solver == "gmres" ? "cgs2" : "two_stage";
  }

  /// Lowered configs for the krylov layer (validate() implied).
  /// gmres_config() requires solver = "gmres", sstep_config() requires
  /// solver = "sstep".
  [[nodiscard]] krylov::GmresConfig gmres_config() const;
  [[nodiscard]] krylov::SStepGmresConfig sstep_config() const;

  [[nodiscard]] par::NetworkModel network_model() const;

  /// Grid extents with ny/nz = 0 resolved to nx.
  [[nodiscard]] int ny_or_nx() const { return ny > 0 ? ny : nx; }
  [[nodiscard]] int nz_or_nx() const { return nz > 0 ? nz : nx; }

  bool operator==(const SolverOptions&) const = default;
};

}  // namespace tsbo::api
