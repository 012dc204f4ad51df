#pragma once
// Name-keyed factory registries for the solver facade.
//
// Three registries replace the enum switches the bench binaries used to
// hand-roll: block-orthogonalization schemes, preconditioners, and
// matrix sources (structured generators, SuiteSparse surrogates, and
// MatrixMarket files).  A new scheme registers a name + factory —
// callers select it with "ortho=<name>" and nothing else changes.
// Lookups fail loudly, listing the known names with a did-you-mean
// hint.
//
// The built-in entries are registered on first access (function-local
// singletons); the registries are mutable on purpose so experimental
// schemes (e.g. the random-sketching direction of arXiv:2503.16717) can
// self-register from their own translation units.

#include "krylov/gmres.hpp"
#include "krylov/sstep_gmres.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/cli.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tsbo::api {

struct SolverOptions;

/// Ordered name -> Entry map with loud, suggestion-bearing lookup
/// failures.  Registration order is preserved (names() drives "run all
/// schemes" sweeps, so built-ins stay in paper order).
template <typename Entry>
class Registry {
 public:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `name`; re-registering an existing name replaces it
  /// (tests exploit this to inject fakes).
  void add(const std::string& name, Entry entry) {
    for (auto& [k, e] : entries_) {
      if (k == name) {
        e = std::move(entry);
        return;
      }
    }
    entries_.emplace_back(name, std::move(entry));
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    for (const auto& [k, e] : entries_) {
      if (k == name) return true;
    }
    return false;
  }

  /// Throws std::invalid_argument on unknown names, naming the registry,
  /// the closest known name, and the full known set.
  [[nodiscard]] const Entry& at(const std::string& name) const {
    for (const auto& [k, e] : entries_) {
      if (k == name) return e;
    }
    std::string msg = "api: unknown " + kind_ + " \"" + name + "\"";
    const std::string hint = util::did_you_mean(name, names());
    if (!hint.empty()) msg += " (did you mean \"" + hint + "\"?)";
    msg += "; known:";
    for (const auto& [k, e] : entries_) msg += " " + k;
    throw std::invalid_argument(msg);
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [k, e] : entries_) out.push_back(k);
    return out;
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Entry>> entries_;
};

/// A block-orthogonalization scheme (or a standard-GMRES ortho).  One
/// of the two configure hooks is set, matching `sstep`.
struct OrthoEntry {
  std::string description;
  bool sstep = true;
  /// Applies the scheme to a lowered s-step config (installs its
  /// `manager_factory`).
  std::function<void(const SolverOptions&, krylov::SStepGmresConfig&)>
      configure_sstep;
  /// Applies the scheme to a lowered standard-GMRES config.
  std::function<void(const SolverOptions&, krylov::GmresConfig&)>
      configure_gmres;
};

/// Preconditioner factory: builds the rank-local preconditioner for one
/// rank's matrix block.  May return nullptr ("none").
struct PrecondEntry {
  std::string description;
  std::function<std::unique_ptr<precond::Preconditioner>(
      const SolverOptions&, const sparse::DistCsr&)>
      make;
};

/// Whether the options give the chebyshev preconditioner an explicit
/// eigenvalue interval (precond_lambda_min/max).  Otherwise its setup
/// estimates one with precond::kChebyshevPowerIters power-method steps.
[[nodiscard]] bool chebyshev_explicit_interval(const SolverOptions& opts);

/// Matrix source: builds the (replicated) system matrix from the
/// options' geometry/size keys.
struct MatrixEntry {
  std::string description;
  std::function<sparse::CsrMatrix(const SolverOptions&)> make;
};

Registry<OrthoEntry>& ortho_registry();
Registry<PrecondEntry>& precond_registry();
Registry<MatrixEntry>& matrix_registry();

}  // namespace tsbo::api
