#include "api/options.hpp"

#include "api/registry.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace tsbo::api {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* wanted) {
  throw std::invalid_argument("SolverOptions: invalid value \"" + value +
                              "\" for key " + key + " (expected " + wanted +
                              ")");
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used != value.size()) bad_value(key, value, "integer");
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(key, value, "integer");
  } catch (const std::out_of_range&) {
    bad_value(key, value, "integer");
  }
}

long parse_long(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const long v = std::stol(value, &used);
    if (used != value.size()) bad_value(key, value, "integer");
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(key, value, "integer");
  } catch (const std::out_of_range&) {
    bad_value(key, value, "integer");
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) bad_value(key, value, "number");
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(key, value, "number");
  } catch (const std::out_of_range&) {
    bad_value(key, value, "number");
  }
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes" || value == "on" ||
      value.empty()) {
    return true;  // empty: bare "--flag" style
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  bad_value(key, value, "boolean (0/1/true/false)");
}

/// One string-keyed field: how to read and write it on a SolverOptions.
struct FieldDef {
  const char* key;
  std::function<std::string(const SolverOptions&)> get;
  std::function<void(SolverOptions&, const std::string&)> set;
};

FieldDef str_field(const char* key, std::string SolverOptions::* member) {
  return {key, [member](const SolverOptions& o) { return o.*member; },
          [member](SolverOptions& o, const std::string& v) { o.*member = v; }};
}

FieldDef int_field(const char* key, int SolverOptions::* member) {
  return {key,
          [member](const SolverOptions& o) { return std::to_string(o.*member); },
          [key, member](SolverOptions& o, const std::string& v) {
            o.*member = parse_int(key, v);
          }};
}

FieldDef long_field(const char* key, long SolverOptions::* member) {
  return {key,
          [member](const SolverOptions& o) { return std::to_string(o.*member); },
          [key, member](SolverOptions& o, const std::string& v) {
            o.*member = parse_long(key, v);
          }};
}

FieldDef double_field(const char* key, double SolverOptions::* member) {
  return {key,
          [member](const SolverOptions& o) {
            // Shortest round-tripping decimal (parse(to_kv()) identity).
            return util::json_number(o.*member);
          },
          [key, member](SolverOptions& o, const std::string& v) {
            o.*member = parse_double(key, v);
          }};
}

FieldDef bool_field(const char* key, bool SolverOptions::* member) {
  return {key,
          [member](const SolverOptions& o) {
            return std::string(o.*member ? "1" : "0");
          },
          [key, member](SolverOptions& o, const std::string& v) {
            o.*member = parse_bool(key, v);
          }};
}

const std::vector<FieldDef>& fields() {
  static const std::vector<FieldDef> defs = {
      str_field("solver", &SolverOptions::solver),
      str_field("ortho", &SolverOptions::ortho),
      str_field("basis", &SolverOptions::basis),
      str_field("precond", &SolverOptions::precond),
      int_field("m", &SolverOptions::m),
      int_field("s", &SolverOptions::s),
      int_field("bs", &SolverOptions::bs),
      double_field("rtol", &SolverOptions::rtol),
      long_field("max_iters", &SolverOptions::max_iters),
      int_field("max_restarts", &SolverOptions::max_restarts),
      double_field("lambda_min", &SolverOptions::lambda_min),
      double_field("lambda_max", &SolverOptions::lambda_max),
      bool_field("mixed_precision_gram", &SolverOptions::mixed_precision_gram),
      str_field("breakdown", &SolverOptions::breakdown),
      bool_field("autopilot", &SolverOptions::autopilot),
      double_field("ap_kappa_high", &SolverOptions::ap_kappa_high),
      double_field("ap_kappa_low", &SolverOptions::ap_kappa_low),
      int_field("ap_s_min", &SolverOptions::ap_s_min),
      int_field("ap_patience", &SolverOptions::ap_patience),
      int_field("precond_sweeps", &SolverOptions::precond_sweeps),
      int_field("precond_degree", &SolverOptions::precond_degree),
      double_field("precond_lambda_min", &SolverOptions::precond_lambda_min),
      double_field("precond_lambda_max", &SolverOptions::precond_lambda_max),
      int_field("ranks", &SolverOptions::ranks),
      str_field("net", &SolverOptions::net),
      int_field("rhs", &SolverOptions::rhs),
      int_field("warm_start", &SolverOptions::warm_start),
      long_field("deadline_ms", &SolverOptions::deadline_ms),
      int_field("retries", &SolverOptions::retries),
      int_field("quarantine_after", &SolverOptions::quarantine_after),
      int_field("verify_residual", &SolverOptions::verify_residual),
      str_field("faults", &SolverOptions::faults),
      str_field("matrix", &SolverOptions::matrix),
      str_field("matrix_file", &SolverOptions::matrix_file),
      int_field("nx", &SolverOptions::nx),
      int_field("ny", &SolverOptions::ny),
      int_field("nz", &SolverOptions::nz),
      int_field("n", &SolverOptions::n),
      bool_field("equilibrate", &SolverOptions::equilibrate),
  };
  return defs;
}

const FieldDef* find_field(const std::string& key) {
  for (const FieldDef& f : fields()) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& SolverOptions::keys() {
  static const std::vector<std::string> ks = [] {
    std::vector<std::string> out;
    for (const FieldDef& f : fields()) out.emplace_back(f.key);
    return out;
  }();
  return ks;
}

void SolverOptions::set(const std::string& key, const std::string& value) {
  const FieldDef* f = find_field(key);
  if (f == nullptr) {
    std::string msg = "SolverOptions: unknown key \"" + key + "\"";
    const std::string hint = util::did_you_mean(key, keys());
    if (!hint.empty()) msg += " (did you mean \"" + hint + "\"?)";
    throw std::invalid_argument(msg);
  }
  f->set(*this, value);
}

std::string SolverOptions::get(const std::string& key) const {
  const FieldDef* f = find_field(key);
  if (f == nullptr) {
    throw std::invalid_argument("SolverOptions: unknown key \"" + key + "\"");
  }
  return f->get(*this);
}

SolverOptions SolverOptions::parse(
    const std::vector<std::pair<std::string, std::string>>& kv,
    SolverOptions base) {
  bool solver_set = false, ortho_set = false;
  for (const auto& [k, v] : kv) {
    base.set(k, v);
    solver_set = solver_set || k == "solver";
    ortho_set = ortho_set || k == "ortho";
  }
  // Resolve the ortho default so parse(to_kv()) round-trips; likewise
  // when an overlay switches the solver kind without naming a scheme
  // ("solver=gmres" on an s-step base), an inherited scheme of the
  // wrong kind resets to the new solver's default.
  const bool incompatible_inherit =
      solver_set && !ortho_set && ortho_registry().contains(base.ortho) &&
      ortho_registry().at(base.ortho).sstep != base.is_sstep();
  if (incompatible_inherit) base.ortho.clear();
  base.ortho = base.resolved_ortho();
  return base;
}

SolverOptions SolverOptions::parse(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  return parse(kv, SolverOptions{});
}

SolverOptions SolverOptions::parse(const std::string& spec) {
  return parse(spec, SolverOptions{});
}

SolverOptions SolverOptions::from_cli(const util::Cli& cli) {
  return from_cli(cli, SolverOptions{});
}

SolverOptions SolverOptions::parse(const std::string& spec,
                                   SolverOptions base) {
  // Whitespace-separated key=value tokens; values may be double-quoted
  // to carry spaces (to_string() quotes such values, keeping the
  // parse(to_string()) identity for e.g. paths with spaces).
  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t i = 0;
  const auto is_ws = [](char c) { return c == ' ' || c == '\t' || c == '\n'; };
  while (i < spec.size()) {
    while (i < spec.size() && is_ws(spec[i])) ++i;
    if (i >= spec.size()) break;
    const std::size_t start = i;
    while (i < spec.size() && !is_ws(spec[i]) && spec[i] != '=') ++i;
    if (i >= spec.size() || spec[i] != '=' || i == start) {
      throw std::invalid_argument("SolverOptions: expected key=value, got \"" +
                                  spec.substr(start, i - start) + "\"");
    }
    const std::string key = spec.substr(start, i - start);
    ++i;  // '='
    std::string value;
    if (i < spec.size() && spec[i] == '"') {
      const std::size_t close = spec.find('"', ++i);
      if (close == std::string::npos) {
        throw std::invalid_argument(
            "SolverOptions: unterminated quoted value for key " + key);
      }
      value = spec.substr(i, close - i);
      i = close + 1;
    } else {
      const std::size_t vstart = i;
      while (i < spec.size() && !is_ws(spec[i])) ++i;
      value = spec.substr(vstart, i - vstart);
    }
    kv.emplace_back(key, value);
  }
  return parse(kv, std::move(base));
}

SolverOptions SolverOptions::from_cli(const util::Cli& cli,
                                      SolverOptions base) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const std::string& key : keys()) {
    if (cli.has(key)) kv.emplace_back(key, cli.get(key, ""));
  }
  return parse(kv, std::move(base));
}

std::vector<std::pair<std::string, std::string>> SolverOptions::to_kv() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(fields().size());
  for (const FieldDef& f : fields()) out.emplace_back(f.key, f.get(*this));
  return out;
}

std::string SolverOptions::to_string() const {
  std::string out;
  for (const auto& [k, v] : to_kv()) {
    if (!out.empty()) out.push_back(' ');
    const bool needs_quotes =
        v.find_first_of(" \t\n") != std::string::npos;
    out += k + "=" + (needs_quotes ? "\"" + v + "\"" : v);
  }
  return out;
}

void SolverOptions::validate() const {
  if (solver != "gmres" && solver != "sstep") {
    throw std::invalid_argument(
        "SolverOptions: solver must be \"gmres\" or \"sstep\", got \"" +
        solver + "\"");
  }
  const OrthoEntry& ortho_entry = ortho_registry().at(resolved_ortho());
  if (ortho_entry.sstep != is_sstep()) {
    throw std::invalid_argument("SolverOptions: ortho \"" + resolved_ortho() +
                                "\" is not available for solver \"" + solver +
                                "\"");
  }
  if (basis != "monomial" && basis != "newton" && basis != "chebyshev") {
    throw std::invalid_argument(
        "SolverOptions: basis must be monomial|newton|chebyshev, got \"" +
        basis + "\"");
  }
  if (breakdown != "shift" && breakdown != "throw") {
    throw std::invalid_argument(
        "SolverOptions: breakdown must be shift|throw, got \"" + breakdown +
        "\"");
  }
  (void)precond_registry().at(precond);  // throws on unknown names
  (void)matrix_registry().at(matrix);    // throws on unknown names
  (void)network_model();                 // throws on unknown names

  // Numeric range validation: every violation names the key, echoes
  // the offending value, and states the accepted range — the same
  // spirit as the unknown-key did-you-mean hint, so a typo'd
  // "--max_restarts=0" fails loudly instead of corrupting the run.
  const auto out_of_range = [](const char* key, const std::string& value,
                               const char* wanted) {
    throw std::invalid_argument(std::string("SolverOptions: ") + key + "=" +
                                value + " out of range (expected " + wanted +
                                ")");
  };
  const auto require_int = [&](const char* key, long v, long min,
                               const char* wanted) {
    if (v < min) out_of_range(key, std::to_string(v), wanted);
  };
  require_int("m", m, 1, ">= 1");
  require_int("s", s, 1, ">= 1");
  require_int("bs", bs, 1, ">= 1");
  require_int("max_iters", max_iters, 1, ">= 1");
  require_int("max_restarts", max_restarts, 1, ">= 1");
  require_int("precond_sweeps", precond_sweeps, 1, ">= 1");
  require_int("precond_degree", precond_degree, 1, ">= 1");
  require_int("ranks", ranks, 1, ">= 1");
  require_int("rhs", rhs, 1, ">= 1");
  if (rhs > 1 && !is_sstep()) {
    throw std::invalid_argument(
        "SolverOptions: rhs=" + std::to_string(rhs) +
        " requires solver=sstep (batched multi-RHS solves run through "
        "block s-step GMRES)");
  }
  // The stability autopilot is a single-RHS feature of the s-step
  // engine: reject it rather than ignore it.
  if (rhs > 1 && autopilot) {
    throw std::invalid_argument("SolverOptions: autopilot=1 requires rhs=1, "
                                "got rhs=" + std::to_string(rhs));
  }
  require_int("nx", nx, 1, ">= 1");
  require_int("ny", ny, 0, ">= 0 (0 inherits nx)");
  require_int("nz", nz, 0, ">= 0 (0 inherits nx)");
  require_int("n", n, 0, ">= 0 (0 = registry default)");
  if (warm_start < 0 || warm_start > 1) {
    out_of_range("warm_start", std::to_string(warm_start), "0 or 1");
  }
  require_int("deadline_ms", deadline_ms, 0, ">= 0 (0 = no deadline)");
  require_int("retries", retries, 0, ">= 0");
  require_int("quarantine_after", quarantine_after, 0,
              ">= 0 (0 = no quarantine)");
  if (verify_residual < 0 || verify_residual > 1) {
    out_of_range("verify_residual", std::to_string(verify_residual), "0 or 1");
  }
  (void)par::FaultPlan::parse(faults);  // throws its own syntax errors
  if (!(rtol > 0.0) || !std::isfinite(rtol)) {
    out_of_range("rtol", util::json_number(rtol), "a finite number > 0");
  }
  // Guard-vacuity cross-check: the corrupted verdict fires when the
  // true residual exceeds kResidualGuardFactor * max(relres, rtol), so
  // with rtol >= 1/kResidualGuardFactor even a completely wrong
  // solution (true relres ~ 1) passes — the guard could never fire.
  if (verify_residual == 1 && rtol * kResidualGuardFactor >= 1.0) {
    throw std::invalid_argument(
        "SolverOptions: verify_residual=1 with rtol=" +
        util::json_number(rtol) +
        " makes the residual guard vacuous (it only flags true relres > " +
        util::json_number(kResidualGuardFactor) +
        "*max(relres, rtol)); did you mean a converging tolerance like "
        "rtol=1e-6?");
  }
  // Spectral-interval keys: any finite value is meaningful (0/0 = "let
  // the solver estimate"), but NaN/inf would silently poison the basis
  // shifts or the Chebyshev recurrence coefficients.
  if (!std::isfinite(lambda_min)) {
    out_of_range("lambda_min", util::json_number(lambda_min),
                 "a finite number");
  }
  if (!std::isfinite(lambda_max)) {
    out_of_range("lambda_max", util::json_number(lambda_max),
                 "a finite number");
  }
  if (!std::isfinite(precond_lambda_min)) {
    out_of_range("precond_lambda_min", util::json_number(precond_lambda_min),
                 "a finite number");
  }
  if (!std::isfinite(precond_lambda_max)) {
    out_of_range("precond_lambda_max", util::json_number(precond_lambda_max),
                 "a finite number");
  }
  if (autopilot && !is_sstep()) {
    throw std::invalid_argument(
        "SolverOptions: autopilot=1 requires solver=sstep (the monitor "
        "lives in the s-step panel loop)");
  }
  require_int("ap_s_min", ap_s_min, 1, ">= 1");
  require_int("ap_patience", ap_patience, 1, ">= 1");
  if (!(ap_kappa_low > 0.0) || !std::isfinite(ap_kappa_low)) {
    out_of_range("ap_kappa_low", util::json_number(ap_kappa_low),
                 "a finite number > 0");
  }
  if (!(ap_kappa_high > ap_kappa_low) || !std::isfinite(ap_kappa_high)) {
    out_of_range("ap_kappa_high", util::json_number(ap_kappa_high),
                 "a finite number > ap_kappa_low");
  }
}

krylov::GmresConfig SolverOptions::gmres_config() const {
  validate();
  if (is_sstep()) {
    throw std::invalid_argument(
        "SolverOptions: gmres_config() requires solver=gmres");
  }
  krylov::GmresConfig cfg;
  cfg.m = m;
  cfg.rtol = rtol;
  cfg.max_iters = max_iters;
  cfg.max_restarts = max_restarts;
  ortho_registry().at(resolved_ortho()).configure_gmres(*this, cfg);
  return cfg;
}

krylov::SStepGmresConfig SolverOptions::sstep_config() const {
  validate();
  if (!is_sstep()) {
    throw std::invalid_argument(
        "SolverOptions: sstep_config() requires solver=sstep");
  }
  krylov::SStepGmresConfig cfg;
  cfg.m = m;
  cfg.s = s;
  cfg.bs = bs;
  cfg.rtol = rtol;
  cfg.max_iters = max_iters;
  cfg.max_restarts = max_restarts;
  cfg.lambda_min = lambda_min;
  cfg.lambda_max = lambda_max;
  cfg.mixed_precision_gram = mixed_precision_gram;
  cfg.autopilot.enabled = autopilot;
  cfg.autopilot.kappa_high = ap_kappa_high;
  cfg.autopilot.kappa_low = ap_kappa_low;
  cfg.autopilot.s_min = ap_s_min;
  cfg.autopilot.patience = ap_patience;
  cfg.policy = breakdown == "throw" ? ortho::BreakdownPolicy::kThrow
                                    : ortho::BreakdownPolicy::kShift;
  if (basis == "newton") {
    cfg.basis = krylov::BasisKind::kNewton;
  } else if (basis == "chebyshev") {
    cfg.basis = krylov::BasisKind::kChebyshev;
  } else {
    cfg.basis = krylov::BasisKind::kMonomial;
  }
  ortho_registry().at(resolved_ortho()).configure_sstep(*this, cfg);
  return cfg;
}

par::NetworkModel SolverOptions::network_model() const {
  if (net == "off") return par::NetworkModel::off();
  if (net == "calibrated") return par::NetworkModel::calibrated();
  if (net == "ethernet") return par::NetworkModel::ethernet();
  if (net == "cluster") return par::NetworkModel::cluster();
  throw std::invalid_argument(
      "SolverOptions: net must be off|calibrated|ethernet|cluster, got \"" +
      net + "\"");
}

}  // namespace tsbo::api
