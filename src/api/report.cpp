#include "api/report.hpp"

namespace tsbo::api {

OrthoBreakdown breakdown_of(const krylov::SolveResult& r) {
  return r.timers.ortho();
}

void SolveReport::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", kSolveReportSchema);

  w.key("options").begin_object();
  for (const auto& [k, v] : options.to_kv()) w.kv(k, v);
  w.end_object();

  w.key("matrix").begin_object();
  w.kv("name", matrix.name)
      .kv("rows", static_cast<std::int64_t>(matrix.rows))
      .kv("nnz", static_cast<std::int64_t>(matrix.nnz))
      .kv("nnz_per_row", matrix.nnz_per_row);
  w.end_object();

  w.key("environment").begin_object();
  w.kv("ranks", ranks).kv("threads", threads);
  w.end_object();

  w.key("result").begin_object();
  w.kv("converged", result.converged)
      .kv("iters", result.iters)
      .kv("restarts", result.restarts)
      .kv("relres", result.relres)
      .kv("true_relres", result.true_relres)
      .kv("cholesky_breakdowns", result.cholesky_breakdowns)
      .kv("shift_retries", result.shift_retries)
      .kv("cancelled", result.cancelled)
      .kv("deadline_expired", result.deadline_expired);

  // Per-RHS outcomes of a block (rhs=k) solve; empty for single-RHS.
  w.key("results").begin_array();
  for (std::size_t t = 0; t < result.rhs_results.size(); ++t) {
    const krylov::RhsResult& rr = result.rhs_results[t];
    w.begin_object();
    w.kv("index", static_cast<std::int64_t>(t))
        .kv("converged", rr.converged)
        .kv("iters", rr.iters)
        .kv("relres", rr.relres)
        .kv("true_relres", rr.true_relres)
        .kv("deflated_at_restart", rr.deflated_at_restart);
    w.end_object();
  }
  w.end_array();

  w.key("autopilot").begin_object();
  w.kv("enabled", options.autopilot)
      .kv("max_kappa_estimate", result.autopilot_max_kappa)
      .kv("rebase_recoveries", result.rebase_recoveries)
      .kv("final_s", static_cast<std::int64_t>(result.autopilot_final_s))
      .kv("final_gram", result.autopilot_final_dd ? "dd" : "double");
  w.key("events").begin_array();
  for (const krylov::AutopilotEvent& ev : result.autopilot_events) {
    w.begin_object();
    w.kv("restart", ev.restart)
        .kv("kind", ev.kind)
        .kv("kappa", ev.kappa)
        .kv("s_before", static_cast<std::int64_t>(ev.s_before))
        .kv("s_after", static_cast<std::int64_t>(ev.s_after))
        .kv("gram_before", ev.dd_before ? "dd" : "double")
        .kv("gram_after", ev.dd_after ? "dd" : "double");
    w.end_object();
  }
  w.end_array();
  w.end_object();  // autopilot

  w.key("time").begin_object();
  w.kv("spmv", result.time_spmv())
      .kv("precond", result.time_precond())
      .kv("ortho", result.time_ortho())
      .kv("total", result.time_total());
  const OrthoBreakdown bd = breakdown_of(result);
  w.key("ortho_breakdown").begin_object();
  w.kv("dot", bd.dot)
      .kv("reduce", bd.reduce)
      .kv("update", bd.update)
      .kv("factor", bd.factor)
      .kv("small", bd.small);
  w.end_object();
  w.end_object();  // time

  // Every raw phase bucket (critical-path max across ranks).
  w.key("phase_seconds").begin_object();
  for (std::size_t i = 0; i < util::kPhaseCount; ++i) {
    const auto p = static_cast<util::Phase>(i);
    if (result.timers.count(p) > 0) {
      w.kv(std::string(util::name(p)), result.timers.seconds(p));
    }
  }
  w.end_object();

  w.key("comm").begin_object();
  w.kv("allreduces", result.comm_stats.allreduces)
      .kv("broadcasts", result.comm_stats.broadcasts)
      .kv("p2p_rounds", result.comm_stats.p2p_rounds)
      .kv("barriers", result.comm_stats.barriers)
      .kv("bytes_allreduced", result.comm_stats.bytes_allreduced)
      .kv("bytes_exchanged", result.comm_stats.bytes_exchanged)
      .kv("exposed_seconds", result.comm_stats.injected_seconds)
      .kv("overlapped_seconds", result.comm_stats.overlapped_seconds);
  w.end_object();
  w.end_object();  // result

  w.key("service").begin_object();
  w.kv("enabled", service.enabled)
      .kv("cache_hit", service.cache_hit)
      .kv("warm_started", service.warm_started)
      .kv("queue_seconds", service.queue_seconds)
      .kv("setup_seconds", service.setup_seconds);
  w.key("reused").begin_object();
  w.kv("precond_setup", service.reused_precond_setup)
      .kv("rhs", service.reused_rhs);
  w.end_object();
  w.kv("cache_key", service.cache_key);
  w.end_object();  // service

  w.key("resilience").begin_object();
  w.kv("outcome", resilience.outcome)
      .kv("attempts", resilience.attempts);
  w.key("guard").begin_object();
  w.kv("enabled", resilience.guard_enabled)
      .kv("verdict", resilience.guard_verdict)
      .kv("true_relres", resilience.guard_true_relres)
      .kv("tolerance", resilience.guard_tolerance);
  w.key("columns").begin_array();
  for (std::size_t t = 0; t < resilience.guard_rhs_verdicts.size(); ++t) {
    w.begin_object();
    w.kv("verdict", resilience.guard_rhs_verdicts[t])
        .kv("true_relres", t < resilience.guard_rhs_true_relres.size()
                               ? resilience.guard_rhs_true_relres[t]
                               : 0.0);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("fault_trail").begin_array();
  for (const par::FaultRecord& f : resilience.fault_trail) {
    w.begin_object();
    w.kv("site", par::fault_site_name(f.site))
        .kv("ordinal", f.ordinal)
        .kv("action", par::fault_action_name(f.action))
        .kv("delay_ms", f.delay_ms)
        .kv("attempt", f.attempt);
    w.end_object();
  }
  w.end_array();
  w.end_object();  // resilience

  w.key("history").begin_array();
  for (const RestartRecord& rec : history) {
    w.begin_object();
    w.kv("restart", rec.restart)
        .kv("iters", rec.iters)
        .kv("relres", rec.relres)
        .kv("explicit_relres", rec.explicit_relres)
        .kv("seconds_spmv", rec.seconds_spmv)
        .kv("seconds_precond", rec.seconds_precond)
        .kv("seconds_ortho", rec.seconds_ortho);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string SolveReport::json() const {
  util::JsonWriter w;
  write_json(w);
  return w.str();
}

void SolveReport::save_json(const std::string& path) const {
  util::write_text_file(path, json() + "\n");
}

std::string ReportLog::json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("schema", kReportLogSchema);
  w.kv("label", label_);
  w.key("reports").begin_array();
  for (const SolveReport& r : reports_) r.write_json(w);
  w.end_array();
  w.end_object();
  return w.str();
}

bool ReportLog::save(const std::string& path) const {
  if (path.empty() || path == "none") return false;
  util::write_text_file(path, json() + "\n");
  return true;
}

}  // namespace tsbo::api
