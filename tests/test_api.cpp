// The api facade layer: SolverOptions parse/serialize round-trips and
// rejection behaviour, registry coverage for every scheme /
// preconditioner / matrix-source name, the SolveReport JSON schema, the
// per-restart observer, Cli typo rejection, and facade-vs-direct-krylov
// equivalence.

#include "api/solver.hpp"
#include "krylov/sstep_gmres.hpp"
#include "ortho/manager.hpp"
#include "par/spmd.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/partition.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace {

using namespace tsbo;

// ---- SolverOptions ---------------------------------------------------

TEST(SolverOptions, ParseSerializeRoundTrip) {
  const api::SolverOptions a = api::SolverOptions::parse(
      "solver=sstep ortho=bcgs_pip2 basis=newton precond=jacobi m=30 s=3 "
      "bs=15 rtol=2.5e-9 max_iters=12345 max_restarts=7 lambda_min=0.01 "
      "lambda_max=8 mixed_precision_gram=1 breakdown=throw ranks=3 "
      "net=ethernet matrix=laplace3d_7pt nx=12 ny=10 nz=8 equilibrate=1 "
      "autopilot=1 ap_kappa_high=5e7 ap_kappa_low=1e4 ap_s_min=2 "
      "ap_patience=3");
  const api::SolverOptions b = api::SolverOptions::parse(a.to_kv());
  EXPECT_EQ(a, b);
  // And through the one-line echo.
  const api::SolverOptions c = api::SolverOptions::parse(a.to_string());
  EXPECT_EQ(a, c);
  // Spot-check lowered values.
  EXPECT_EQ(b.m, 30);
  EXPECT_EQ(b.rtol, 2.5e-9);
  EXPECT_TRUE(b.mixed_precision_gram);
  EXPECT_EQ(b.breakdown, "throw");
}

TEST(SolverOptions, SpecRoundTripQuotesWhitespaceValues) {
  api::SolverOptions a = api::SolverOptions::parse("matrix=file");
  a.matrix_file = "/data/my matrix.mtx";
  EXPECT_NE(a.to_string().find("matrix_file=\"/data/my matrix.mtx\""),
            std::string::npos);
  EXPECT_EQ(api::SolverOptions::parse(a.to_string()), a);
  EXPECT_THROW(api::SolverOptions::parse("matrix_file=\"unterminated"),
               std::invalid_argument);
}

TEST(SolverOptions, DefaultOrthoResolvesPerSolver) {
  EXPECT_EQ(api::SolverOptions::parse("solver=sstep").ortho, "two_stage");
  EXPECT_EQ(api::SolverOptions::parse("solver=gmres").ortho, "cgs2");
  // A default-constructed struct (never through parse()) must still
  // validate and lower: "" resolves at use via resolved_ortho().
  const api::SolverOptions raw;
  EXPECT_NO_THROW(raw.validate());
  EXPECT_NO_THROW(raw.sstep_config());
}

TEST(SolverOptions, SolverOverlayResetsIncompatibleInheritedOrtho) {
  // "solver=gmres" on an s-step base (ortho already resolved to
  // two_stage) must fall back to the gmres default...
  const api::SolverOptions base = api::SolverOptions::parse("solver=sstep");
  EXPECT_EQ(api::SolverOptions::parse("solver=gmres", base).ortho, "cgs2");
  // ...but an explicit or compatible scheme is preserved.
  EXPECT_EQ(api::SolverOptions::parse("solver=gmres ortho=mgs", base).ortho,
            "mgs");
  const api::SolverOptions gbase =
      api::SolverOptions::parse("solver=gmres ortho=mgs");
  EXPECT_EQ(api::SolverOptions::parse("solver=sstep", gbase).ortho,
            "two_stage");
  EXPECT_EQ(api::SolverOptions::parse("rtol=1e-8", gbase).ortho, "mgs");
}

TEST(SolverOptions, RejectsUnknownKeyWithSuggestion) {
  try {
    api::SolverOptions::parse("shceme=two_stage");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shceme"), std::string::npos) << msg;
  }
  try {
    api::SolverOptions::parse("mx=100");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Levenshtein distance 1 from "nx": suggestion expected.
    EXPECT_NE(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(SolverOptions, RejectsInvalidValues) {
  EXPECT_THROW(api::SolverOptions::parse("m=abc"), std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("m=12x"), std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("rtol=tiny"), std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("mixed_precision_gram=2"),
               std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("key-without-value"),
               std::invalid_argument);
}

TEST(SolverOptions, RejectsOutOfRangeValuesWithRangeText) {
  // Numeric keys that parse fine but violate their range must fail at
  // validate() with a message naming the key, the offending value, and
  // the accepted range (the same spirit as the did-you-mean hint).
  const auto expect_range_error = [](const std::string& spec,
                                     const std::string& needle) {
    try {
      api::SolverOptions::parse(spec).validate();
      FAIL() << "expected invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  };
  expect_range_error("m=0", "m=0");
  expect_range_error("s=-3", "s=-3");
  expect_range_error("ranks=0", "ranks=0");
  expect_range_error("rtol=-1e-6", "a finite number > 0");
  expect_range_error("ny=-2", "0 inherits nx");
  expect_range_error("ap_s_min=0", "ap_s_min=0");
  expect_range_error("solver=sstep autopilot=1 ap_kappa_high=1e3",
                     "a finite number > ap_kappa_low");
  expect_range_error("warm_start=2", "warm_start=2 out of range");
  expect_range_error("warm_start=-1", "expected 0 or 1");
  expect_range_error("lambda_min=nan", "a finite number");
  expect_range_error("lambda_max=inf", "a finite number");
  expect_range_error("precond_lambda_min=-inf", "a finite number");
  expect_range_error("precond_lambda_max=nan", "a finite number");

  // The autopilot's monitor lives in the s-step panel loop.
  try {
    api::SolverOptions::parse("solver=gmres autopilot=1").validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("requires solver=sstep"),
              std::string::npos);
  }
  // In-range values pass, including the autopilot knobs.
  EXPECT_NO_THROW(api::SolverOptions::parse(
                      "solver=sstep autopilot=1 ap_kappa_high=1e8 "
                      "ap_kappa_low=1e4 ap_s_min=2 ap_patience=3")
                      .validate());
}

TEST(SolverOptions, ValidateCatchesCrossFieldErrors) {
  // s-step-only scheme under standard GMRES (and vice versa).
  EXPECT_THROW(
      api::SolverOptions::parse("solver=gmres ortho=two_stage").validate(),
      std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("solver=sstep ortho=mgs").validate(),
               std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("solver=hybrid").validate(),
               std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("basis=legendre").validate(),
               std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("net=warp").validate(),
               std::invalid_argument);
  EXPECT_THROW(api::SolverOptions::parse("breakdown=retry").validate(),
               std::invalid_argument);
  // An unknown matrix source fails at validate(), not first solve().
  EXPECT_THROW(api::SolverOptions::parse("matrix=bogus_name").validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(api::SolverOptions::parse("solver=sstep").validate());
}

TEST(SolverOptions, FromCliReadsEveryKey) {
  const char* argv[] = {"prog", "--ortho=bcgs_pip2", "--m=30", "--s=3",
                        "--rtol=1e-4"};
  util::Cli cli(5, const_cast<char**>(argv));
  const api::SolverOptions opts = api::SolverOptions::from_cli(cli);
  EXPECT_EQ(opts.ortho, "bcgs_pip2");
  EXPECT_EQ(opts.m, 30);
  EXPECT_EQ(opts.s, 3);
  EXPECT_EQ(opts.rtol, 1e-4);
  // from_cli queried every option key, so nothing is "unknown".
  EXPECT_NO_THROW(cli.reject_unknown());
}

// ---- registries ------------------------------------------------------

TEST(Registries, OrthoCoversEverySchemeName) {
  const std::vector<std::string> names = api::ortho_registry().names();
  ASSERT_GE(names.size(), 7u);  // cgs2, mgs + 5 block schemes
  for (const std::string& name : names) {
    const api::OrthoEntry& entry = api::ortho_registry().at(name);
    EXPECT_FALSE(entry.description.empty()) << name;
    if (entry.sstep) {
      const api::SolverOptions opts =
          api::SolverOptions::parse("solver=sstep ortho=" + name);
      const krylov::SStepGmresConfig cfg = opts.sstep_config();
      const auto mgr = krylov::make_manager(cfg);
      ASSERT_NE(mgr, nullptr) << name;
      EXPECT_FALSE(mgr->name().empty()) << name;
    } else {
      const api::SolverOptions opts =
          api::SolverOptions::parse("solver=gmres ortho=" + name);
      EXPECT_NO_THROW(opts.gmres_config()) << name;
    }
  }
}

TEST(Registries, UnknownNameErrorsCarrySuggestions) {
  try {
    (void)api::ortho_registry().at("two_stge");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("two_stage"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known:"), std::string::npos) << msg;
  }
}

TEST(Registries, PrecondBuildsEveryEntry) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(8, 8);
  const sparse::RowPartition part(a.rows, 1);
  const sparse::DistCsr dist(a, part, 0);
  const api::SolverOptions opts = api::SolverOptions::parse("");
  for (const std::string& name : api::precond_registry().names()) {
    const api::PrecondEntry& entry = api::precond_registry().at(name);
    const auto prec = entry.make(opts, dist);
    if (name == "none") {
      EXPECT_EQ(prec, nullptr);
    } else {
      ASSERT_NE(prec, nullptr) << name;
      EXPECT_FALSE(prec->name().empty()) << name;
    }
  }
}

TEST(Registries, MatrixBuildsEverySource) {
  api::SolverOptions opts = api::SolverOptions::parse("");
  opts.nx = 6;
  opts.n = 400;  // keeps the surrogates small
  for (const std::string& name : api::matrix_registry().names()) {
    if (name == "file") continue;  // exercised below
    opts.matrix = name;
    const sparse::CsrMatrix a = api::make_matrix(opts);
    EXPECT_GT(a.rows, 0) << name;
    EXPECT_GT(a.nnz(), 0) << name;
  }
}

TEST(Registries, MatrixFileSourceRoundTripsThroughMatrixMarket) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(5, 5);
  const std::string path = ::testing::TempDir() + "tsbo_api_test.mtx";
  sparse::write_matrix_market_file(path, a);

  api::SolverOptions opts = api::SolverOptions::parse("matrix=file");
  EXPECT_THROW(api::make_matrix(opts), std::invalid_argument);  // no path
  opts.matrix_file = path;
  std::string label;
  const sparse::CsrMatrix b = api::make_matrix(opts, &label);
  EXPECT_EQ(label, path);
  EXPECT_TRUE(sparse::approx_equal(a, b, 1e-14));
}

TEST(Registries, SelfRegisteredSchemeRunsThroughManagerFactory) {
  // A "new" scheme plugs in by name: the entry routes through
  // SStepGmresConfig::manager_factory, the one scheme-dispatch path.
  api::OrthoEntry entry;
  entry.description = "test-only alias of the two-stage manager";
  entry.sstep = true;
  entry.configure_sstep = [](const api::SolverOptions&,
                             krylov::SStepGmresConfig& cfg) {
    cfg.manager_factory = krylov::make_two_stage;
  };
  api::ortho_registry().add("two_stage_alias", entry);

  const sparse::CsrMatrix a = sparse::laplace2d_5pt(16, 16);
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage_alias ranks=2 rtol=1e-6"));
  solver.set_matrix_ref(a, "laplace");
  const api::SolveReport rep = solver.solve();
  EXPECT_TRUE(rep.result.converged);
  EXPECT_EQ(rep.result.iters % 60, 0);  // two-stage granularity

  // The alias carries the two-stage factory's s <= bs <= m, s | bs check.
  api::Solver bad(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage_alias ranks=1 bs=7"));
  bad.set_matrix_ref(a, "laplace");
  EXPECT_THROW(bad.solve(), std::invalid_argument);
}

// ---- SolveReport JSON ------------------------------------------------

/// Keys of the flat JSON object named `name` in `text`, in order.
std::vector<std::string> object_keys(const std::string& text,
                                     const std::string& name) {
  std::vector<std::string> keys;
  const std::size_t open = text.find('{', text.find("\"" + name + "\""));
  const std::size_t close = text.find('}', open);
  for (std::size_t q = text.find('"', open); q < close;
       q = text.find('"', text.find(',', q))) {
    const std::size_t end = text.find('"', q + 1);
    keys.push_back(text.substr(q + 1, end - q - 1));
    if (text.find(',', end) > close) break;
  }
  return keys;
}

TEST(SolveReport, JsonMatchesGoldenSchema) {
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=16 ranks=2 "
      "rtol=1e-6"));
  const api::SolveReport rep = solver.solve();
  const std::string text = rep.json();

  std::string error;
  EXPECT_TRUE(util::json_validate(text, &error)) << error;

  // Golden schema: the keys every consumer (compare tooling, plotting)
  // relies on must be present.
  for (const char* needle :
       {"\"schema\": \"tsbo.solve_report/9\"", "\"options\"", "\"matrix\"",
        "\"environment\"", "\"ranks\"", "\"threads\"", "\"result\"",
        "\"converged\"", "\"iters\"", "\"restarts\"", "\"relres\"",
        "\"true_relres\"", "\"time\"", "\"spmv\"", "\"ortho\"", "\"total\"",
        "\"ortho_breakdown\"", "\"phase_seconds\"", "\"comm\"",
        "\"allreduces\"", "\"bytes_exchanged\"", "\"exposed_seconds\"",
        "\"overlapped_seconds\"", "\"service\"",
        "\"cache_hit\"", "\"warm_started\"", "\"reused\"", "\"history\"",
        "\"explicit_relres\"", "\"autopilot\"", "\"max_kappa_estimate\"",
        "\"rebase_recoveries\"", "\"final_s\"", "\"final_gram\"",
        "\"events\"",
        "\"ortho\": \"two_stage\"", "\"matrix\": \"laplace2d_5pt\""}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }
  // Keys dropped at /8 stay gone.
  for (const char* needle : {"\"lookahead_hits\"", "\"lookahead_misses\"",
                             "\"injected_seconds\""}) {
    EXPECT_EQ(text.find(needle), std::string::npos) << "stale " << needle;
  }
  // /9 dropped the reused.matrix / reused.partition aliases of cache_hit.
  EXPECT_EQ(object_keys(text, "reused"),
            (std::vector<std::string>{"precond_setup", "rhs"}));
  // phase_seconds lists the buckets this solve ran, in the phase
  // table's order (no preconditioner, no HHQR).
  EXPECT_EQ(object_keys(text, "phase_seconds"),
            (std::vector<std::string>{"ortho/chol", "ortho/dot", "ortho/reduce",
                                      "ortho/small", "ortho/trsm",
                                      "ortho/update", "spmv/comm",
                                      "spmv/local", "total"}));
  // The ortho breakdown and the ortho time are one sum.
  EXPECT_EQ(api::breakdown_of(rep.result).total(), rep.result.time_ortho());
  // The options echo must itself re-parse to the run's options.
  EXPECT_EQ(api::SolverOptions::parse(rep.options.to_string()), rep.options);
}

TEST(SolveReport, ReportLogAggregatesAndSaves) {
  api::Solver solver(api::SolverOptions::parse(
      "solver=gmres matrix=laplace2d_5pt nx=12 ranks=1 rtol=1e-6"));
  api::ReportLog log("test_log");
  log.add(solver.solve());
  log.add(solver.solve());
  ASSERT_EQ(log.size(), 2u);

  std::string error;
  EXPECT_TRUE(util::json_validate(log.json(), &error)) << error;
  EXPECT_NE(log.json().find("tsbo.report_log/1"), std::string::npos);

  EXPECT_FALSE(log.save(""));      // no-op sinks
  EXPECT_FALSE(log.save("none"));
  const std::string path = ::testing::TempDir() + "tsbo_api_log.json";
  EXPECT_TRUE(log.save(path));
}

// ---- observer --------------------------------------------------------

TEST(Observer, HistoryRecordsEveryRestart) {
  // Tight tolerance + capped restarts: a fixed number of cycles.
  api::Solver solver(api::SolverOptions::parse(
      "solver=sstep ortho=two_stage matrix=laplace2d_5pt nx=24 ranks=2 "
      "rtol=1e-30 max_restarts=3"));
  int live_events = 0;
  solver.on_restart([&](const krylov::ProgressEvent& ev) {
    ++live_events;
    EXPECT_GT(ev.iters, 0);
    EXPECT_NE(ev.timers, nullptr);
  });
  const api::SolveReport rep = solver.solve();

  EXPECT_EQ(rep.result.restarts, 3);
  ASSERT_EQ(rep.history.size(), 3u);
  EXPECT_EQ(live_events, 3);
  for (std::size_t i = 0; i < rep.history.size(); ++i) {
    EXPECT_EQ(rep.history[i].restart, static_cast<int>(i) + 1);
    if (i > 0) EXPECT_GT(rep.history[i].iters, rep.history[i - 1].iters);
    EXPECT_GT(rep.history[i].explicit_relres, 0.0);
  }
  // Residual decreases across cycles on this SPD-ish problem.
  EXPECT_LT(rep.history.back().explicit_relres,
            rep.history.front().explicit_relres);
}

// ---- facade vs direct krylov ----------------------------------------

TEST(Facade, MatchesDirectKrylovRun) {
  const sparse::CsrMatrix a = sparse::laplace2d_5pt(20, 20);
  const std::vector<double> b = api::ones_rhs(a);

  api::Solver solver(
      api::SolverOptions::parse("solver=sstep ortho=bcgs_pip2 rtol=1e-7 "
                                "ranks=2"));
  solver.set_matrix_ref(a, "laplace");
  solver.set_rhs(b);
  const api::SolveReport rep = solver.solve();

  krylov::SolveResult direct;
  std::vector<double> x_direct(b.size(), 0.0);
  par::spmd_run(2, [&](par::Communicator& comm) {
    const sparse::RowPartition part(a.rows, comm.size());
    const sparse::DistCsr dist(a, part, comm.rank());
    const auto begin = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto nloc = static_cast<std::size_t>(dist.n_local());
    std::vector<double> x(nloc, 0.0);
    krylov::SStepGmresConfig cfg;
    cfg.manager_factory = [](const krylov::SStepGmresConfig&) {
      return ortho::make_bcgs_pip2_manager();
    };
    cfg.rtol = 1e-7;
    const auto rows = static_cast<dense::index_t>(nloc);
    const auto res = krylov::sstep_gmres(
        comm, dist, nullptr,
        dense::ConstMatrixView{b.data() + begin, rows, 1, rows},
        dense::MatrixView{x.data(), rows, 1, rows}, cfg);
    std::copy(x.begin(), x.end(),
              x_direct.begin() + static_cast<std::ptrdiff_t>(begin));
    if (comm.rank() == 0) direct = res;
  });

  EXPECT_EQ(rep.result.iters, direct.iters);
  EXPECT_EQ(rep.result.converged, direct.converged);
  EXPECT_EQ(rep.result.comm_stats.allreduces, direct.comm_stats.allreduces);
  const std::vector<double>& x_facade = solver.solution();
  ASSERT_EQ(x_facade.size(), x_direct.size());
  for (std::size_t i = 0; i < x_direct.size(); ++i) {
    EXPECT_EQ(x_facade[i], x_direct[i]);  // identical arithmetic path
  }
}

// ---- util::Cli typo rejection ---------------------------------------

TEST(Cli, RejectUnknownFlagsTyposWithSuggestion) {
  const char* argv[] = {"prog", "--nx=32", "--shceme=two_stage"};
  util::Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("nx", 0), 32);
  (void)cli.get("scheme", "");  // the key the harness actually reads
  try {
    cli.reject_unknown();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--shceme"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean --scheme?"), std::string::npos) << msg;
  }
}

TEST(Cli, RejectUnknownPassesWhenAllKeysQueried) {
  const char* argv[] = {"prog", "--nx=32", "--rtol=1e-8"};
  util::Cli cli(3, const_cast<char**>(argv));
  (void)cli.get_int("nx", 0);
  (void)cli.get_double("rtol", 0.0);
  EXPECT_NO_THROW(cli.reject_unknown());
  EXPECT_EQ(cli.keys(), (std::vector<std::string>{"nx", "rtol"}));
}

TEST(Cli, DidYouMeanOnlySuggestsCloseNames) {
  EXPECT_EQ(util::did_you_mean("shceme", {"scheme", "ranks"}), "scheme");
  EXPECT_EQ(util::did_you_mean("zzz", {"scheme", "ranks"}), "");
}

// ---- util::json ------------------------------------------------------

TEST(Json, WriterEscapesAndValidates) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("text", "a\"b\\c\nd");
  w.kv("num", 1.5e-300);
  w.kv("count", 42);
  w.kv("flag", true);
  w.key("list").begin_array().value(1).value(2.5).value("x").end_array();
  w.key("nan_is_null").value(std::nan(""));
  w.end_object();
  const std::string text = w.str();
  std::string error;
  EXPECT_TRUE(util::json_validate(text, &error)) << error;
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("null"), std::string::npos);
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(util::json_validate("{", &error));
  EXPECT_FALSE(util::json_validate("{\"a\": }", &error));
  EXPECT_FALSE(util::json_validate("[1, 2,]", &error));
  EXPECT_FALSE(util::json_validate("{\"a\": 1} trailing", &error));
  EXPECT_FALSE(util::json_validate("{'a': 1}", &error));
  EXPECT_TRUE(util::json_validate("  {\"a\": [1, -2.5e3, null]} ", &error))
      << error;
}

TEST(Json, WriterThrowsOnScopeMisuse) {
  util::JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);   // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);
  EXPECT_THROW(w.str(), std::logic_error);      // open scope
}

}  // namespace
