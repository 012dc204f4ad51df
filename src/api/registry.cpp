#include "api/registry.hpp"

#include "api/options.hpp"
#include "precond/chebyshev.hpp"
#include "precond/gauss_seidel.hpp"
#include "precond/jacobi.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/suitesparse_like.hpp"

namespace tsbo::api {

namespace {

using sparse::ord;

Registry<OrthoEntry> make_ortho_registry() {
  Registry<OrthoEntry> reg("ortho scheme");

  // Standard-GMRES orthogonalizations.
  {
    OrthoEntry e;
    e.description = "classical Gram-Schmidt, twice (3 reduces/step)";
    e.sstep = false;
    e.configure_gmres = [](const SolverOptions&, krylov::GmresConfig& cfg) {
      cfg.ortho = krylov::GmresConfig::Ortho::kCgs2;
    };
    reg.add("cgs2", e);
  }
  {
    OrthoEntry e;
    e.description = "modified Gram-Schmidt (O(k) reduces/step)";
    e.sstep = false;
    e.configure_gmres = [](const SolverOptions&, krylov::GmresConfig& cfg) {
      cfg.ortho = krylov::GmresConfig::Ortho::kMgs;
    };
    reg.add("mgs", e);
  }

  // s-step block orthogonalizations (Table III columns + diagnostics).
  const auto scheme_entry = [&reg](const std::string& name,
                                   std::string description,
                                   krylov::ManagerFactory factory) {
    OrthoEntry e;
    e.description = std::move(description);
    e.sstep = true;
    e.configure_sstep = [factory = std::move(factory)](
                            const SolverOptions&, krylov::SStepGmresConfig& cfg) {
      cfg.manager_factory = factory;
    };
    reg.add(name, e);
  };
  scheme_entry("bcgs2", "BCGS2 + CholQR2, the original s-step (5 reduces/panel)",
               [](const krylov::SStepGmresConfig&) {
                 return ortho::make_bcgs2_manager(ortho::IntraKind::kCholQR2);
               });
  scheme_entry("bcgs2_hhqr", "BCGS2 + Householder QR, stability reference",
               [](const krylov::SStepGmresConfig&) {
                 return ortho::make_bcgs2_manager(ortho::IntraKind::kHHQR);
               });
  scheme_entry("bcgs_pip", "single-pass BCGS-PIP (1 reduce, no re-ortho)",
               [](const krylov::SStepGmresConfig&) {
                 return ortho::make_bcgs_pip_manager();
               });
  scheme_entry("bcgs_pip2", "BCGS-PIP2, the paper's one-stage (2 reduces)",
               [](const krylov::SStepGmresConfig&) {
                 return ortho::make_bcgs_pip2_manager();
               });
  scheme_entry("two_stage",
               "the paper's two-stage scheme (1 + s/bs reduces/panel)",
               krylov::make_two_stage);
  return reg;
}

Registry<PrecondEntry> make_precond_registry() {
  Registry<PrecondEntry> reg("preconditioner");
  {
    PrecondEntry e;
    e.description = "unpreconditioned";
    e.make = [](const SolverOptions&, const sparse::DistCsr&) {
      return std::unique_ptr<precond::Preconditioner>();
    };
    reg.add("none", e);
  }
  {
    PrecondEntry e;
    e.description = "point Jacobi (diagonal scaling)";
    e.make = [](const SolverOptions&, const sparse::DistCsr& a) {
      return std::unique_ptr<precond::Preconditioner>(
          std::make_unique<precond::Jacobi>(a));
    };
    reg.add("jacobi", e);
  }
  {
    PrecondEntry e;
    e.description = "local multicolor Gauss-Seidel (paper Fig. 13)";
    e.make = [](const SolverOptions& opts, const sparse::DistCsr& a) {
      return std::unique_ptr<precond::Preconditioner>(
          std::make_unique<precond::MulticolorGaussSeidel>(
              a, opts.precond_sweeps, /*symmetric=*/false));
    };
    reg.add("mc-gs", e);
  }
  {
    PrecondEntry e;
    e.description = "local symmetric multicolor Gauss-Seidel";
    e.make = [](const SolverOptions& opts, const sparse::DistCsr& a) {
      return std::unique_ptr<precond::Preconditioner>(
          std::make_unique<precond::MulticolorGaussSeidel>(
              a, opts.precond_sweeps, /*symmetric=*/true));
    };
    reg.add("mc-sgs", e);
  }
  {
    PrecondEntry e;
    e.description =
        "local Chebyshev polynomial (precond_degree; explicit interval via "
        "precond_lambda_min/max, else power-method estimate)";
    e.make = [](const SolverOptions& opts, const sparse::DistCsr& a) {
      if (chebyshev_explicit_interval(opts)) {
        return std::unique_ptr<precond::Preconditioner>(
            std::make_unique<precond::ChebyshevPolynomial>(
                a, opts.precond_degree, opts.precond_lambda_min,
                opts.precond_lambda_max));
      }
      return std::unique_ptr<precond::Preconditioner>(
          std::make_unique<precond::ChebyshevPolynomial>(
              a, opts.precond_degree));
    };
    reg.add("chebyshev", e);
  }
  return reg;
}

Registry<MatrixEntry> make_matrix_registry() {
  Registry<MatrixEntry> reg("matrix source");
  const auto grid2d = [&reg](const std::string& name, std::string description,
                             sparse::CsrMatrix (*gen)(ord, ord)) {
    MatrixEntry e;
    e.description = std::move(description);
    e.make = [gen](const SolverOptions& o) {
      return gen(static_cast<ord>(o.nx), static_cast<ord>(o.ny_or_nx()));
    };
    reg.add(name, e);
  };
  const auto grid3d = [&reg](const std::string& name, std::string description,
                             sparse::CsrMatrix (*gen)(ord, ord, ord)) {
    MatrixEntry e;
    e.description = std::move(description);
    e.make = [gen](const SolverOptions& o) {
      return gen(static_cast<ord>(o.nx), static_cast<ord>(o.ny_or_nx()),
                 static_cast<ord>(o.nz_or_nx()));
    };
    reg.add(name, e);
  };

  grid2d("laplace2d_5pt", "2-D Laplace, 5-pt stencil (paper Table II)",
         sparse::laplace2d_5pt);
  grid2d("laplace2d_9pt", "2-D Laplace, 9-pt stencil (paper Table III)",
         sparse::laplace2d_9pt);
  grid3d("laplace3d_7pt", "3-D Laplace, 7-pt stencil (paper Table IV)",
         sparse::laplace3d_7pt);
  grid3d("laplace3d_27pt", "3-D Laplace, 27-pt stencil",
         sparse::laplace3d_27pt);
  {
    MatrixEntry e;
    e.description =
        "3-D convection-diffusion, upwinded wind (1, 0.5, 0.25); "
        "nonsymmetric";
    e.make = [](const SolverOptions& o) {
      return sparse::convection_diffusion3d(
          static_cast<ord>(o.nx), static_cast<ord>(o.ny_or_nx()),
          static_cast<ord>(o.nz_or_nx()), 1.0, 0.5, 0.25);
    };
    reg.add("convection_diffusion3d", e);
  }
  {
    MatrixEntry e;
    e.description = "3-D elasticity-like, 3 dofs/node, 7-pt per component";
    e.make = [](const SolverOptions& o) {
      return sparse::elasticity3d(static_cast<ord>(o.nx),
                                  static_cast<ord>(o.ny_or_nx()),
                                  static_cast<ord>(o.nz_or_nx()));
    };
    reg.add("elasticity3d", e);
  }
  {
    MatrixEntry e;
    e.description = "3-D elasticity-like, 27-pt per component (ML_Geer-ish)";
    e.make = [](const SolverOptions& o) {
      return sparse::elasticity3d(static_cast<ord>(o.nx),
                                  static_cast<ord>(o.ny_or_nx()),
                                  static_cast<ord>(o.nz_or_nx()),
                                  /*wide=*/true);
    };
    reg.add("elasticity3d_wide", e);
  }
  {
    MatrixEntry e;
    e.description =
        "2-D heterogeneous diffusion, 9-pt, lognormal conductivities over "
        "2.5 decades";
    e.make = [](const SolverOptions& o) {
      return sparse::heterogeneous2d(static_cast<ord>(o.nx),
                                     static_cast<ord>(o.ny_or_nx()),
                                     /*nine_point=*/true, 2.5, /*seed=*/7);
    };
    reg.add("heterogeneous2d", e);
  }
  {
    MatrixEntry e;
    e.description = "3-D anisotropic diffusion (1, 1e-2, 1e-2)";
    e.make = [](const SolverOptions& o) {
      return sparse::anisotropic3d(static_cast<ord>(o.nx),
                                   static_cast<ord>(o.ny_or_nx()),
                                   static_cast<ord>(o.nz_or_nx()), 1e-2, 1e-2);
    };
    reg.add("anisotropic3d", e);
  }
  // The paper's SuiteSparse surrogates, sized by the `n` key.
  for (const std::string& name : sparse::surrogate_names()) {
    MatrixEntry e;
    e.description = "SuiteSparse surrogate (paper Table IV / Fig. 9)";
    e.make = [name](const SolverOptions& o) {
      return sparse::make_surrogate(name, o.n > 0 ? static_cast<ord>(o.n)
                                                  : static_cast<ord>(40000))
          .matrix;
    };
    reg.add(name, e);
  }
  {
    MatrixEntry e;
    e.description = "MatrixMarket file named by matrix_file";
    e.make = [](const SolverOptions& o) {
      if (o.matrix_file.empty()) {
        throw std::invalid_argument(
            "api: matrix=file requires matrix_file=<path>");
      }
      return sparse::read_matrix_market_file(o.matrix_file);
    };
    reg.add("file", e);
  }
  return reg;
}

}  // namespace

bool chebyshev_explicit_interval(const SolverOptions& opts) {
  return opts.precond_lambda_max > opts.precond_lambda_min &&
         opts.precond_lambda_max > 0.0;
}

Registry<OrthoEntry>& ortho_registry() {
  static Registry<OrthoEntry> reg = make_ortho_registry();
  return reg;
}

Registry<PrecondEntry>& precond_registry() {
  static Registry<PrecondEntry> reg = make_precond_registry();
  return reg;
}

Registry<MatrixEntry>& matrix_registry() {
  static Registry<MatrixEntry> reg = make_matrix_registry();
  return reg;
}

}  // namespace tsbo::api
