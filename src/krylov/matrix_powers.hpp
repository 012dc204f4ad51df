#pragma once
// Matrix-powers kernel (paper Fig. 1 lines 6-9, Fig. 5 lines 4-12).
//
// The paper's Trilinos implementation deliberately uses the *standard*
// MPK — s sequential applications of (preconditioned) SpMV, each with
// neighborhood communication — rather than a communication-avoiding
// MPK, because CA-MPK composes poorly with general preconditioners
// (Section III).  We implement the same, driving DistCsr::spmm, whose
// split-phase halo exchange overlaps each of the s exchanges with the
// interior rows of its own product (the modeled p2p latency is
// discounted by that compute; see par/communicator.hpp).

#include "krylov/basis.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/dist_csr.hpp"
#include "util/aligned.hpp"

namespace tsbo::krylov {

/// The solver's operator: y = A M^{-1} x (right preconditioning), or
/// plain y = A x when no preconditioner is attached.
class PrecOperator {
 public:
  PrecOperator(const sparse::DistCsr& a, const precond::Preconditioner* m)
      : a_(a), m_(m) {}

  [[nodiscard]] const sparse::DistCsr& matrix() const { return a_; }
  [[nodiscard]] const precond::Preconditioner* preconditioner() const {
    return m_;
  }

  /// Y = A M^{-1} X on column-major rank-local views of any width:
  /// apply_minv() then ONE halo exchange for all columns
  /// (DistCsr::spmm).
  void apply(par::Communicator& comm, dense::ConstMatrixView x,
             dense::MatrixView y, util::PhaseTimers* timers) const;

  /// Applies only M^{-1} (for recovering x from the preconditioned
  /// correction) through Preconditioner::apply_multi; a copy when no
  /// preconditioner is attached.
  void apply_minv(dense::ConstMatrixView x, dense::MatrixView y,
                  util::PhaseTimers* timers) const;

 private:
  const sparse::DistCsr& a_;
  const precond::Preconditioner* m_;
  mutable util::aligned_vector<double> tmp_;  ///< M^{-1} X, grown lazily
};

/// Runs MPK over a block of b columns: fills basis BLOCK columns
/// [first_out, first_out + s) — each block is b flat columns — from the
/// recurrence v_{k+1} = (Op x_k - theta_k x_k - sigma_k v_{k-1}) /
/// gamma_k applied blockwise, where the step index is counted in blocks
/// (block j is generated with basis.step(j - 1)).  Each of the s steps
/// costs one operator application (PrecOperator::apply): one
/// preconditioner pass and ONE halo exchange for all b columns.  The
/// theta/sigma/gamma pass that follows (skipped for monomial steps) is
/// element-wise over the rank's lanes and timed as spmv/local.
void matrix_powers(par::Communicator& comm, const PrecOperator& op,
                   const KrylovBasis& basis, dense::MatrixView basis_cols,
                   index_t first_out, index_t s, util::PhaseTimers* timers,
                   index_t b = 1);

}  // namespace tsbo::krylov
