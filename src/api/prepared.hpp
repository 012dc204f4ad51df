#pragma once
// The setup of a solve that depends only on the matrix and the rank
// count: each rank's DistCsr piece (partition, comm plan, interior /
// boundary blocks), its preconditioner setups and its solution
// scratch.  api::Solver solves against one, built on its first solve
// or borrowed through set_prepared(); the service's operator cache
// keeps one per cached operator.  Reusing it never changes bits: the
// pieces are immutable apart from their halo buffers, the setups are
// immutable once built, and the scratch is overwritten every solve.

#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/aligned.hpp"

#include <cstddef>
#include <memory>
#include <vector>

namespace tsbo::precond {
struct MulticolorSetup;
struct ChebyshevSetup;
}  // namespace tsbo::precond

namespace tsbo::api {

/// One rank's prepared state.
struct PreparedPiece {
  PreparedPiece(const sparse::CsrMatrix& a, const sparse::RowPartition& part,
                int rank)
      : dist(a, part, rank) {}

  sparse::DistCsr dist;
  /// Preconditioner setups, empty until precond_registry() builds one
  /// on first use (the Chebyshev slot holds only the power-method
  /// interval; an explicit interval is built fresh each solve).
  std::shared_ptr<const precond::MulticolorSetup> multicolor;
  std::shared_ptr<const precond::ChebyshevSetup> chebyshev;
  /// Whether this rank's last preconditioner came from a filled slot.
  bool setup_reused = false;
  /// The rank's local solution block (n_local * rhs doubles).
  util::aligned_vector<double> x;

  [[nodiscard]] std::size_t bytes() const;
};

/// Element r is rank r's piece.  A piece's halo buffer makes its
/// spmv non-reentrant, so two solves sharing one PreparedOperator must
/// not run concurrently.
class PreparedOperator {
 public:
  PreparedOperator() = default;
  /// Builds every rank's piece over the 1-D block row partition of `a`.
  PreparedOperator(const sparse::CsrMatrix& a, int ranks);

  [[nodiscard]] int ranks() const { return static_cast<int>(pieces_.size()); }
  PreparedPiece& operator[](int r) {
    return pieces_[static_cast<std::size_t>(r)];
  }

  /// Whether every rank's last preconditioner reused a cached setup.
  [[nodiscard]] bool setups_reused() const;

  /// Heap footprint: pieces, filled setup slots and scratch capacity.
  [[nodiscard]] std::size_t bytes() const;

 private:
  std::vector<PreparedPiece> pieces_;
};

}  // namespace tsbo::api
