#pragma once
// Distributed CSR with halo exchange (Tpetra-style import).
//
// Each rank owns a contiguous block of rows (1-D block row format); the
// off-rank vector entries its rows touch are "ghosts" gathered by a
// neighbor exchange before every product.  This is the paper's standard
// (non-communication-avoiding) matrix-powers substrate: SpMV applied s
// times in sequence, each with neighborhood communication (Section III).
//
// Split-phase overlap: the local rows are partitioned deterministically
// (ascending row order) into an INTERIOR block — rows touching only
// owned columns — and a BOUNDARY block — rows with at least one ghost
// column.  spmv() runs exchange_begin -> interior SpMV -> ghost gather
// + exchange_end -> boundary SpMV, hiding the modeled p2p latency
// behind the interior rows exactly like an MPI code posting
// Irecv/Isend around its interior sweep.  Both blocks reuse the
// spmv_rows per-row kernel unchanged, so the split product is bitwise
// identical to the unsplit one at any rank/thread count.

#include "dense/matrix.hpp"
#include "par/communicator.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"
#include "util/timer.hpp"
#include "util/aligned.hpp"

#include <span>
#include <vector>

namespace tsbo::sparse {

class DistCsr {
 public:
  /// Builds rank `rank`'s piece of `global` (the global matrix is only
  /// read, not retained).  All ranks must use the same partition.
  DistCsr(const CsrMatrix& global, const RowPartition& partition, int rank);

  [[nodiscard]] ord n_global() const { return partition_.n(); }
  [[nodiscard]] ord n_local() const { return local_.rows; }
  [[nodiscard]] ord n_ghost() const { return static_cast<ord>(ghost_gid_.size()); }
  [[nodiscard]] ord row_begin() const { return partition_.begin(rank_); }
  [[nodiscard]] const RowPartition& partition() const { return partition_; }
  [[nodiscard]] const CsrMatrix& local_matrix() const { return local_; }
  /// Global nnz summed over ranks (identical on all ranks).
  [[nodiscard]] offset nnz_local() const { return local_.nnz(); }

  /// Interior/boundary row split (ghost-free vs ghost-touching rows).
  /// Row i of interior_matrix() is local row interior_rows()[i]; same
  /// for the boundary block.  Exposed for halo-reusing consumers
  /// (preconditioners, tests).  Footprint note: the blocks replicate
  /// local_'s entries (interior nnz + boundary nnz == local nnz), so a
  /// rank stores its rows twice — the price of serving both the
  /// overlapped split product and the row-ordered local_matrix()
  /// consumers (norm estimates, preconditioner setup) without a merge
  /// on every access.
  [[nodiscard]] const CsrMatrix& interior_matrix() const { return interior_; }
  [[nodiscard]] const CsrMatrix& boundary_matrix() const { return boundary_; }
  [[nodiscard]] std::span<const ord> interior_rows() const {
    return interior_rows_;
  }
  [[nodiscard]] std::span<const ord> boundary_rows() const {
    return boundary_rows_;
  }

  /// Ghost-stripped rank-local diagonal block (block-Jacobi substrate
  /// shared by the local preconditioners).  Interior rows are copied
  /// verbatim — by construction they hold no ghost columns — and only
  /// boundary rows are filtered; entry order per row is preserved, so
  /// the result is identical to filtering every row.
  [[nodiscard]] CsrMatrix local_diagonal_block() const;

  /// y_local = A x with compute-communication overlap: one neighbor
  /// exchange is opened on `comm`, the interior rows are multiplied
  /// while the modeled halo latency progresses, then the ghosts are
  /// gathered and the boundary rows finish.  `timers` (optional)
  /// receives "spmv/comm" and "spmv/local" phases.
  void spmv(par::Communicator& comm, std::span<const double> x_local,
            std::span<double> y_local, util::PhaseTimers* timers = nullptr) const;

  /// Multi-column product Y = A X (rank-local row blocks, column-major
  /// views) with ONE halo exchange regardless of the column count k:
  /// the owned entries are packed k-interleaved (entry (j, t) at
  /// j*k + t) so each ghost row travels as k consecutive values, the
  /// per-peer wire volume scales by k, and the interior/boundary split
  /// with split-phase overlap is preserved exactly as in spmv().  The
  /// pack completes before exchange_begin publishes the buffer, so
  /// peers always read a consistent interleaved span.  Per-column
  /// accumulation uses the plain serial row kernel (no SIMD gather),
  /// whose bits differ from spmv()'s gather-vectorized wide rows, so a
  /// one-column product runs spmv() itself: width-1 callers get the
  /// single-vector bits.
  void spmm(par::Communicator& comm, dense::ConstMatrixView x_local,
            dense::MatrixView y_local, util::PhaseTimers* timers = nullptr) const;

  /// Local-only product assuming ghosts are already in place (used by
  /// preconditioners that reuse a gathered halo).
  void spmv_local_only(std::span<const double> x_local,
                       std::span<double> y_local) const;

  /// Performs just the halo gather into the internal buffer.
  void gather_ghosts(par::Communicator& comm,
                     std::span<const double> x_local) const;

  /// Approximate heap footprint of this rank's piece: the three CSR
  /// blocks, the ghost/comm-plan arrays, and the halo buffer.  Used by
  /// the operator cache's byte budget.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return local_.storage_bytes() + interior_.storage_bytes() +
           boundary_.storage_bytes() +
           (interior_rows_.capacity() + boundary_rows_.capacity() +
            ghost_gid_.capacity() + ghost_peer_offset_.capacity()) *
               sizeof(ord) +
           ghost_owner_.capacity() * sizeof(int) +
           (peer_recv_bytes_.capacity() + peer_recv_bytes_k_.capacity()) *
               sizeof(std::size_t) +
           (xbuf_.capacity() + xkbuf_.capacity()) * sizeof(double);
  }

 private:
  /// Copies peers' published values into the ghost tail of xbuf_;
  /// valid only between exchange_begin and exchange_end.
  void fill_ghosts(par::Communicator& comm) const;

  /// Fault seam of spmv(): consults the `spmv.interior` and
  /// `comm.exchange` sites once per apply on the completed y (see the
  /// definition for the rank-count-invariance argument).
  void consult_spmv_faults(par::Communicator& comm,
                           std::span<double> y_local) const;

  int rank_;
  RowPartition partition_;
  CsrMatrix local_;             // columns remapped: [0,nlocal) own, then ghosts
  CsrMatrix interior_;          // ghost-free rows (row i -> interior_rows_[i])
  CsrMatrix boundary_;          // ghost-touching rows
  std::vector<ord> interior_rows_;
  std::vector<ord> boundary_rows_;
  std::vector<ord> ghost_gid_;  // sorted global ids of ghost columns
  std::vector<int> ghost_owner_;
  std::vector<ord> ghost_peer_offset_;  // gid - peer row_begin
  std::vector<std::size_t> peer_recv_bytes_;  // per-peer pull sizes
  mutable util::aligned_vector<double> xbuf_;    // [x_local | ghosts]
  // spmm scratch, sized lazily per apply: the k-interleaved operand
  // [owned | ghosts] and the k-scaled per-peer pull sizes.
  mutable util::aligned_vector<double> xkbuf_;
  mutable std::vector<std::size_t> peer_recv_bytes_k_;
};

}  // namespace tsbo::sparse
