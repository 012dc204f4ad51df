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
// column.  The two blocks are the only store of the rank's rows.  One
// apply, spmm(), serves every column count k: pack the owned entries
// -> exchange_begin -> interior rows -> ghost copy + exchange_end ->
// boundary rows, hiding the modeled p2p latency behind the interior
// rows exactly like an MPI code posting Irecv/Isend around its interior
// sweep.  Both blocks keep each row's entries in CSR order and the
// per-row kernels are the serial ones, so the split product is bitwise
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
  [[nodiscard]] ord n_local() const { return partition_.local_rows(rank_); }
  [[nodiscard]] ord n_ghost() const { return static_cast<ord>(ghost_gid_.size()); }
  [[nodiscard]] ord row_begin() const { return partition_.begin(rank_); }
  [[nodiscard]] const RowPartition& partition() const { return partition_; }
  /// Nonzeros of this rank's rows.
  [[nodiscard]] offset nnz_local() const {
    return interior_.nnz() + boundary_.nnz();
  }

  /// Interior/boundary row split (ghost-free vs ghost-touching rows),
  /// as ascending local row ids.
  [[nodiscard]] std::span<const ord> interior_rows() const {
    return interior_rows_;
  }
  [[nodiscard]] std::span<const ord> boundary_rows() const {
    return boundary_rows_;
  }

  /// Visits every local row once as f(local_row, cols, vals): columns
  /// are remapped ([0, n_local) owned, then n_local + ghost slot) and
  /// entries keep their CSR order.  Interior rows come first, then
  /// boundary rows, each block in ascending row order.
  template <class F>
  void for_each_local_row(F&& f) const {
    visit_rows(interior_, interior_rows_, f);
    visit_rows(boundary_, boundary_rows_, f);
  }

  /// Ghost-stripped rank-local diagonal block (block-Jacobi substrate
  /// shared by the local preconditioners), entry order per row
  /// preserved.
  [[nodiscard]] CsrMatrix local_diagonal_block() const;

  /// Y = A X on the rank-local row blocks (column-major views, any
  /// column count k >= 1) with ONE halo exchange: the owned entries are
  /// packed k-interleaved (entry (j, t) at j*k + t) so each ghost row
  /// travels as k consecutive values and the per-peer wire volume
  /// scales by k.  The pack completes before exchange_begin publishes
  /// the buffer, so peers always read a consistent span.  The interior
  /// rows run while the modeled halo latency progresses; `timers`
  /// (optional) receives the kSpmvComm and kSpmvLocal phases.  One
  /// column runs the single-vector kernel (gather-vectorized wide
  /// rows); wider blocks run the per-column serial kernel.
  void spmm(par::Communicator& comm, dense::ConstMatrixView x_local,
            dense::MatrixView y_local, util::PhaseTimers* timers = nullptr) const;

  /// y_local = A x_local: spmm() on one column.
  void spmv(par::Communicator& comm, std::span<const double> x_local,
            std::span<double> y_local, util::PhaseTimers* timers = nullptr) const {
    const auto n = static_cast<dense::index_t>(x_local.size());
    spmm(comm, dense::ConstMatrixView{x_local.data(), n, 1, n},
         dense::MatrixView{y_local.data(), n, 1, n}, timers);
  }

  /// Approximate heap footprint of this rank's piece: the two CSR
  /// blocks, the row maps, the ghost/comm-plan arrays, and the halo
  /// buffer.  Used by the operator cache's byte budget.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return interior_.storage_bytes() + boundary_.storage_bytes() +
           (interior_rows_.capacity() + boundary_rows_.capacity() +
            ghost_gid_.capacity() + ghost_peer_offset_.capacity()) *
               sizeof(ord) +
           ghost_owner_.capacity() * sizeof(int) +
           (peer_recv_bytes_.capacity() + peer_recv_bytes_k_.capacity()) *
               sizeof(std::size_t) +
           xbuf_.capacity() * sizeof(double);
  }

 private:
  template <class F>
  static void visit_rows(const CsrMatrix& block, std::span<const ord> rows,
                         F& f) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto b = static_cast<std::size_t>(block.row_ptr[i]);
      const auto len = static_cast<std::size_t>(block.row_ptr[i + 1]) - b;
      f(rows[i], std::span<const ord>(block.col_idx.data() + b, len),
        std::span<const double>(block.values.data() + b, len));
    }
  }

  /// Fault seam of the apply: consults the `spmv.interior` and
  /// `comm.exchange` sites once per apply on the completed y (see the
  /// definition for the rank-count-invariance argument).
  void consult_spmv_faults(par::Communicator& comm,
                           std::span<double> y_local) const;

  int rank_;
  RowPartition partition_;
  // Columns remapped: [0, nlocal) own, then nlocal + ghost slot.
  CsrMatrix interior_;          // ghost-free rows (row i -> interior_rows_[i])
  CsrMatrix boundary_;          // ghost-touching rows
  std::vector<ord> interior_rows_;
  std::vector<ord> boundary_rows_;
  std::vector<ord> ghost_gid_;  // sorted global ids of ghost columns
  std::vector<int> ghost_owner_;
  std::vector<ord> ghost_peer_offset_;  // gid - peer row_begin
  std::vector<std::size_t> peer_recv_bytes_;  // per-peer pull sizes, one column
  // Apply scratch, grown lazily to the widest k seen: the k-interleaved
  // operand [owned | ghosts] and the k-scaled per-peer pull sizes.
  mutable util::aligned_vector<double> xbuf_;
  mutable std::vector<std::size_t> peer_recv_bytes_k_;
};

}  // namespace tsbo::sparse
