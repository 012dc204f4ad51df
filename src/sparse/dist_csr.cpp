#include "sparse/dist_csr.hpp"

#include "par/config.hpp"
#include "sparse/spmv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

namespace tsbo::sparse {

namespace {

/// Copies the listed rows of `a` (ascending local row order) into a
/// standalone CSR block, preserving each row's entry order verbatim.
CsrMatrix extract_row_subset(const CsrMatrix& a, const std::vector<ord>& rows) {
  CsrMatrix out;
  out.rows = static_cast<ord>(rows.size());
  out.cols = a.cols;
  out.row_ptr.assign(rows.size() + 1, 0);
  offset nnz = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    nnz += a.row_ptr[rows[i] + 1] - a.row_ptr[rows[i]];
    out.row_ptr[i + 1] = nnz;
  }
  out.col_idx.resize(static_cast<std::size_t>(nnz));
  out.values.resize(static_cast<std::size_t>(nnz));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const offset src = a.row_ptr[rows[i]];
    const offset len = a.row_ptr[rows[i] + 1] - src;
    std::memcpy(out.col_idx.data() + out.row_ptr[i], a.col_idx.data() + src,
                static_cast<std::size_t>(len) * sizeof(ord));
    std::memcpy(out.values.data() + out.row_ptr[i], a.values.data() + src,
                static_cast<std::size_t>(len) * sizeof(double));
  }
  return out;
}

}  // namespace

DistCsr::DistCsr(const CsrMatrix& global, const RowPartition& partition,
                 int rank)
    : rank_(rank), partition_(partition.n(), partition.nranks()) {
  const ord begin = partition_.begin(rank);
  const ord end = partition_.end(rank);
  // Row-ordered local rows: construction scratch only, the interior and
  // boundary blocks cut from it below are the stored copy.
  CsrMatrix local = extract_rows(global, begin, end);

  // Collect off-rank (ghost) column ids.
  std::vector<ord> ghosts;
  for (const ord c : local.col_idx) {
    if (c < begin || c >= end) ghosts.push_back(c);
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  ghost_gid_ = std::move(ghosts);

  // Remap columns: own rows -> [0, nlocal), ghosts -> nlocal + slot.
  const ord nlocal = end - begin;
  for (ord& c : local.col_idx) {
    if (c >= begin && c < end) {
      c -= begin;
    } else {
      const auto it =
          std::lower_bound(ghost_gid_.begin(), ghost_gid_.end(), c);
      c = nlocal + static_cast<ord>(it - ghost_gid_.begin());
    }
  }
  local.cols = nlocal + static_cast<ord>(ghost_gid_.size());

  // Deterministic interior/boundary row partition: a row is interior
  // iff every column it touches is owned (< nlocal).  Ascending row
  // order in both lists keeps the split reproducible and the blocks'
  // per-row data bit-identical to the row-ordered matrix's.
  for (ord i = 0; i < local.rows; ++i) {
    bool has_ghost = false;
    for (offset k = local.row_ptr[i]; k < local.row_ptr[i + 1]; ++k) {
      if (local.col_idx[static_cast<std::size_t>(k)] >= nlocal) {
        has_ghost = true;
        break;
      }
    }
    (has_ghost ? boundary_rows_ : interior_rows_).push_back(i);
  }
  interior_ = extract_row_subset(local, interior_rows_);
  boundary_ = extract_row_subset(local, boundary_rows_);

  ghost_owner_.resize(ghost_gid_.size());
  ghost_peer_offset_.resize(ghost_gid_.size());
  std::map<int, std::size_t> per_peer;
  for (std::size_t g = 0; g < ghost_gid_.size(); ++g) {
    const int owner = partition_.owner(ghost_gid_[g]);
    ghost_owner_[g] = owner;
    ghost_peer_offset_[g] = ghost_gid_[g] - partition_.begin(owner);
    per_peer[owner] += sizeof(double);
  }
  // Per-peer pull sizes feed NetworkModel::p2p_round_seconds: the round
  // costs the sum over peers (single-port injection), not the max.
  peer_recv_bytes_.reserve(per_peer.size());
  for (const auto& [peer, bytes] : per_peer) {
    peer_recv_bytes_.push_back(bytes);
  }

  xbuf_.resize(static_cast<std::size_t>(local.cols));
}

CsrMatrix DistCsr::local_diagonal_block() const {
  const ord n = n_local();
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(nnz_local()));
  // Drop the ghost columns (block Jacobi across ranks); interior rows
  // hold none, so only boundary rows lose entries.
  for_each_local_row([&](ord i, std::span<const ord> cols,
                         std::span<const double> vals) {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] < n) t.push_back({i, cols[k], vals[k]});
    }
  });
  return csr_from_triplets(n, n, std::move(t));
}

void DistCsr::spmm(par::Communicator& comm, dense::ConstMatrixView x_local,
                   dense::MatrixView y_local, util::PhaseTimers* timers) const {
  const auto nlocal = static_cast<std::size_t>(n_local());
  assert(static_cast<std::size_t>(x_local.rows) == nlocal);
  assert(static_cast<std::size_t>(y_local.rows) == nlocal);
  assert(x_local.cols == y_local.cols);
  assert(x_local.cols >= 1);
  const auto k = static_cast<std::size_t>(x_local.cols);
  const std::size_t need = (nlocal + ghost_gid_.size()) * k;
  if (xbuf_.size() < need) xbuf_.resize(need);
  const std::span<const double> x(xbuf_.data(), need);
  const auto multiply = [&](const CsrMatrix& block, std::span<const ord> rows) {
    if (k == 1) {
      spmv_rows_mapped(block, rows, x, std::span<double>(y_local.data, nlocal));
    } else {
      spmm_rows_mapped(block, rows, x.data(), static_cast<ord>(k),
                       y_local.data, static_cast<std::size_t>(y_local.ld));
    }
  };
  using util::Phase;
  const auto phase = [timers](Phase done, Phase next) {
    if (timers) {
      timers->stop(done);
      timers->start(next);
    }
  };
  const bool exchange = comm.size() > 1;

  if (timers) timers->start(Phase::kSpmvLocal);
  // Pack the owned entries k-interleaved BEFORE opening the exchange:
  // exchange_begin publishes this prefix and peers read it inside the
  // begin/end window, so it must be complete at begin.
  if (k == 1) {
    std::memcpy(xbuf_.data(), x_local.data, nlocal * sizeof(double));
  } else {
    par::parallel_for_grained(nlocal, [&](std::size_t b, std::size_t e) {
      for (std::size_t j = b; j < e; ++j) {
        double* dst = xbuf_.data() + j * k;
        for (std::size_t t = 0; t < k; ++t) {
          dst[t] = x_local(static_cast<dense::index_t>(j),
                           static_cast<dense::index_t>(t));
        }
      }
    });
  }
  if (exchange) {
    // Split-phase apply: open the exchange, multiply the interior rows
    // while the modeled halo latency progresses, then copy the ghosts,
    // close the exchange (which discounts the interior compute from
    // the injected latency), and finish the boundary rows.
    phase(Phase::kSpmvLocal, Phase::kSpmvComm);
    comm.exchange_begin(x.first(nlocal * k));
    phase(Phase::kSpmvComm, Phase::kSpmvLocal);
  }
  multiply(interior_, interior_rows_);
  if (exchange) {
    phase(Phase::kSpmvLocal, Phase::kSpmvComm);
    // Ghost row g arrives as k consecutive values at the owner's
    // interleaved offset; one exchange moves k times the spmv volume.
    for (std::size_t g = 0; g < ghost_gid_.size(); ++g) {
      std::copy_n(comm.peer_buffer(ghost_owner_[g]).data() +
                      static_cast<std::size_t>(ghost_peer_offset_[g]) * k,
                  k, xbuf_.data() + (nlocal + g) * k);
    }
    peer_recv_bytes_k_.resize(peer_recv_bytes_.size());
    for (std::size_t p = 0; p < peer_recv_bytes_.size(); ++p) {
      peer_recv_bytes_k_[p] = peer_recv_bytes_[p] * k;
    }
    comm.exchange_end(peer_recv_bytes_k_,
                      ghost_gid_.size() * k * sizeof(double));
    phase(Phase::kSpmvComm, Phase::kSpmvLocal);
  }
  multiply(boundary_, boundary_rows_);
  if (timers) timers->stop(Phase::kSpmvLocal);
  // One fault consult per apply (not per column): a corrupt addresses
  // the global row in column 0.
  consult_spmv_faults(comm, std::span<double>(y_local.data, nlocal));
}

void DistCsr::consult_spmv_faults(par::Communicator& comm,
                                  std::span<double> y_local) const {
  par::FaultInjector* injector = comm.fault_injector();
  if (injector == nullptr) return;
  // Both spmv-layer sites are consulted once per apply, after every row
  // is written and the exchange window is closed: a throw fires on all
  // ranks with no half-open exchange (the piece stays reusable by a
  // retry), and a corrupt addresses a GLOBAL row — only the owner of
  // row (ordinal mod n) flips its local entry — so the corrupted
  // vector, and the whole downstream trajectory, is bitwise-identical
  // at any rank count.  `comm.exchange` is consulted here rather than
  // inside exchange_begin so its ordinal stream also exists at
  // ranks=1, where no exchange happens.
  const long n = static_cast<long>(n_global());
  const long begin = static_cast<long>(row_begin());
  const long nloc = static_cast<long>(n_local());
  const auto corrupt = [&](long ordinal) {
    const long g = ordinal % n;
    if (g >= begin && g < begin + nloc) {
      par::FaultInjector::flip_bit(y_local[static_cast<std::size_t>(g - begin)]);
    }
  };
  injector->consult(comm.rank(), par::FaultSite::kSpmvInterior, corrupt);
  injector->consult(comm.rank(), par::FaultSite::kCommExchange, corrupt);
}

}  // namespace tsbo::sparse
