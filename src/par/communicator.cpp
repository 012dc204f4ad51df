#include "par/communicator.hpp"

#include "par/wait.hpp"
#include "util/eft.hpp"
#include "util/timer.hpp"

#include <cassert>
#include <cstring>
#include <vector>

namespace tsbo::par {

namespace {

/// `comm.allreduce` corruption: flips the same bit of every rank's
/// local contribution at the same index.
FaultInjector::CorruptFn flip_entry(std::span<double> data) {
  return [data](long ordinal) {
    if (!data.empty()) {
      FaultInjector::flip_bit(
          data[static_cast<std::size_t>(ordinal) % data.size()]);
    }
  };
}

}  // namespace

CommStats subtract(const CommStats& after, const CommStats& before) {
  CommStats d;
  d.allreduces = after.allreduces - before.allreduces;
  d.broadcasts = after.broadcasts - before.broadcasts;
  d.p2p_rounds = after.p2p_rounds - before.p2p_rounds;
  d.barriers = after.barriers - before.barriers;
  d.bytes_allreduced = after.bytes_allreduced - before.bytes_allreduced;
  d.bytes_exchanged = after.bytes_exchanged - before.bytes_exchanged;
  d.injected_seconds = after.injected_seconds - before.injected_seconds;
  d.overlapped_seconds = after.overlapped_seconds - before.overlapped_seconds;
  return d;
}

SpmdContext::SpmdContext(int nranks, NetworkModel model)
    : nranks_(nranks),
      model_(model),
      slots_(static_cast<std::size_t>(nranks), nullptr),
      sizes_(static_cast<std::size_t>(nranks), 0) {
  assert(nranks >= 1);
}

Communicator::Communicator(SpmdContext& ctx, int rank)
    : ctx_(ctx), rank_(rank) {
  assert(rank >= 0 && rank < ctx.nranks());
}

void Communicator::barrier() {
  stats_.barriers += 1;
  if (ctx_.nranks_ == 1) return;
  const int my_sense = local_sense_ ^= 1;
  if (ctx_.arrived_.fetch_add(1, std::memory_order_acq_rel) ==
      ctx_.nranks_ - 1) {
    ctx_.arrived_.store(0, std::memory_order_relaxed);
    ctx_.sense_.store(my_sense);
    ctx_.sense_.notify_all();
  } else {
    wait_while(ctx_.sense_, my_sense ^ 1);
  }
}

void Communicator::inject(double seconds) {
  if (seconds <= 0.0) return;
  stats_.injected_seconds += seconds;
  util::spin_wait(seconds);
}

void Communicator::inject_with_overlap(double modeled,
                                       double compute_seconds) {
  if (modeled <= 0.0) return;
  const NetworkModel::OverlapSplit split =
      NetworkModel::split_overlap(modeled, compute_seconds);
  stats_.overlapped_seconds += split.overlapped;
  inject(split.exposed);
}

void Communicator::publish(std::span<const double> data) {
  assert(!exchange_open_ && "collective issued inside a neighbor exchange");
  ctx_.slots_[static_cast<std::size_t>(rank_)] = data.data();
  ctx_.sizes_[static_cast<std::size_t>(rank_)] = data.size();
}

const double* Communicator::peer_slot(int peer) const {
  return static_cast<const double*>(
      ctx_.slots_[static_cast<std::size_t>(peer)]);
}

std::size_t Communicator::peer_size(int peer) const {
  return ctx_.sizes_[static_cast<std::size_t>(peer)];
}

void Communicator::allreduce_sum(std::span<double> inout) {
  // Fault seam, before any publication/accounting: a throw here leaves
  // no half-open collective on any rank.
  consult_fault(FaultSite::kCommAllreduce, flip_entry(inout));
  stats_.allreduces += 1;
  stats_.bytes_allreduced += inout.size_bytes();
  if (ctx_.nranks_ > 1) {
    publish(inout);
    barrier();  // all ranks published
    // Deterministic order: sum rank 0..p-1 contributions.
    scratch_.assign(inout.size(), 0.0);
    for (int r = 0; r < ctx_.nranks_; ++r) {
      assert(peer_size(r) == inout.size());
      const double* src = peer_slot(r);
      for (std::size_t i = 0; i < inout.size(); ++i) scratch_[i] += src[i];
    }
    barrier();  // all ranks finished reading before buffers are reused
    std::memcpy(inout.data(), scratch_.data(), inout.size_bytes());
  }
  inject(ctx_.model_.allreduce_seconds(ctx_.nranks_, inout.size_bytes()));
}

void Communicator::allreduce_sum_dd(std::span<double> hi,
                                    std::span<double> lo) {
  assert(hi.size() == lo.size());
  const std::size_t n = hi.size();
  consult_fault(FaultSite::kCommAllreduce, flip_entry(hi));
  stats_.allreduces += 1;
  stats_.bytes_allreduced += hi.size_bytes() + lo.size_bytes();
  if (ctx_.nranks_ > 1) {
    // Publish one packed [hi..., lo...] buffer per rank; every rank
    // then folds the pairs in rank order with normalized dd adds, so
    // all ranks hold the identical extended-precision sum.
    staging_.resize(2 * n);
    std::memcpy(staging_.data(), hi.data(), hi.size_bytes());
    std::memcpy(staging_.data() + n, lo.data(), lo.size_bytes());
    publish(staging_);
    barrier();
    scratch_.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      eft::dd acc;
      for (int r = 0; r < ctx_.nranks_; ++r) {
        assert(peer_size(r) == 2 * n);
        const double* src = peer_slot(r);
        eft::dd_add(acc, eft::dd{src[i], src[n + i]});
      }
      scratch_[i] = acc.hi;
      scratch_[n + i] = acc.lo;
    }
    barrier();  // all ranks finished reading before buffers are reused
    std::memcpy(hi.data(), scratch_.data(), hi.size_bytes());
    std::memcpy(lo.data(), scratch_.data() + n, lo.size_bytes());
  }
  inject(ctx_.model_.allreduce_seconds(ctx_.nranks_,
                                       hi.size_bytes() + lo.size_bytes()));
}

void Communicator::allreduce_max(std::span<double> inout) {
  consult_fault(FaultSite::kCommAllreduce, flip_entry(inout));
  stats_.allreduces += 1;
  stats_.bytes_allreduced += inout.size_bytes();
  if (ctx_.nranks_ > 1) {
    publish(inout);
    barrier();
    scratch_.assign(inout.size(), 0.0);
    for (std::size_t i = 0; i < inout.size(); ++i) {
      double m = peer_slot(0)[i];
      for (int r = 1; r < ctx_.nranks_; ++r) {
        const double v = peer_slot(r)[i];
        m = v > m ? v : m;
      }
      scratch_[i] = m;
    }
    barrier();
    std::memcpy(inout.data(), scratch_.data(), inout.size_bytes());
  }
  inject(ctx_.model_.allreduce_seconds(ctx_.nranks_, inout.size_bytes()));
}

double Communicator::allreduce_sum_scalar(double x) {
  allreduce_sum(std::span<double>(&x, 1));
  return x;
}

double Communicator::allreduce_max_scalar(double x) {
  allreduce_max(std::span<double>(&x, 1));
  return x;
}

void Communicator::broadcast(std::span<double> data, int root) {
  stats_.broadcasts += 1;
  if (ctx_.nranks_ > 1) {
    if (rank_ == root) publish(data);
    barrier();  // root published
    if (rank_ != root) {
      assert(peer_size(root) == data.size());
      std::memcpy(data.data(), peer_slot(root), data.size_bytes());
    }
    barrier();
  }
  inject(ctx_.model_.allreduce_seconds(ctx_.nranks_, data.size_bytes()));
}

std::vector<double> Communicator::gather(std::span<const double> local,
                                         int root) {
  publish(local);
  barrier();
  std::vector<double> out;
  if (rank_ == root) {
    std::size_t total = 0;
    for (int r = 0; r < ctx_.nranks_; ++r) total += peer_size(r);
    out.reserve(total);
    for (int r = 0; r < ctx_.nranks_; ++r) {
      const double* src = peer_slot(r);
      out.insert(out.end(), src, src + peer_size(r));
    }
  }
  barrier();
  return out;
}

void Communicator::exchange_begin(std::span<const double> send) {
  assert(!exchange_open_ && "one neighbor exchange at a time");
  publish(send);
  exchange_open_ = true;
  barrier();
  // The overlap window opens once every peer has published: compute
  // from here to exchange_end stands in for interior work behind
  // MPI_Irecv/Isend.
  exchange_begin_ = std::chrono::steady_clock::now();
}

std::span<const double> Communicator::peer_buffer(int peer) const {
  assert(peer >= 0 && peer < ctx_.nranks_);
  return {peer_slot(peer), peer_size(peer)};
}

void Communicator::exchange_end(std::span<const std::size_t> peer_recv_bytes,
                                std::size_t total_recv_bytes) {
  assert(exchange_open_);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    exchange_begin_)
          .count();
  barrier();
  exchange_open_ = false;
  stats_.p2p_rounds += 1;
  stats_.bytes_exchanged += total_recv_bytes;
  inject_with_overlap(ctx_.model_.p2p_round_seconds(peer_recv_bytes), elapsed);
}

}  // namespace tsbo::par
