#pragma once
// Interconnect cost model for the SPMD emulation layer.
//
// The reproduction runs all "MPI ranks" as threads of one process, so
// real collectives complete in shared-memory time (~1 us) instead of
// the multi-microsecond fabric latencies that make orthogonalization
// synchronization-bound in the paper.  To recover the paper's regime,
// every collective/point-to-point additionally busy-waits for the time
// an alpha-beta model assigns to it.  Shapes (who wins, crossovers vs.
// rank count) then depend on *synchronization counts* and *message
// sizes* exactly as on a real cluster.  Absolute times remain
// machine-specific, and the busy-wait lands in wall-clock: a speedup
// that exists only under the model is not a measurement.

#include <cmath>
#include <cstddef>
#include <span>

namespace tsbo::par {

struct NetworkModel {
  bool enabled = false;
  /// Per-tree-stage latency of a global all-reduce (seconds).
  double alpha_allreduce = 12e-6;
  /// Point-to-point message latency (seconds).
  double alpha_p2p = 4e-6;
  /// Inverse bandwidth (seconds per byte), applied per tree stage for
  /// collectives and per message for p2p.
  double beta_per_byte = 0.1e-9;  // ~10 GB/s effective

  /// Cost of an all-reduce of `bytes` across `ranks` ranks: a binomial
  /// reduce-broadcast tree of ceil(log2 p) stages.
  [[nodiscard]] double allreduce_seconds(int ranks, std::size_t bytes) const {
    if (!enabled || ranks < 2) return 0.0;
    const double stages = std::ceil(std::log2(static_cast<double>(ranks)));
    return stages * (alpha_allreduce + static_cast<double>(bytes) * beta_per_byte);
  }

  /// Cost of one point-to-point message of `bytes`.
  [[nodiscard]] double p2p_seconds(std::size_t bytes) const {
    if (!enabled) return 0.0;
    return alpha_p2p + static_cast<double>(bytes) * beta_per_byte;
  }

  /// Cost of one neighbor-exchange round with the given per-peer
  /// message sizes.  The NIC injects messages one after another
  /// (single-port model), so the round costs the SUM of the per-peer
  /// message costs — charging only the largest message would let a
  /// rank talk to arbitrarily many neighbors for free and understate
  /// exactly the latency term strong-scaling runs are supposed to
  /// expose.  For a single peer this reduces to p2p_seconds(bytes).
  [[nodiscard]] double p2p_round_seconds(
      std::span<const std::size_t> peer_bytes) const {
    if (!enabled) return 0.0;
    double t = 0.0;
    for (const std::size_t b : peer_bytes) {
      t += alpha_p2p + static_cast<double>(b) * beta_per_byte;
    }
    return t;
  }

  /// Overlap accounting for the split-phase neighbor exchange: of
  /// `modeled` fabric seconds, the share hidden behind
  /// `compute_seconds` of local work performed between exchange_begin
  /// and exchange_end is `overlapped`; only the remainder is `exposed`
  /// (spun on the critical path).  This is the standard nonblocking
  /// model — latency progresses while the host computes, and the
  /// completion pays max(0, modeled - compute).
  struct OverlapSplit {
    double exposed = 0.0;
    double overlapped = 0.0;
  };
  [[nodiscard]] static OverlapSplit split_overlap(double modeled,
                                                  double compute_seconds) {
    const double hidden =
        modeled < compute_seconds
            ? modeled
            : (compute_seconds > 0.0 ? compute_seconds : 0.0);
    return {modeled - hidden, hidden};
  }

  /// No injected cost: pure shared-memory collectives (unit tests).
  static NetworkModel off() { return NetworkModel{}; }

  /// Literal GPU-cluster fabric numbers (Summit order of magnitude:
  /// ~10 us collective stage latency, ~10 GB/s effective link).  Note:
  /// with these literal values our scalar CPU ranks are NOT in the
  /// paper's latency-bound regime, because a V100 executes the local
  /// BLAS-3 roughly two orders of magnitude faster than one CPU core —
  /// see calibrated().
  static NetworkModel cluster() {
    NetworkModel m;
    m.enabled = true;
    return m;
  }

  /// Ratio-calibrated fabric: latency scaled up by the same ~70x
  /// factor by which our scalar CPU ranks are slower than the paper's
  /// V100s at the local orthogonalization kernels, so the
  /// latency-to-compute RATIO — which determines every shape in
  /// Tables II-IV and Figs. 10-13 — matches the paper's Summit runs.
  /// This is the default for the reproduction benches; the ~70x ratio
  /// above is the whole calibration.
  static NetworkModel calibrated() {
    NetworkModel m;
    m.enabled = true;
    m.alpha_allreduce = 0.8e-3;
    m.alpha_p2p = 0.25e-3;
    m.beta_per_byte = 7e-9;
    return m;
  }

  /// Slower commodity network; widens the communication-bound regime
  /// (useful for ablations).
  static NetworkModel ethernet() {
    NetworkModel m;
    m.enabled = true;
    m.alpha_allreduce = 40e-6;
    m.alpha_p2p = 15e-6;
    m.beta_per_byte = 0.4e-9;
    return m;
  }
};

}  // namespace tsbo::par
