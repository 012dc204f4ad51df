// SPMD runtime: thread pool, barrier, collectives, cost model.

#include "par/config.hpp"
#include "par/spmd.hpp"
#include "par/thread_pool.hpp"
#include "util/eft.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace {

using namespace tsbo;

TEST(ThreadPool, CoversRangeExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  par::ThreadPool pool(8);
  int count = 0;
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count, 3);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  par::ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 999L * 1000 / 2);
  }
}

TEST(BlockRowRange, PartitionsExactlyWithRemainder) {
  const long n = 103;
  const int p = 4;
  long total = 0;
  long prev_end = 0;
  for (int r = 0; r < p; ++r) {
    const auto range = par::block_row_range(n, p, r);
    EXPECT_EQ(range.begin, prev_end);
    prev_end = range.end;
    total += range.size();
    // Remainder rows go to the lowest ranks.
    EXPECT_TRUE(range.size() == 26 || range.size() == 25);
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(prev_end, n);
}

class SpmdRanks : public ::testing::TestWithParam<int> {};

TEST_P(SpmdRanks, AllreduceSumIsDeterministicAndCorrect) {
  const int p = GetParam();
  std::vector<std::vector<double>> results(static_cast<std::size_t>(p));
  par::spmd_run(p, [&](par::Communicator& comm) {
    std::vector<double> v = {1.0 * comm.rank(), 2.0, -1.0 * comm.rank()};
    comm.allreduce_sum(v);
    results[static_cast<std::size_t>(comm.rank())] = v;
  });
  const double rank_sum = p * (p - 1) / 2.0;
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)][0], rank_sum);
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)][1], 2.0 * p);
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)][2], -rank_sum);
    // Bit-identical across ranks (deterministic reduction order).
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              results[0]);
  }
}

TEST_P(SpmdRanks, AllreduceMax) {
  const int p = GetParam();
  std::vector<double> out(static_cast<std::size_t>(p));
  par::spmd_run(p, [&](par::Communicator& comm) {
    out[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce_max_scalar(static_cast<double>(comm.rank() % 3));
  });
  for (const double v : out) EXPECT_DOUBLE_EQ(v, std::min(2, p - 1));
}

TEST_P(SpmdRanks, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::vector<double> seen(static_cast<std::size_t>(p));
    par::spmd_run(p, [&](par::Communicator& comm) {
      std::vector<double> v = {comm.rank() == root ? 42.5 : -1.0};
      comm.broadcast(v, root);
      seen[static_cast<std::size_t>(comm.rank())] = v[0];
    });
    for (const double v : seen) EXPECT_DOUBLE_EQ(v, 42.5);
  }
}

TEST_P(SpmdRanks, GatherConcatenatesInRankOrder) {
  const int p = GetParam();
  std::vector<double> gathered;
  par::spmd_run(p, [&](par::Communicator& comm) {
    // Rank r contributes r+1 values of value r.
    std::vector<double> mine(static_cast<std::size_t>(comm.rank()) + 1,
                             static_cast<double>(comm.rank()));
    auto all = comm.gather(mine, 0);
    if (comm.rank() == 0) gathered = all;
  });
  std::size_t idx = 0;
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i <= r; ++i) {
      ASSERT_LT(idx, gathered.size());
      EXPECT_DOUBLE_EQ(gathered[idx++], static_cast<double>(r));
    }
  }
  EXPECT_EQ(idx, gathered.size());
}

TEST_P(SpmdRanks, ExchangePublishesPeerBuffers) {
  const int p = GetParam();
  std::vector<double> ok(static_cast<std::size_t>(p), 0.0);
  par::spmd_run(p, [&](par::Communicator& comm) {
    std::vector<double> mine = {100.0 + comm.rank()};
    comm.exchange_begin(mine);
    bool good = true;
    for (int peer = 0; peer < comm.size(); ++peer) {
      const auto buf = comm.peer_buffer(peer);
      good = good && buf.size() == 1 && buf[0] == 100.0 + peer;
    }
    const std::size_t bytes[] = {sizeof(double)};
    comm.exchange_end(bytes, sizeof(double));
    ok[static_cast<std::size_t>(comm.rank())] = good ? 1.0 : 0.0;
  });
  for (const double v : ok) EXPECT_DOUBLE_EQ(v, 1.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SpmdRanks, ::testing::Values(1, 2, 3, 4, 8));

TEST(Spmd, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      par::spmd_run(3,
                    [&](par::Communicator& comm) {
                      // Every rank must throw: a single-rank throw would
                      // deadlock peers blocked in a barrier by design
                      // (same as MPI).
                      if (comm.rank() >= 0) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
}

/// Thread ids that ran the chunks of one parallel_for_grained over
/// 4 * parallel_grain() elements.  Each chunk sleeps briefly so an idle
/// lane gets to claim work even on a single-core host.
std::set<std::thread::id> chunk_threads() {
  std::mutex mu;
  std::set<std::thread::id> ids;
  const auto record = [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  };
  par::parallel_for_grained(4 * par::parallel_grain(), record);
  return ids;
}

TEST(Spmd, EachRankFansOutOverItsOwnLanes) {
  // Budget 4 over 2 ranks: 2 lanes per rank, private to the rank.
  par::set_num_threads(4);
  std::vector<std::set<std::thread::id>> per_rank(2);
  par::spmd_run(2, [&](par::Communicator& comm) {
    per_rank[static_cast<std::size_t>(comm.rank())] = chunk_threads();
  });
  par::set_num_threads(0);
  EXPECT_GT(per_rank[0].size(), 1u);
  EXPECT_GT(per_rank[1].size(), 1u);
  for (const std::thread::id id : per_rank[0]) {
    EXPECT_EQ(per_rank[1].count(id), 0u) << "a lane served both ranks";
  }
}

TEST(Spmd, LaunchNestedInParallelJobsRunsRanksSingleLane) {
  par::set_num_threads(4);
  constexpr std::size_t kJobs = 4;
  std::vector<std::thread::id> rank_thread(kJobs);
  std::vector<std::set<std::thread::id>> chunks(kJobs);
  par::parallel_jobs(kJobs, [&](std::size_t job) {
    par::spmd_run(1, [&](par::Communicator&) {
      rank_thread[job] = std::this_thread::get_id();
      chunks[job] = chunk_threads();
    });
  });
  par::set_num_threads(0);
  for (std::size_t job = 0; job < kJobs; ++job) {
    EXPECT_EQ(chunks[job], std::set<std::thread::id>{rank_thread[job]})
        << "job " << job;
  }
}

TEST(Spmd, CommStatsCountOperations) {
  par::spmd_run(2, [&](par::Communicator& comm) {
    comm.reset_stats();
    double v = 1.0;
    comm.allreduce_sum(std::span<double>(&v, 1));
    comm.allreduce_sum(std::span<double>(&v, 1));
    std::vector<double> b = {1.0};
    comm.broadcast(b, 0);
    EXPECT_EQ(comm.stats().allreduces, 2u);
    EXPECT_EQ(comm.stats().broadcasts, 1u);
    EXPECT_EQ(comm.stats().bytes_allreduced, 2 * sizeof(double));
  });
}

TEST(Spmd, StatsSubtractGivesWindow) {
  par::CommStats a, b;
  a.allreduces = 10;
  a.injected_seconds = 2.0;
  a.bytes_exchanged = 300;
  a.overlapped_seconds = 0.75;
  b.allreduces = 4;
  b.injected_seconds = 0.5;
  b.bytes_exchanged = 100;
  b.overlapped_seconds = 0.25;
  const auto d = par::subtract(a, b);
  EXPECT_EQ(d.allreduces, 6u);
  EXPECT_DOUBLE_EQ(d.injected_seconds, 1.5);
  EXPECT_EQ(d.bytes_exchanged, 200u);
  EXPECT_DOUBLE_EQ(d.overlapped_seconds, 0.5);
}

// ---- blocking collectives and the split-phase exchange --------------

TEST_P(SpmdRanks, AllreduceSumDdIsTheRankOrderDdFold) {
  // Every rank must hold the bits of a serial eft::dd_add fold of the
  // ranks' pairs in rank order 0..p-1.  The inputs are deliberately
  // not normalized (|lo| > ulp(hi)/2), so a fold that skipped the
  // renormalization or ran in another order would show in the bits.
  const int p = GetParam();
  const auto pair_of = [](int r) {
    return std::vector<double>{1.0 + r, 1e-30 * r, -2.5, 0.1 * r,
                               0.75 * r, -1.0, 3e-17, 1e-18 * r};
  };
  constexpr std::size_t n = 4;
  std::vector<double> expect(2 * n);
  if (p == 1) {
    expect = pair_of(0);  // one rank: the pair comes back untouched
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      eft::dd acc;
      for (int r = 0; r < p; ++r) {
        const std::vector<double> v = pair_of(r);
        eft::dd_add(acc, eft::dd{v[i], v[n + i]});
      }
      expect[i] = acc.hi;
      expect[n + i] = acc.lo;
    }
  }
  std::vector<std::vector<double>> got(static_cast<std::size_t>(p));
  par::spmd_run(p, [&](par::Communicator& comm) {
    const std::vector<double> v = pair_of(comm.rank());
    std::vector<double> hi(v.begin(), v.begin() + n);
    std::vector<double> lo(v.begin() + n, v.end());
    comm.allreduce_sum_dd(hi, lo);
    hi.insert(hi.end(), lo.begin(), lo.end());
    got[static_cast<std::size_t>(comm.rank())] = hi;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expect) << "rank " << r;
  }
}

TEST(Spmd, BlockingAllreduceChargesFullModeledCostAsExposed) {
  // A blocking collective has no overlap window: its whole modeled
  // fabric cost is spun on the critical path.
  const auto model = par::NetworkModel::cluster();
  const double modeled = model.allreduce_seconds(4, 8);
  ASSERT_GT(modeled, 0.0);
  par::spmd_run(4, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    double v = comm.rank();
    comm.allreduce_sum(std::span<double>(&v, 1));
    EXPECT_DOUBLE_EQ(v, 6.0);
    EXPECT_NEAR(comm.stats().injected_seconds, modeled, 1e-12);
    EXPECT_DOUBLE_EQ(comm.stats().overlapped_seconds, 0.0);
  });
}

TEST(Spmd, ExchangeWindowDiscountsP2pLatency) {
  const auto model = par::NetworkModel::cluster();
  const double modeled = model.p2p_seconds(64);
  par::spmd_run(2, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    std::vector<double> mine(8, 1.0 * comm.rank());
    comm.exchange_begin(mine);
    util::spin_wait(4.0 * modeled);  // interior rows
    const auto buf = comm.peer_buffer(1 - comm.rank());
    EXPECT_DOUBLE_EQ(buf[0], 1.0 * (1 - comm.rank()));
    const std::size_t bytes[] = {64};
    comm.exchange_end(bytes, 64);
    EXPECT_EQ(comm.stats().bytes_exchanged, 64u);
    EXPECT_NEAR(comm.stats().overlapped_seconds, modeled, 1e-12);
    EXPECT_DOUBLE_EQ(comm.stats().injected_seconds, 0.0);
  });
}

TEST(Spmd, PerPeerExchangeEndChargesPerPeerRound) {
  // exchange_end models one send per peer on a single injection port; exposed + overlapped must equal that round
  // cost exactly.
  const auto model = par::NetworkModel::cluster();
  const std::size_t bytes[] = {64, 128};
  const double modeled = model.p2p_round_seconds(bytes);
  EXPECT_NEAR(modeled, model.p2p_seconds(64) + model.p2p_seconds(128), 1e-18);
  par::spmd_run(3, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    std::vector<double> mine(8, 1.0 * comm.rank());
    comm.exchange_begin(mine);
    comm.exchange_end(bytes, 64 + 128);
    EXPECT_EQ(comm.stats().bytes_exchanged, 64u + 128u);
    EXPECT_NEAR(
        comm.stats().injected_seconds + comm.stats().overlapped_seconds,
        modeled, 1e-12);
  });
}

TEST(NetworkModel, SplitOverlapAccounting) {
  using NM = par::NetworkModel;
  const auto full = NM::split_overlap(1.0e-3, 5.0e-3);
  EXPECT_DOUBLE_EQ(full.overlapped, 1.0e-3);
  EXPECT_DOUBLE_EQ(full.exposed, 0.0);
  const auto partial = NM::split_overlap(1.0e-3, 0.25e-3);
  EXPECT_DOUBLE_EQ(partial.overlapped, 0.25e-3);
  EXPECT_DOUBLE_EQ(partial.exposed, 0.75e-3);
  const auto none = NM::split_overlap(1.0e-3, 0.0);
  EXPECT_DOUBLE_EQ(none.overlapped, 0.0);
  EXPECT_DOUBLE_EQ(none.exposed, 1.0e-3);
  const auto negative = NM::split_overlap(1.0e-3, -1.0);
  EXPECT_DOUBLE_EQ(negative.overlapped, 0.0);
  EXPECT_DOUBLE_EQ(negative.exposed, 1.0e-3);
}

TEST(NetworkModel, CostsScaleWithLogRanks) {
  const auto m = par::NetworkModel::cluster();
  EXPECT_EQ(m.allreduce_seconds(1, 64), 0.0);
  const double c2 = m.allreduce_seconds(2, 64);
  const double c16 = m.allreduce_seconds(16, 64);
  EXPECT_GT(c2, 0.0);
  EXPECT_NEAR(c16 / c2, 4.0, 1e-9);  // ceil(log2 16) / ceil(log2 2)
  EXPECT_EQ(par::NetworkModel::off().allreduce_seconds(16, 1 << 20), 0.0);
}

TEST(NetworkModel, InjectedLatencyIsObservable) {
  // With the cluster model, 100 all-reduces across 4 ranks must take at
  // least 100 * 2 stages * alpha seconds of wall time.
  const auto model = par::NetworkModel::cluster();
  const double expect_min = 100 * model.allreduce_seconds(4, 8) * 0.9;
  util::WallTimer t;
  par::spmd_run(4, model, [&](par::Communicator& comm) {
    double v = comm.rank();
    for (int i = 0; i < 100; ++i) comm.allreduce_sum(std::span<double>(&v, 1));
    EXPECT_GE(comm.stats().injected_seconds, expect_min);
  });
  EXPECT_GE(t.seconds(), expect_min);
}

TEST(PhaseTimers, AccumulateAndMerge) {
  using util::Phase;
  using util::PaperPhase;
  const auto timed = [](util::PhaseTimers& t, Phase p, double s) {
    t.start(p);
    util::spin_wait(s);
    t.stop(p);
  };
  util::PhaseTimers t;
  timed(t, Phase::kOrthoDot, 1e-3);
  timed(t, Phase::kOrthoDot, 1e-3);
  timed(t, Phase::kSpmvLocal, 2e-3);
  EXPECT_GE(t.seconds(Phase::kOrthoDot), 2e-3);
  EXPECT_EQ(t.count(Phase::kOrthoDot), 2u);
  EXPECT_EQ(t.count(Phase::kSpmvLocal), 1u);
  EXPECT_EQ(t.seconds(Phase::kOrthoChol), 0.0);
  EXPECT_EQ(t.count(Phase::kOrthoChol), 0u);

  util::PhaseTimers u;
  timed(u, Phase::kOrthoDot, 3e-3);
  timed(u, Phase::kOrthoTrsm, 1e-3);
  const double t_dot = t.seconds(Phase::kOrthoDot);
  const double t_spmv = t.seconds(Phase::kSpmvLocal);
  t.merge_max(u);
  EXPECT_EQ(t.seconds(Phase::kOrthoDot),
            std::max(t_dot, u.seconds(Phase::kOrthoDot)));
  EXPECT_EQ(t.count(Phase::kOrthoDot), 2u);  // max(2, 1)
  EXPECT_EQ(t.seconds(Phase::kSpmvLocal), t_spmv);
  EXPECT_EQ(t.seconds(Phase::kOrthoTrsm), u.seconds(Phase::kOrthoTrsm));
  EXPECT_EQ(t.count(Phase::kOrthoTrsm), 1u);

  // Paper-phase sums read the same table.
  EXPECT_EQ(t.seconds(PaperPhase::kSpmv), t_spmv);
  EXPECT_EQ(t.seconds(PaperPhase::kOrthoFactor), t.seconds(Phase::kOrthoTrsm));
  EXPECT_EQ(t.seconds(PaperPhase::kPrecond), 0.0);
  const util::OrthoBreakdown bd = t.ortho();
  EXPECT_EQ(bd.dot, t.seconds(Phase::kOrthoDot));
  EXPECT_EQ(bd.factor, t.seconds(Phase::kOrthoTrsm));
  EXPECT_EQ(bd.total(), bd.dot + bd.factor);

  EXPECT_THROW(t.stop(Phase::kPrecond), std::logic_error);
}

}  // namespace
