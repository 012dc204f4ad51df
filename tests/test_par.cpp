// SPMD runtime: thread pool, barrier, collectives, cost model.

#include "par/config.hpp"
#include "par/spmd.hpp"
#include "par/thread_pool.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

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
    comm.exchange_end(sizeof(double));
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

// ---- split-phase collectives ----------------------------------------

TEST_P(SpmdRanks, IallreduceSumMatchesBlockingBitwise) {
  const int p = GetParam();
  std::vector<std::vector<double>> blocking(static_cast<std::size_t>(p));
  std::vector<std::vector<double>> split(static_cast<std::size_t>(p));
  par::spmd_run(p, [&](par::Communicator& comm) {
    const double r = comm.rank();
    std::vector<double> v1 = {0.1 * r, -3.0 * r, 7.5, r * r};
    std::vector<double> v2 = v1;
    comm.allreduce_sum(v1);
    auto req = comm.iallreduce_sum(v2);
    // Local compute inside the overlap window must not perturb bits.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    req.wait();
    blocking[static_cast<std::size_t>(comm.rank())] = v1;
    split[static_cast<std::size_t>(comm.rank())] = v2;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking[static_cast<std::size_t>(r)],
              split[static_cast<std::size_t>(r)]);
  }
}

TEST_P(SpmdRanks, IallreduceSumDdMatchesBlockingBitwise) {
  const int p = GetParam();
  std::vector<std::vector<double>> blocking(static_cast<std::size_t>(p));
  std::vector<std::vector<double>> split(static_cast<std::size_t>(p));
  par::spmd_run(p, [&](par::Communicator& comm) {
    const double r = comm.rank();
    std::vector<double> hi1 = {1.0 + r, 1e-30 * r, -2.5};
    std::vector<double> lo1 = {1e-18 * r, 3e-40, 0.0};
    std::vector<double> hi2 = hi1, lo2 = lo1;
    comm.allreduce_sum_dd(hi1, lo1);
    auto req = comm.iallreduce_sum_dd(hi2, lo2);
    req.wait();
    std::vector<double> b = hi1;
    b.insert(b.end(), lo1.begin(), lo1.end());
    std::vector<double> s = hi2;
    s.insert(s.end(), lo2.begin(), lo2.end());
    blocking[static_cast<std::size_t>(comm.rank())] = b;
    split[static_cast<std::size_t>(comm.rank())] = s;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking[static_cast<std::size_t>(r)],
              split[static_cast<std::size_t>(r)]);
  }
}

TEST_P(SpmdRanks, IbroadcastDeliversFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::vector<double> seen(static_cast<std::size_t>(p));
    par::spmd_run(p, [&](par::Communicator& comm) {
      std::vector<double> v = {comm.rank() == root ? 19.25 : -1.0};
      auto req = comm.ibroadcast(v, root);
      req.wait();
      seen[static_cast<std::size_t>(comm.rank())] = v[0];
    });
    for (const double v : seen) EXPECT_DOUBLE_EQ(v, 19.25);
  }
}

TEST(CommRequest, EmptyAndCompletedWaitAreNoOps) {
  par::CommRequest empty;
  EXPECT_FALSE(empty.active());
  empty.wait();  // no-op
  par::spmd_run(2, [&](par::Communicator& comm) {
    double v = 1.0;
    auto req = comm.iallreduce_sum(std::span<double>(&v, 1));
    EXPECT_TRUE(req.active());
    req.wait();
    EXPECT_FALSE(req.active());
    req.wait();  // second wait is a no-op
    EXPECT_DOUBLE_EQ(v, 2.0);
    // Move transfers ownership; the moved-from handle is inert.
    auto req2 = comm.iallreduce_sum(std::span<double>(&v, 1));
    par::CommRequest req3 = std::move(req2);
    EXPECT_FALSE(req2.active());
    EXPECT_TRUE(req3.active());
    req3.wait();
  });
}

TEST(CommRequest, DestructorCompletesOutstandingRequest) {
  // Dropping an active request must keep the ranks collective (the
  // destructor waits) and still deliver the reduced values.
  std::vector<double> out(3, 0.0);
  par::spmd_run(3, [&](par::Communicator& comm) {
    double v = 1.0;
    {
      auto req = comm.iallreduce_sum(std::span<double>(&v, 1));
    }  // destructor waits here
    out[static_cast<std::size_t>(comm.rank())] = v;
  });
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(CommRequest, OverlapWindowDiscountsModeledLatency) {
  // With compute between begin and wait that exceeds the modeled
  // allreduce cost, (almost) the whole latency must be accounted as
  // overlapped rather than injected.
  const auto model = par::NetworkModel::cluster();
  const double modeled = model.allreduce_seconds(4, 8);
  ASSERT_GT(modeled, 0.0);
  par::spmd_run(4, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    double v = comm.rank();
    auto req = comm.iallreduce_sum(std::span<double>(&v, 1));
    util::spin_wait(4.0 * modeled);  // "interior work"
    req.wait();
    EXPECT_NEAR(comm.stats().overlapped_seconds, modeled, 1e-12);
    EXPECT_DOUBLE_EQ(comm.stats().injected_seconds, 0.0);
    // Blocking calls take no overlap credit: full cost is exposed.
    comm.allreduce_sum(std::span<double>(&v, 1));
    EXPECT_NEAR(comm.stats().injected_seconds, modeled, 1e-12);
    EXPECT_NEAR(comm.stats().overlapped_seconds, modeled, 1e-12);
  });
}

TEST(CommRequest, ExchangeWindowDiscountsP2pLatency) {
  const auto model = par::NetworkModel::cluster();
  const double modeled = model.p2p_seconds(64);
  par::spmd_run(2, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    std::vector<double> mine(8, 1.0 * comm.rank());
    comm.exchange_begin(mine);
    util::spin_wait(4.0 * modeled);  // interior rows
    const auto buf = comm.peer_buffer(1 - comm.rank());
    EXPECT_DOUBLE_EQ(buf[0], 1.0 * (1 - comm.rank()));
    comm.exchange_end(64, 64);
    EXPECT_EQ(comm.stats().bytes_exchanged, 64u);
    EXPECT_NEAR(comm.stats().overlapped_seconds, modeled, 1e-12);
    EXPECT_DOUBLE_EQ(comm.stats().injected_seconds, 0.0);
  });
}

// ---- multi-request split-phase coverage -----------------------------

TEST_P(SpmdRanks, MultipleRequestsInFlightMatchBlockingOutOfOrder) {
  // Several collectives of different kinds in flight at once; waits in
  // an order different from issue order (but identical on every rank).
  const int p = GetParam();
  par::spmd_run(p, [&](par::Communicator& comm) {
    const double r = comm.rank();
    std::vector<double> a = {1.0 + r, -r}, ab = a;
    std::vector<double> b = {0.5 * r, r * r, 3.0}, bb = b;
    std::vector<double> hi = {1.0 + r, -2.5}, lo = {1e-18 * r, 3e-40};
    std::vector<double> hib = hi, lob = lo;
    std::vector<double> c = {comm.rank() == 0 ? 42.0 : -1.0}, cb = c;
    comm.allreduce_sum(ab);
    comm.allreduce_sum(bb);
    comm.allreduce_sum_dd(hib, lob);
    comm.broadcast(cb, 0);

    auto ra = comm.iallreduce_sum(a);
    auto rb = comm.iallreduce_sum(b);
    auto rd = comm.iallreduce_sum_dd(hi, lo);
    auto rc = comm.ibroadcast(c, 0);
    rb.wait();
    rd.wait();
    ra.wait();
    rc.wait();
    EXPECT_EQ(a, ab);
    EXPECT_EQ(b, bb);
    EXPECT_EQ(hi, hib);
    EXPECT_EQ(lo, lob);
    EXPECT_EQ(c, cb);
  });
}

TEST_P(SpmdRanks, RequestRingFillsToCapAndDrainsReversed) {
  // kMaxInflight simultaneous reduces, waited newest-first: slot reuse
  // and out-of-order completion must not mix payloads up.
  const int p = GetParam();
  par::spmd_run(p, [&](par::Communicator& comm) {
    const double r = comm.rank();
    std::vector<std::vector<double>> v(par::kMaxInflight);
    std::vector<par::CommRequest> reqs;
    for (int k = 0; k < par::kMaxInflight; ++k) {
      v[static_cast<std::size_t>(k)] = {k + r, 100.0 * k - r};
      reqs.push_back(comm.iallreduce_sum(v[static_cast<std::size_t>(k)]));
    }
    for (int k = par::kMaxInflight - 1; k >= 0; --k) {
      reqs[static_cast<std::size_t>(k)].wait();
    }
    const double rsum = p * (p - 1) / 2.0;  // sum of ranks
    for (int k = 0; k < par::kMaxInflight; ++k) {
      EXPECT_DOUBLE_EQ(v[static_cast<std::size_t>(k)][0], p * k + rsum);
      EXPECT_DOUBLE_EQ(v[static_cast<std::size_t>(k)][1], 100.0 * k * p - rsum);
    }
  });
}

TEST(CommRequest, DestructorCompletesWithPendingSiblings) {
  // Dropping one active request while siblings are still in flight must
  // complete only the dropped one; the siblings stay valid.
  std::vector<double> out(3 * 3, 0.0);
  par::spmd_run(3, [&](par::Communicator& comm) {
    double x = 1.0, y = 10.0 + comm.rank(), z = 100.0;
    auto rx = comm.iallreduce_sum(std::span<double>(&x, 1));
    auto rz = comm.iallreduce_sum(std::span<double>(&z, 1));
    {
      auto ry = comm.iallreduce_sum(std::span<double>(&y, 1));
    }  // destructor waits on ry with rx/rz still pending
    rx.wait();
    rz.wait();
    const auto o = static_cast<std::size_t>(3 * comm.rank());
    out[o] = x;
    out[o + 1] = y;
    out[o + 2] = z;
  });
  for (int r = 0; r < 3; ++r) {
    const auto o = static_cast<std::size_t>(3 * r);
    EXPECT_DOUBLE_EQ(out[o], 3.0);
    EXPECT_DOUBLE_EQ(out[o + 1], 33.0);  // 10+11+12
    EXPECT_DOUBLE_EQ(out[o + 2], 300.0);
  }
}

TEST(CommRequest, NestedExchangeInsideReduceWindowCreditsBothWindows) {
  // A halo exchange nested inside a pending reduce window (the
  // pipelined SpMV-under-reduce pattern): one compute stretch spanning
  // both windows earns each its own full overlap credit.
  const auto model = par::NetworkModel::cluster();
  const double modeled_ar = model.allreduce_seconds(2, 8);
  const double modeled_x = model.p2p_seconds(64);
  ASSERT_GT(modeled_ar, 0.0);
  ASSERT_GT(modeled_x, 0.0);
  par::spmd_run(2, model, [&](par::Communicator& comm) {
    comm.reset_stats();
    double v = 1.0 + comm.rank();
    auto req = comm.iallreduce_sum(std::span<double>(&v, 1));

    std::vector<double> mine(8, 1.0 * comm.rank());
    comm.exchange_begin(mine);
    util::spin_wait(4.0 * (modeled_ar + modeled_x));  // interior work
    const auto buf = comm.peer_buffer(1 - comm.rank());
    EXPECT_DOUBLE_EQ(buf[0], 1.0 * (1 - comm.rank()));
    comm.exchange_end(64, 64);

    req.wait();
    EXPECT_DOUBLE_EQ(v, 3.0);
    EXPECT_NEAR(comm.stats().overlapped_seconds, modeled_ar + modeled_x,
                1e-12);
    EXPECT_DOUBLE_EQ(comm.stats().injected_seconds, 0.0);
  });
}

TEST(Spmd, PerPeerExchangeEndChargesPerPeerRound) {
  // The per-peer exchange_end overload models one send per peer on a
  // single injection port; exposed + overlapped must equal that round
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
  util::PhaseTimers t;
  t.add("a", 1.0);
  t.add("a", 0.5);
  t.add("b", 2.0);
  EXPECT_DOUBLE_EQ(t.seconds("a"), 1.5);
  EXPECT_EQ(t.count("a"), 2u);
  EXPECT_DOUBLE_EQ(t.seconds("missing"), 0.0);

  util::PhaseTimers u;
  u.add("a", 3.0);
  u.add("c", 0.1);
  t.merge_max(u);
  EXPECT_DOUBLE_EQ(t.seconds("a"), 3.0);
  EXPECT_DOUBLE_EQ(t.seconds("b"), 2.0);
  EXPECT_DOUBLE_EQ(t.seconds("c"), 0.1);

  EXPECT_THROW(t.stop("never-started"), std::logic_error);
}

}  // namespace
