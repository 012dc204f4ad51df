#include "par/spmd.hpp"

#include "par/config.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tsbo::par {

namespace {

/// CPUs the calling thread may run on, in ascending order (empty where
/// affinity is not supported).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

/// Confines the calling thread to cpus[first, first + count).  Threads
/// it creates afterwards inherit the mask.
void confine_to(const std::vector<int>& cpus, std::size_t first,
                std::size_t count) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < first + count; ++i) CPU_SET(cpus[i], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpus;
  (void)first;
  (void)count;
#endif
}

}  // namespace

void spmd_run(int nranks, const NetworkModel& model,
              const std::function<void(Communicator&)>& fn) {
  assert(nranks >= 1);
  SpmdContext ctx(nranks, model);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  // Split the thread budget: k lanes per rank at top level, one lane
  // and no pinning inside another parallel region.  Rank r is confined
  // to cores [r*k, (r+1)*k) before it builds its pool, so its workers
  // inherit the mask (pinning the rank to one core first would stack
  // every lane on that core).
  const bool nested = in_parallel_region();
  const unsigned k =
      nested ? 1u : std::max(1u, num_threads() / static_cast<unsigned>(nranks));
  const std::vector<int> cpus = nested ? std::vector<int>{} : allowed_cpus();
  const bool pin = !cpus.empty() &&
                   static_cast<std::size_t>(nranks) * k <= cpus.size();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        if (pin) confine_to(cpus, static_cast<std::size_t>(r) * k, k);
        ThreadPool lanes(k);
        ScopedRankPool scope(lanes);
        Communicator comm(ctx, r);
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void spmd_run(int nranks, const std::function<void(Communicator&)>& fn) {
  spmd_run(nranks, NetworkModel::off(), fn);
}

RowRange block_row_range(long n, int nranks, int rank) {
  assert(nranks >= 1 && rank >= 0 && rank < nranks);
  const long base = n / nranks;
  const long rem = n % nranks;
  const long begin = rank * base + std::min<long>(rank, rem);
  const long size = base + (rank < rem ? 1 : 0);
  return {begin, begin + size};
}

}  // namespace tsbo::par
