#include "par/config.hpp"

#include "util/cli.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace tsbo::par {

namespace {

constexpr std::size_t kDefaultGrain = 1 << 14;

unsigned env_threads() {
  const char* s = std::getenv("TSBO_NUM_THREADS");
  if (s == nullptr) return 0;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<unsigned>(v) : 0;
}

std::size_t env_grain() {
  const char* s = std::getenv("TSBO_PARALLEL_GRAIN");
  if (s == nullptr) return 0;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

unsigned resolve_threads() {
  const unsigned env = env_threads();
  if (env > 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Config {
  std::mutex mutex;  // guards resolution + pool (re)construction
  std::unique_ptr<ThreadPool> pool;
  // Resolved values, readable lock-free on every kernel invocation
  // (BLAS-1 calls are far too frequent to take a global mutex).
  std::atomic<unsigned> threads{0};        // 0 = not yet resolved
  std::atomic<std::size_t> grain{0};       // 0 = not yet resolved
  std::atomic<ThreadPool*> pool_cache{nullptr};
  std::mutex dispatch;  // held for the duration of a pool dispatch
};

Config& cfg() {
  static Config c;
  return c;
}

// Depth of serial-only regions on this thread: ScopedSerial guards plus
// the dispatchers' own pool dispatches.  Nonzero means "run inline" —
// never touch the dispatch mutex, which the standard forbids try_lock
// on when this same thread already holds it.
thread_local int tl_serial_depth = 0;

// This thread's rank-private pool (ScopedRankPool), or nullptr.
thread_local ThreadPool* tl_rank_pool = nullptr;

}  // namespace

ScopedSerial::ScopedSerial() { ++tl_serial_depth; }
ScopedSerial::~ScopedSerial() { --tl_serial_depth; }

ScopedRankPool::ScopedRankPool(ThreadPool& lanes) { tl_rank_pool = &lanes; }
ScopedRankPool::~ScopedRankPool() { tl_rank_pool = nullptr; }

bool in_parallel_region() {
  return tl_serial_depth > 0 || tl_rank_pool != nullptr;
}

unsigned num_threads() {
  auto& c = cfg();
  const unsigned cached = c.threads.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  std::lock_guard lock(c.mutex);
  if (c.threads.load(std::memory_order_relaxed) == 0) {
    c.threads.store(resolve_threads(), std::memory_order_relaxed);
  }
  return c.threads.load(std::memory_order_relaxed);
}

void set_num_threads(unsigned n) {
  auto& c = cfg();
  std::lock_guard lock(c.mutex);
  const unsigned resolved = n > 0 ? n : resolve_threads();
  c.threads.store(resolved, std::memory_order_relaxed);
  if (c.pool && c.pool->size() + 1 != resolved) {
    c.pool_cache.store(nullptr, std::memory_order_release);
    c.pool.reset();
  }
}

std::size_t parallel_grain() {
  auto& c = cfg();
  const std::size_t cached = c.grain.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  std::lock_guard lock(c.mutex);
  if (c.grain.load(std::memory_order_relaxed) == 0) {
    const std::size_t env = env_grain();
    c.grain.store(env > 0 ? env : kDefaultGrain, std::memory_order_relaxed);
  }
  return c.grain.load(std::memory_order_relaxed);
}

void set_parallel_grain(std::size_t grain) {
  auto& c = cfg();
  std::lock_guard lock(c.mutex);
  c.grain.store(grain > 0 ? grain : kDefaultGrain, std::memory_order_relaxed);
}

void configure_from_cli(const util::Cli& cli) {
  const int threads = cli.get_int("threads", 0);
  if (threads > 0) set_num_threads(static_cast<unsigned>(threads));
  const long grain = cli.get_long("parallel-grain", 0);
  if (grain > 0) set_parallel_grain(static_cast<std::size_t>(grain));
}

ThreadPool& pool() {
  auto& c = cfg();
  ThreadPool* cached = c.pool_cache.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  const unsigned threads = num_threads();
  std::lock_guard lock(c.mutex);
  if (!c.pool) c.pool = std::make_unique<ThreadPool>(threads);
  c.pool_cache.store(c.pool.get(), std::memory_order_release);
  return *c.pool;
}

namespace {

/// Lanes a dispatch on this thread may use: 1 on a serial-only thread,
/// the rank pool's lanes when one is installed, else num_threads().
unsigned lanes() {
  if (tl_serial_depth > 0) return 1;
  if (tl_rank_pool != nullptr) return tl_rank_pool->size() + 1;
  return num_threads();
}

/// Runs `pooled(pool)` on this thread's rank pool, or else on the
/// shared pool when no other thread is dispatching to it; runs
/// `fallback()` inline when the shared pool is busy.  Chunks that land
/// on the calling thread run serial-only, so they neither re-enter a
/// pool nor try_lock the dispatch mutex this thread holds; worker
/// threads are serial-only for their whole life.
template <typename Pooled, typename Fallback>
void on_pool(const Pooled& pooled, const Fallback& fallback) {
  if (ThreadPool* rank = tl_rank_pool) {
    ScopedSerial serial;
    pooled(*rank);
    return;
  }
  std::unique_lock lock(cfg().dispatch, std::try_to_lock);
  if (!lock.owns_lock()) {  // concurrent caller on another thread
    fallback();
    return;
  }
  ScopedSerial serial;
  pooled(pool());
}

/// Runs `work(begin, end)`-style jobs of `njobs` units on the pool,
/// falling back to one inline `work(0, njobs)` call when threading is
/// off, the job is too small for the pool to split (mirrors the
/// ThreadPool's own `n < 2 * nthreads` inline path without paying for
/// the lock), this thread is serial-only, or the pool is busy.
template <typename Work>
void dispatch(std::size_t njobs, std::size_t grain_units, const Work& work) {
  const unsigned threads = lanes();
  if (threads <= 1 || njobs < 2 * threads || grain_units < parallel_grain()) {
    work(0, njobs);
    return;
  }
  on_pool([&](ThreadPool& p) { p.parallel_for(njobs, work); },
          [&] { work(0, njobs); });
}

}  // namespace

void parallel_for_grained(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  dispatch(n, n, fn);
}

void parallel_for_tiles(
    std::size_t n, std::size_t tile,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (tile == 0) tile = 1;
  const std::size_t ntiles = (n + tile - 1) / tile;
  dispatch(ntiles, n, [&fn, tile, n](std::size_t tb, std::size_t te) {
    fn(tb * tile, std::min(te * tile, n));
  });
}

void parallel_jobs(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto run_range = [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  };
  if (lanes() <= 1 || n == 1) {
    run_range(0, n);
    return;
  }
  // Jobs are coarse by contract, so no grain check: even two jobs are
  // worth a second lane.
  on_pool([&](ThreadPool& p) { p.parallel_for_chunked(n, 1, run_range); },
          [&] { run_range(0, n); });
}

void for_reduce_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t nchunks = reduce_chunk_count(n);
  // grain_units = n: reductions amortize dispatch over elements, and
  // their chunk partition is fixed regardless of how this executes.
  dispatch(nchunks, n, [&fn, n](std::size_t cb, std::size_t ce) {
    for (std::size_t ci = cb; ci < ce; ++ci) {
      fn(ci, ci * kReduceChunk, std::min((ci + 1) * kReduceChunk, n));
    }
  });
}

}  // namespace tsbo::par
