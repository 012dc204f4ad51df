#include "par/thread_pool.hpp"

#include "par/config.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace tsbo::par {

namespace {

/// How long the dispatching thread polls for the last in-flight chunks
/// before it blocks.  That wait is usually one chunk long, and it sits
/// on the caller's critical path (an SPMD rank's, between collectives):
/// blocking costs a futex wake-up and, on a virtual machine, the
/// re-scheduling of a halted vCPU, which can take milliseconds on a
/// busy host.  The poll yields, so on an oversubscribed host it hands
/// its core to the worker that holds the last chunk.
constexpr auto kCompletionSpin = std::chrono::microseconds(100);

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn one fewer.
  const unsigned workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t nthreads = workers_.size() + 1;
  if (nthreads == 1 || n < 2 * nthreads) {
    fn(0, n);
    return;
  }
  // ~4 chunks per thread for load balance without excessive contention.
  parallel_for_chunked(n, std::max<std::size_t>(1, n / (4 * nthreads)), fn);
}

void ThreadPool::parallel_for_chunked(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);
  if (workers_.empty()) {
    // Single-lane pool: drain the chunks inline, same ascending order
    // and same error contract (first exception rethrown after every
    // chunk has run).
    std::exception_ptr error;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      try {
        fn(begin, std::min(begin + chunk, n));
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  const std::size_t nchunks = (n + chunk - 1) / chunk;

  {
    std::lock_guard lock(mutex_);
    job_ = Job{&fn, n, chunk, 0, nchunks, nullptr};
    has_job_ = true;
    ++generation_;
  }
  cv_work_.notify_all();

  // The caller also consumes chunks.
  for (;;) {
    std::size_t begin, end;
    {
      std::lock_guard lock(mutex_);
      if (job_.next >= job_.n) break;
      begin = job_.next;
      end = std::min(begin + job_.chunk, job_.n);
      job_.next = end;
    }
    try {
      fn(begin, end);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!job_.error) job_.error = std::current_exception();
    }
    std::lock_guard lock(mutex_);
    if (--job_.remaining == 0) {
      has_job_ = false;
      cv_done_.notify_all();
      break;
    }
  }

  const auto spin_end = std::chrono::steady_clock::now() + kCompletionSpin;
  while (has_job_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < spin_end) {
    std::this_thread::yield();
  }
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [this] { return !has_job_; });
    error = job_.error;
    job_.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  // Workers are lanes of somebody else's dispatch: kernels (and SPMD
  // launches) nested in a chunk run inline here.
  ScopedSerial serial;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || (has_job_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      fn = job_.fn;
    }
    for (;;) {
      std::size_t begin, end;
      {
        std::lock_guard lock(mutex_);
        if (!has_job_ || job_.fn != fn || job_.next >= job_.n) break;
        begin = job_.next;
        end = std::min(begin + job_.chunk, job_.n);
        job_.next = end;
      }
      try {
        (*fn)(begin, end);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (has_job_ && job_.fn == fn && !job_.error) {
          job_.error = std::current_exception();
        }
      }
      std::lock_guard lock(mutex_);
      if (has_job_ && job_.fn == fn && --job_.remaining == 0) {
        has_job_ = false;
        cv_done_.notify_all();
        break;
      }
    }
  }
}

}  // namespace tsbo::par
