#include "par/thread_pool.hpp"

#include "par/config.hpp"
#include "par/wait.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace tsbo::par {

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
    ++generation_;
  }
  generation_.notify_all();
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
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  std::uint32_t generation = 0;
  {
    std::lock_guard lock(mutex_);
    job_ = Job{&fn, n, chunk, 0, nchunks, nullptr};
    generation = ++generation_;
  }
  generation_.notify_all();
  run_chunks(generation);  // the caller also consumes chunks
  wait_while(finished_, generation - 1);
  std::exception_ptr error;
  {
    std::lock_guard lock(mutex_);
    error = std::exchange(job_.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_chunks(std::uint32_t generation) {
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0, end = 0;
    {
      std::lock_guard lock(mutex_);
      if (generation_ != generation || job_.next >= job_.n) return;
      fn = job_.fn;
      begin = job_.next;
      end = std::min(begin + job_.chunk, job_.n);
      job_.next = end;
    }
    std::exception_ptr error;
    try {
      (*fn)(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    // The job cannot end while this chunk is unfinished.
    std::lock_guard lock(mutex_);
    if (error && !job_.error) job_.error = error;
    if (--job_.remaining == 0) {
      finished_ = generation;
      finished_.notify_all();
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  // Workers are lanes of somebody else's dispatch: kernels (and SPMD
  // launches) nested in a chunk run inline here.
  ScopedSerial serial;
  std::uint32_t seen = 0;
  for (;;) {
    wait_while(generation_, seen);
    {
      std::lock_guard lock(mutex_);
      if (stop_) return;
      seen = generation_;
    }
    run_chunks(seen);
  }
}

}  // namespace tsbo::par
