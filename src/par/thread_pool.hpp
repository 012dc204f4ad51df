#pragma once
// Persistent worker-thread pool with blocked-range parallel_for.
//
// Used for node-local data parallelism: the shared pool (par::pool())
// serves callers outside any SPMD rank, and each multi-lane SPMD rank
// owns a private pool of k = max(1, num_threads() / nranks) lanes (see
// spmd.hpp), mirroring the paper's Summit layout where every MPI rank
// drives a whole GPU.  Workers are serial-only (par::ScopedSerial):
// anything nested in a chunk runs inline on the worker.  Workers wait
// for the next job, and the dispatcher for its job's last chunk, in
// par::wait_while (wait.hpp): a short spin, then a sleep.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsbo::par {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(begin, end) over a partition of [0, n) across the workers
  /// and the calling thread; blocks until all chunks complete.  If any
  /// chunk throws, the first exception (in completion order) is
  /// rethrown on the calling thread after all chunks have finished; the
  /// pool stays usable.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Like parallel_for, but with a caller-chosen chunk size: chunk i is
  /// [i*chunk, min(n, (i+1)*chunk)), so the work partition depends only
  /// on (n, chunk) — never on the worker count.  Chunks are claimed in
  /// ascending order (one shared monotone cursor), so chunk i+1 never
  /// starts before chunk i has been handed to a lane.  chunk = 1 makes
  /// every index its own work item — the solver service schedules whole
  /// solve jobs this way.  No small-n inline shortcut: even n = 1 goes
  /// through the claim protocol (it simply runs on the calling thread).
  void parallel_for_chunked(
      std::size_t n, std::size_t chunk,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and runs chunks of job `generation` until none is left.
  void run_chunks(std::uint32_t generation);

  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t next = 0;       // next chunk start (guarded by mutex)
    std::size_t remaining = 0;  // unfinished chunks
    std::exception_ptr error;   // first exception thrown by a chunk
  };

  std::vector<std::thread> workers_;
  std::mutex mutex_;  // guards job_ and stop_
  Job job_;
  // Written under mutex_; 32-bit, so std::atomic::wait sleeps on the
  // word itself.  Workers wait for generation_ to move (one bump per
  // job, one more when the destructor sets stop_); the dispatcher waits
  // for finished_, the last finished job's generation, to reach its own.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> finished_{0};
  bool stop_ = false;
};

}  // namespace tsbo::par
