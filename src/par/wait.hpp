#pragma once
// The one way a solve's threads wait on each other: the SPMD barrier,
// the pool dispatcher's wait for its job's last chunk and the pool
// workers' wait for the next job.  wait_while(word, old) spins with a
// CPU pause for up to kWaitSpin, then blocks in std::atomic::wait (a
// futex on Linux), so a waiter whose peer is descheduled gives up its
// core, not its time slice.  The thread that changes the word stores
// it seq_cst (the default; the store must not pass notify_all's check
// for sleepers), then calls notify_all(), cheap while nobody sleeps.
//
// Three waits stay apart because none waits on another thread of a
// solve: util::spin_wait burns modeled fabric latency, time the wire
// would take, so it must not yield; the solver service's queue
// condition variables wait for jobs to arrive, outside any solve; the
// fault injector's `delay` sleeps a fixed time on purpose.

#include <atomic>
#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tsbo::par {

/// Spin budget before a waiter blocks: most waits between lanes end
/// within it, and an oversubscribed core is handed over soon after.
inline constexpr std::chrono::microseconds kWaitSpin{50};

template <class T>
void wait_while(const std::atomic<T>& word, T old) {
  const auto deadline = std::chrono::steady_clock::now() + kWaitSpin;
  while (word.load(std::memory_order_acquire) == old) {
    if (std::chrono::steady_clock::now() >= deadline) {
      word.wait(old, std::memory_order_acquire);
      return;
    }
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
}

}  // namespace tsbo::par
