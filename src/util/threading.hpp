// Thread-level parallelism substrate (no external dependency).
//
// The engine is a persistent ThreadPool: worker threads are created once and
// parked on a condition variable, and each parallel region hands them a job
// (a plain function pointer + context pointer, no std::function allocation
// or type erasure on the hot path). parallel_for / parallel_for_blocks are
// header templates that split [begin, end) into the same contiguous blocks
// the old per-call implementation used and dispatch them through the shared
// pool, so call sites keep their exact semantics — deterministic block
// boundaries, caller participation, first exception rethrown on the calling
// thread — while paying a condvar wakeup instead of a thread spawn per call.
//
// Nested parallel regions are safe: a submitter always participates in its
// own job, so every job can finish even when all pool workers are busy (or
// when the pool has zero workers, e.g. on a single-core host, where the
// region degrades to a plain serial loop on the caller).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace madpipe::par {

/// Number of workers parallel_for will use by default (hardware threads,
/// at least 1).
std::size_t default_workers() noexcept;

/// Width W of a speculative bisection (phase 1's DP probes, phase 2's
/// branch-and-bound probes): `requested` when positive, else auto =
/// min(4, hardware threads).
int speculation_width(int requested) noexcept;

/// Persistent pool of parked worker threads executing block jobs.
///
/// A job is `fn(ctx, block)` for block in [0, total): blocks are claimed
/// dynamically (an atomic cursor), so any thread may run any block — callers
/// needing determinism must make block outputs a function of the block index
/// alone (parallel_for's contiguous ranges are). Multiple threads may submit
/// jobs concurrently; jobs drain in FIFO order.
class ThreadPool {
 public:
  /// `threads` pool workers (0 is valid: run() then executes entirely on the
  /// submitting thread).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const noexcept { return workers_.size(); }

  /// Process-wide pool, created on first use with default_workers() − 1
  /// workers (the submitting thread is the remaining lane).
  static ThreadPool& shared();

  /// Execute `fn(ctx, block)` for every block in [0, blocks). The calling
  /// thread participates; returns when every block has finished, rethrowing
  /// the first exception any block threw.
  void run(std::size_t blocks, void (*fn)(void*, std::size_t), void* ctx);

 private:
  struct Job;
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Job*> queue_;  ///< submitted, not-yet-exhausted jobs (FIFO)
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Block-wise parallel loop: body(block_begin, block_end) per contiguous
/// chunk. `workers == 0` means default_workers(). Blocks are the same
/// contiguous ranges for every pool size, so results are reproducible
/// whenever the body writes only to block-indexed outputs.
template <typename Body>
void parallel_for_blocks(std::size_t begin, std::size_t end, Body&& body,
                         std::size_t workers = 0) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  std::size_t lanes = workers == 0 ? default_workers() : workers;
  lanes = std::min(lanes, n);
  if (lanes <= 1) {
    body(begin, end);
    return;
  }
  struct Ctx {
    std::remove_reference_t<Body>* body;
    std::size_t begin, end, chunk;
  };
  Ctx ctx{&body, begin, end, (n + lanes - 1) / lanes};
  ThreadPool::shared().run(
      lanes,
      [](void* raw, std::size_t block) {
        const Ctx& c = *static_cast<const Ctx*>(raw);
        const std::size_t lo = c.begin + block * c.chunk;
        const std::size_t hi = std::min(c.end, lo + c.chunk);
        if (lo < hi) (*c.body)(lo, hi);
      },
      &ctx);
}

/// Apply `body(i)` for every i in [begin, end). `workers == 0` means
/// default_workers(). The body must be safe to run concurrently for
/// distinct indices.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t workers = 0) {
  parallel_for_blocks(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      workers);
}

}  // namespace madpipe::par
