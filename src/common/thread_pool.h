// A small fixed-size thread pool shared by planning-time and runtime
// machinery.
//
// Relation building, class-plan expansion, plan compilation, hierarchical
// partitioning and the epoch simulator parallelize over independent work
// items. The runtime uses it too: AllgatherEngine fills each device's slot
// buffers before a pass, and copies Backward's local rows out after it, on
// the pool. They share one process-wide pool (ThreadPool::Shared()) so nested
// invocations never oversubscribe the machine (ParallelFor's caller claims
// items itself, so a nested call finishes even when every worker is busy),
// but callers that need a specific width can construct their own.
//
// The pool runs opaque tasks; determinism is the *caller's* responsibility.
// ParallelFor provides the common deterministic shape: results indexed by
// work-item id are race-free no matter which worker claims which item.

#ifndef DGCL_COMMON_THREAD_POOL_H_
#define DGCL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dgcl {

class ThreadPool {
 public:
  // Spawns `num_threads` workers. 0 is allowed: Submit then runs tasks
  // inline (useful for tests and 1-core fallback without special cases).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return static_cast<uint32_t>(workers_.size()); }

  // Enqueues a task. Tasks must not block on other tasks' *submission*;
  // blocking on another task's published result is fine as long as that task
  // was submitted first (workers drain the queue in FIFO order).
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), using up to num_threads() workers
  // plus the calling thread, and returns when all n calls finished. Work
  // items are claimed dynamically; any body(i) writing only to slot i of a
  // pre-sized output is deterministic regardless of claim order.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& body);

  // Process-wide pool sized to the hardware concurrency (at least 2 workers
  // so concurrency-dependent code paths are exercised even on 1-core CI).
  // Created on first use; never destroyed before exit.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dgcl

#endif  // DGCL_COMMON_THREAD_POOL_H_
