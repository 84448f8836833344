// Shared work-queue thread pool.
//
// The pool exists for the embarrassingly-parallel stages of the pipeline
// (corpus collection, serving batches, the shared parallel_for helpers):
// tasks are opaque callables pulled from a FIFO ready queue by a fixed set
// of workers. wait_idle() gives the submitting thread a barrier over *all*
// work, including tasks that tasks themselves submitted.
//
// Determinism note: the pool makes no ordering promises — callers that
// need deterministic output must index results by task identity (see
// collect_corpus's plan-indexed slot array), never by completion order.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace spmvml {

class ThreadPool {
 public:
  /// Spin up `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks are completed before the workers
  /// join (destruction waits for idle).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for immediate execution.
  void submit(std::function<void()> task);

  /// Block until every submitted task (including tasks submitted by
  /// running tasks) has finished.
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Liveness snapshot of one worker: whether it is inside a task right
  /// now, and for how long. Workers stamp a heartbeat when a task starts
  /// and clear it when the task returns; a watchdog (the serving
  /// subsystem's) reads the stamps to find stuck workers without any
  /// cooperation from the task itself.
  struct Heartbeat {
    bool busy = false;
    double busy_s = 0.0;  // time inside the current task (0 when idle)
  };

  /// One entry per worker. Lock-free reads of the per-worker atomic
  /// stamps — safe to call from any thread at any rate.
  std::vector<Heartbeat> heartbeats() const;

 private:
  using Clock = std::chrono::steady_clock;

  void worker_loop(int index);

  struct ReadyTask {
    std::function<void()> fn;
    Clock::time_point enqueued;
  };

  /// Update the pool.queue_depth gauge. Caller holds mu_.
  void publish_depth();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here
  std::condition_variable idle_cv_;   // wait_idle waits here
  std::deque<ReadyTask> ready_;
  std::size_t pending_ = 0;  // submitted (queued + running)
  bool stop_ = false;
  /// Per-worker task-start stamps (steady-clock ns; -1 = idle). Sized at
  /// construction, written only by the owning worker.
  std::unique_ptr<std::atomic<std::int64_t>[]> task_started_ns_;
  std::vector<std::thread> workers_;
};

}  // namespace spmvml
