#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/obs/metrics.hpp"

namespace spmvml {

namespace {
// Handles are cheap {registry, id} values; function-local statics keep
// the name lookup off the per-task path. Several pools share the series
// (the pipeline runs one pool at a time).
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge g =
      obs::MetricsRegistry::global().gauge("pool.queue_depth");
  return g;
}
obs::Counter& tasks_counter() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("pool.tasks_completed");
  return c;
}
obs::Histogram& wait_histogram() {
  static obs::Histogram h =
      obs::MetricsRegistry::global().histogram("pool.task_wait_s");
  return h;
}
obs::Histogram& run_histogram() {
  static obs::Histogram h =
      obs::MetricsRegistry::global().histogram("pool.task_run_s");
  return h;
}
}  // namespace

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  task_started_ns_ =
      std::make_unique<std::atomic<std::int64_t>[]>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) task_started_ns_[i].store(-1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::publish_depth() {
  queue_depth_gauge().set(static_cast<double>(ready_.size()));
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back({std::move(task), Clock::now()});
    ++pending_;
    publish_depth();
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop(int index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!ready_.empty()) {
      ReadyTask task = std::move(ready_.front());
      ready_.pop_front();
      publish_depth();
      lock.unlock();
      const Clock::time_point started = Clock::now();
      wait_histogram().observe(
          std::chrono::duration<double>(started - task.enqueued).count());
      task_started_ns_[index].store(steady_ns(), std::memory_order_release);
      task.fn();
      // Release the closure's captures before bookkeeping so wait_idle()
      // returning implies task state has been destroyed.
      task.fn = nullptr;
      task_started_ns_[index].store(-1, std::memory_order_release);
      run_histogram().observe(
          std::chrono::duration<double>(Clock::now() - started).count());
      tasks_counter().inc();
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

std::vector<ThreadPool::Heartbeat> ThreadPool::heartbeats() const {
  std::vector<Heartbeat> out(workers_.size());
  const std::int64_t now = steady_ns();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::int64_t started =
        task_started_ns_[i].load(std::memory_order_acquire);
    if (started >= 0) {
      out[i].busy = true;
      out[i].busy_s = static_cast<double>(now - started) * 1e-9;
    }
  }
  return out;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace spmvml
