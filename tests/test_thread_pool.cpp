// Thread-pool tests: task completion, wait_idle barrier semantics, tasks
// submitting tasks, worker heartbeats, and draining on destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace spmvml {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleIsABarrier) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
  // The pool is reusable after going idle.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 33);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedByTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  // A task chain: each stage submits the next.
  pool.submit([&] {
    count.fetch_add(1);
    pool.submit([&] {
      count.fetch_add(1);
      pool.submit([&] { count.fetch_add(1); });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  // One worker drains the FIFO in submission order.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, HeartbeatsShowTheWorkerInsideATask) {
  ThreadPool pool(3);
  auto beats = pool.heartbeats();
  ASSERT_EQ(beats.size(), 3u);
  for (const auto& b : beats) {
    EXPECT_FALSE(b.busy);
    EXPECT_EQ(b.busy_s, 0.0);
  }

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  beats = pool.heartbeats();
  int busy = 0;
  for (const auto& b : beats)
    if (b.busy) {
      ++busy;
      EXPECT_GT(b.busy_s, 0.0);
    }
  EXPECT_EQ(busy, 1);

  release.store(true);
  pool.wait_idle();
  for (const auto& b : pool.heartbeats()) EXPECT_FALSE(b.busy);
}

TEST(ThreadPool, DestructorFinishesQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 40; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
  }  // no wait_idle: destruction drains the queue before joining
  EXPECT_EQ(done.load(), 40);
}

}  // namespace
}  // namespace spmvml
