// Thread-pool tests: task completion, wait_idle barrier semantics, tasks
// submitting tasks, worker heartbeats, and draining on destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/gemm.hpp"
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

TEST(Gemm, MatchesNaiveReference) {
  // 3x2 * (4x2)^T + bias.
  const std::vector<double> a = {1, 2, 3, 4, 5, 6};
  const std::vector<double> b = {1, 0, 0, 1, 1, 1, 2, -1};
  const std::vector<double> bias = {0.5, -0.5, 0.0, 1.0};
  std::vector<double> c(12);
  gemm_nt(3, 4, 2, a.data(), b.data(), bias.data(), c.data());
  const std::vector<double> expect = {1.5, 1.5, 3, 1,  3.5, 3.5, 7, 3,
                                      5.5, 5.5, 11, 5};
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_DOUBLE_EQ(c[i], expect[i]) << i;

  // C = A (2x3) * B (3x2).
  const std::vector<double> b2 = {1, 2, 3, 4, 5, 6};
  std::vector<double> c2(4);
  gemm_nn(2, 2, 3, a.data(), b2.data(), c2.data());
  EXPECT_DOUBLE_EQ(c2[0], 1 * 1 + 2 * 3 + 3 * 5);
  EXPECT_DOUBLE_EQ(c2[1], 1 * 2 + 2 * 4 + 3 * 6);
  EXPECT_DOUBLE_EQ(c2[2], 4 * 1 + 5 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c2[3], 4 * 2 + 5 * 4 + 6 * 6);

  // C = A^T (3x2 -> 2x3 reduction over rows) * B (3x2): 2x2.
  std::vector<double> c3(4);
  gemm_tn(2, 2, 3, a.data(), a.data(), c3.data());
  EXPECT_DOUBLE_EQ(c3[0], 1 * 1 + 3 * 3 + 5 * 5);
  EXPECT_DOUBLE_EQ(c3[1], 1 * 2 + 3 * 4 + 5 * 6);
  EXPECT_DOUBLE_EQ(c3[2], 2 * 1 + 4 * 3 + 6 * 5);
  EXPECT_DOUBLE_EQ(c3[3], 2 * 2 + 4 * 4 + 6 * 6);
}

TEST(Gemm, TiledReductionMatchesUntiledOrder) {
  // k spans several kGemmTileK tiles; tiling must not change the
  // ascending-k accumulation (sums round-trip through the C row exactly).
  const int k = kGemmTileK * 2 + 37;
  std::vector<double> a(static_cast<std::size_t>(k)), b(a.size());
  for (int i = 0; i < k; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(i * 0.7) * 1e3;
    b[static_cast<std::size_t>(i)] = std::cos(i * 0.3);
  }
  double c = 0.0;
  gemm_nt(1, 1, k, a.data(), b.data(), nullptr, &c);
  double ref = 0.0;
  for (int i = 0; i < k; ++i)
    ref += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  EXPECT_DOUBLE_EQ(c, ref);
}

}  // namespace
}  // namespace spmvml
