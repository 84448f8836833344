// The library's one parallel runtime: parallel_for on a shared ThreadPool.
//
// [0, n) splits into min(parallel_threads(), n) static contiguous chunks,
// so a body whose result depends only on its index is deterministic at any
// thread count. Pool helpers and the calling thread claim chunks from one
// cursor, so a call from a busy pool worker or a nested parallel_for
// degrades to the caller working alone. The first exception a chunk throws
// is rethrown on the caller once every claimed chunk has finished.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace spmvml {

/// Threads a parallel_for can use: the CPUs this process may run on (the
/// caller plus the shared pool's workers).
int parallel_threads();

namespace detail {
/// Run chunk(c) for every c in [0, chunks) on the shared pool and the
/// calling thread; returns when all have finished.
void run_chunks(std::int64_t chunks,
                const std::function<void(std::int64_t)>& chunk);
}  // namespace detail

/// Invoke fn(i) for i in [0, n), going parallel only when the trip count
/// reaches `min_parallel_n` (amortising the pool wake-up).
template <typename Fn>
void parallel_for(std::int64_t n, std::int64_t min_parallel_n, Fn&& fn) {
  const std::int64_t chunks = std::min<std::int64_t>(parallel_threads(), n);
  if (n < min_parallel_n || chunks <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t end = (c + 1) * n / chunks;
    for (std::int64_t i = c * n / chunks; i < end; ++i) fn(i);
  });
}

}  // namespace spmvml
