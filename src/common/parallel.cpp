#include "common/parallel.hpp"

#include <atomic>
#include <exception>
#include <latch>
#include <memory>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/thread_pool.hpp"

namespace spmvml {

int parallel_threads() {
  static const int threads = [] {
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      return std::max(1, CPU_COUNT(&set));
#endif
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return threads;
}

void detail::run_chunks(std::int64_t chunks,
                        const std::function<void(std::int64_t)>& chunk) {
  // Intentionally leaked, like the metrics registry: a helper that wakes
  // after its parallel_for returned may still be running at exit.
  static ThreadPool* pool = new ThreadPool(parallel_threads() - 1);

  struct Shared {
    explicit Shared(std::int64_t chunks) : unfinished(chunks) {}
    std::atomic<std::int64_t> next{0};
    std::latch unfinished;
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once, by the chunk that set failed
  };
  // Shared ownership: a helper that wakes after the cursor ran out (and
  // the caller returned) still touches the cursor, never `chunk`.
  auto state = std::make_shared<Shared>(chunks);
  const auto claim = [state, chunks, &chunk] {
    std::int64_t finished = 0;
    for (std::int64_t c; (c = state->next.fetch_add(1)) < chunks; ++finished) {
      try {
        chunk(c);
      } catch (...) {
        if (!state->failed.exchange(true))
          state->error = std::current_exception();
      }
    }
    if (finished > 0) state->unfinished.count_down(finished);
  };

  const std::int64_t helpers = std::min<std::int64_t>(pool->size(), chunks - 1);
  for (std::int64_t h = 0; h < helpers; ++h) pool->submit(claim);
  claim();
  state->unfinished.wait();
  // Take the exception out: a late helper may drop the last reference to
  // `state`, and the exception must die on this thread.
  if (state->error) std::rethrow_exception(std::exchange(state->error, {}));
}

}  // namespace spmvml
