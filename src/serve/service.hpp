// The online serving loop: bounded request queue -> micro-batches ->
// batched inference on the thread pool.
//
// Life of a request (DESIGN.md §5f, hardening §5h, ingest §5i):
//
//   submit() ── admission control ──> dispatch shard ──> dispatcher
//     (reject "overloaded" when full;      │  coalesces up to max_batch
//      shed when the estimated queue       │  or waits max_delay_ms
//      wait cannot meet the deadline       v
//      or the admission target)   thread-pool batch task: resolve
//               features (ingest + feature caches), run the classifier
//               ONCE per batch, per-format regressors for indirect and
//               predict requests, fulfil callbacks
//
// Sharded dispatch: submit() round-robins requests across dispatch_shards
// independent {mutex, queue, dispatcher thread} shards, so producers no
// longer serialize on one queue lock. Each shard keeps the micro-batch
// window semantics of the single dispatcher; an idle shard steals the
// oldest requests from a backlogged neighbour (overflow hint + steal
// scan), so one hot shard cannot strand latency while others sleep.
// dispatch_shards = 1 reproduces the original single-dispatcher service.
//
// Ingestion: matrix files resolve through the MatrixCache (matrix_cache.hpp)
// — stat-cache content keys, a byte-budget LRU of parsed CSRs served as
// borrowed refcounted views, binary sidecar loads, and single-flight miss
// coalescing. A repeat request costs two stat() calls and two hash-map
// lookups; the text parse happens once per distinct file content.
//
// Deadlines: a request may carry deadline_ms. Indirect selection costs a
// regressor pass per modeled format; when the measured per-item cost
// (EWMA over past batches) no longer fits in the remaining budget — or
// the deadline has already expired in the queue — the request degrades
// to the direct classifier instead of missing the deadline entirely.
//
// Degradation ladder (each rung is guarded by a circuit breaker; a
// chaos-injected stage fault takes the next rung at once, with no retry):
//
//   indirect (argmin of regressors)
//     └─> direct classifier          (regress breaker open / deadline)
//           └─> static CSR fallback  (feature or inference stage down;
//                                     CSR needs no model and no features,
//                                     so the selection is always valid)
//
// A watchdog thread (enabled by watchdog_ms > 0) reads the pool's
// per-worker heartbeats; when a worker has been inside one task longer
// than the budget, every overdue in-flight batch has its undelivered
// requests failed cleanly. Responses are delivered through a
// compare-and-swap slot, so a stuck worker that eventually finishes
// becomes a no-op instead of a double callback.
//
// Hot-swap: each batch pins the registry's current bundle once; a swap
// mid-batch is invisible to that batch and takes effect from the next.
// Swaps never touch the ingest cache: a borrowed matrix view stays valid
// across any number of swaps and evictions.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "gpusim/arch.hpp"
#include "learn/trainer.hpp"
#include "serve/breaker.hpp"
#include "serve/feature_cache.hpp"
#include "serve/matrix_cache.hpp"
#include "sparse/csr.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/scorecard.hpp"

namespace spmvml::serve {

struct ServiceConfig {
  /// Batch-inference workers (thread pool size), clamped to >= 1.
  int threads = 1;
  /// Coalesce at most this many requests per inference batch.
  std::size_t max_batch = 16;
  /// How long the dispatcher holds an open batch waiting for more
  /// requests before running it anyway.
  double max_delay_ms = 1.0;
  /// Admission control: pending requests beyond this are rejected.
  /// The capacity is global across dispatch shards.
  std::size_t queue_capacity = 256;
  /// Feature-cache entries (0 disables the cache).
  std::size_t cache_capacity = 512;
  /// Materialized-matrix ingest cache: byte budget for parsed CSR
  /// instances (serve --ingest-cache-mb; 0 disables caching, every load
  /// re-parses but single-flight coalescing still applies).
  std::size_t ingest_cache_bytes = 256ull << 20;
  /// Dispatch shards (serve --shards): independent pending queues and
  /// dispatcher threads; submit round-robins across them and idle shards
  /// steal from backlogged ones. 1 = the original single dispatcher.
  int dispatch_shards = 1;
  /// Precision assumed by the memory-feasibility gate.
  Precision precision = Precision::kDouble;
  /// Default memory budget in GB (0 = unconstrained); a request's
  /// mem_budget_gb overrides it.
  double mem_budget_gb = 0.0;
  /// Deadline-feasibility load shedding: when > 0, a request whose
  /// estimated queue wait (queue depth x per-item cost EWMA / workers)
  /// exceeds this target is shed at admission with an honest
  /// "shed:overload" instead of joining a queue it cannot clear. A
  /// request carrying a deadline is additionally shed when the estimate
  /// already exceeds the deadline. 0 keeps the seed behavior (reject
  /// only when the queue is full).
  double admission_target_ms = 0.0;
  /// Watchdog budget: when > 0, a batch in flight longer than this while
  /// a pool worker is stuck inside one task has its requests failed
  /// cleanly. 0 disables the watchdog thread entirely.
  double watchdog_ms = 0.0;
  /// Tuning shared by the per-stage circuit breakers (features,
  /// inference, regress, materialize).
  BreakerConfig breaker;
  /// Online learning loop (serve --learn; DESIGN.md §5k). Off by
  /// default: with enabled == false the trainer is never constructed,
  /// no shadow probes run, and serving behavior is byte-identical to a
  /// build without the subsystem.
  learn::TrainerConfig learn;
};

class Service {
 public:
  using Callback = std::function<void(const Response&)>;

  Service(ServiceConfig config, ModelRegistry& registry);
  ~Service();  // drains: all accepted requests get a response

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Asynchronous submit; `done` runs exactly once, on a worker thread
  /// (or inline for admission rejections). Never throws: failures are
  /// delivered as ok=false responses.
  void submit(Request req, Callback done);

  /// Future-returning submit.
  std::future<Response> submit(Request req);

  /// Synchronous convenience: submit + wait.
  Response call(Request req);

  /// Stop accepting, drain the queue, run every outstanding batch and
  /// callback, then return. Idempotent; the destructor calls it.
  void shutdown();

  const FeatureCache& cache() const { return cache_; }
  const MatrixCache& ingest() const { return ingest_; }
  /// Prediction scorecard: one entry per materialized conversion+SpMV
  /// (predicted vs measured GFLOPS, chosen-vs-best regret). The drift
  /// feed for the continual-retraining loop.
  const Scorecard& scorecard() const { return scorecard_; }
  /// Online trainer; nullptr unless the service runs with learn.enabled.
  const learn::OnlineTrainer* learner() const { return trainer_.get(); }

  struct Counters {
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;  // per-request errors (bad path, parse, ...)
    std::uint64_t shed = 0;    // admission-shed (subset of rejected)
    // Always 0 (serving does not retry faulted stages); kept only
    // because the perfbench serve workloads read it.
    std::uint64_t retries = 0;
    std::uint64_t watchdog_killed = 0;  // requests failed by the watchdog
    std::uint64_t breaker_trips = 0;    // sum over the stage breakers
    std::uint64_t steals = 0;  // batches an idle shard stole from another
  };
  Counters counters() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Once-only response delivery: the batch worker and the watchdog race
  /// benignly for the same slot; the CAS guarantees exactly one wins.
  struct ResponseSlot {
    Callback done;
    std::atomic<bool> delivered{false};
    /// Win the right to respond (worker vs. watchdog race). The winner
    /// must account *before* finish(): once the callback runs, the
    /// caller may read Service::counters() and must see this request.
    bool claim() {
      bool expected = false;
      return delivered.compare_exchange_strong(expected, true);
    }
    void finish(const Response& r) { done(r); }
    bool deliver(const Response& r) {
      if (!claim()) return false;
      finish(r);
      return true;
    }
  };

  struct Pending {
    Request req;
    std::shared_ptr<ResponseSlot> slot;
    Clock::time_point enqueued;
  };

  /// One dispatch shard: its own pending queue, lock, and dispatcher
  /// thread. Producers touch exactly one shard per submit.
  struct DispatchShard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::thread dispatcher;  // started in the Service constructor body
  };

  /// Watchdog view of one in-flight batch: enough to fail its requests
  /// without touching the worker's state.
  struct Inflight {
    Clock::time_point started;
    std::vector<std::shared_ptr<ResponseSlot>> slots;
    std::vector<Response> skeletons;  // id/mode prefilled
  };

  void dispatcher_loop(std::size_t shard_index);
  /// Take the oldest pending requests (up to max_batch) from another
  /// shard's queue. Called with no shard lock held; returns the stolen
  /// batch (possibly empty).
  std::vector<Pending> steal_batch(std::size_t thief_index);
  void launch_batch(std::vector<Pending> batch);
  void process_batch(std::vector<Pending>& batch);
  void watchdog_loop();
  void kill_overdue(Clock::time_point now);
  /// Resolve features (+ digest when a matrix is available) for one
  /// request. Returns false after recording an error in `rsp` OR after
  /// putting the request on the static-CSR rung (`csr_fallback`). When
  /// `keep_view` is non-null (materialize requests) a borrowed ingest
  /// view of the CSR is stored into it for the stage-4 arena conversion.
  bool resolve_features(Pending& item, Response& rsp, FeatureVector& features,
                        RowSummary& summary, bool& has_summary,
                        bool& csr_fallback,
                        std::shared_ptr<const Csr<double>>* keep_view);

  ServiceConfig cfg_;
  ModelRegistry& registry_;
  FeatureCache cache_;
  MatrixCache ingest_;
  Scorecard scorecard_;
  ThreadPool pool_;

  CircuitBreaker feature_breaker_;
  CircuitBreaker inference_breaker_;
  CircuitBreaker regress_breaker_;
  CircuitBreaker materialize_breaker_;

  /// Constructed only when cfg_.learn.enabled; declared after the pool
  /// and scorecard it references so it is destroyed first (shutdown()
  /// stops it explicitly before the pool drains).
  std::unique_ptr<learn::OnlineTrainer> trainer_;
  /// Round-robin cursor for the shadow-probe format choice (learning
  /// mode only): which extra format the next materialize request times.
  std::atomic<std::uint64_t> probe_seq_{0};

  std::vector<std::unique_ptr<DispatchShard>> shards_;
  std::atomic<bool> stopping_{false};
  /// Round-robin cursor for submit()'s shard choice.
  std::atomic<std::uint64_t> submit_seq_{0};
  /// Requests sitting in shard queues (global, for the capacity gate).
  std::atomic<std::uint64_t> total_queued_{0};
  /// Backlogged-shard hint: bumped by submit() when a shard's queue
  /// exceeds one full batch; wakes a neighbour to steal.
  std::atomic<int> steal_hint_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::once_flag shutdown_once_;

  std::mutex inflight_mu_;
  std::uint64_t inflight_seq_ = 0;
  std::map<std::uint64_t, Inflight> inflight_;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> watchdog_killed_{0};
  /// EWMA of per-item regressor cost (ms) across all formats; 0 until
  /// the first indirect/predict batch measures it.
  std::atomic<double> indirect_item_cost_ms_{0.0};
  /// EWMA of total per-item batch cost (ms): drives admission shedding.
  /// Asymmetric smoothing — falls fast (cache-warm batches should stop
  /// the shedding quickly), rises slowly (one slow batch is not a
  /// regime change).
  std::atomic<double> batch_item_cost_ms_{0.0};
  /// Items admitted but not yet finished (shard queues + batches in
  /// or awaiting the pool). The dispatchers drain their queues into
  /// pool tasks immediately, so queue sizes alone hide the real backlog.
  std::atomic<std::uint64_t> backlog_{0};

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace spmvml::serve
