#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/error.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "features/features.hpp"
#include "gpusim/fault.hpp"
#include "ml/dataset.hpp"
#include "sparse/arena.hpp"

namespace spmvml::serve {

namespace {

constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64, 128};
/// LRU shards of the feature and ingest caches.
constexpr int kCacheShards = 8;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Clamp config knobs before any member (and the dispatcher threads,
/// which start in the constructor body) can read them.
ServiceConfig sanitize(ServiceConfig cfg) {
  cfg.threads = cfg.threads < 1 ? 1 : cfg.threads;
  cfg.max_batch = std::max<std::size_t>(cfg.max_batch, 1);
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.max_delay_ms = std::max(cfg.max_delay_ms, 0.0);
  cfg.dispatch_shards = std::max(cfg.dispatch_shards, 1);
  cfg.admission_target_ms = std::max(cfg.admission_target_ms, 0.0);
  cfg.watchdog_ms = std::max(cfg.watchdog_ms, 0.0);
  return cfg;
}

/// Identity key for the chaos draws of one request, distinct across
/// requests.
std::uint64_t request_identity(const Request& r) {
  return chaos::identity_hash(!r.id.empty() ? r.id : r.matrix_path);
}

/// The one chaos draw of a fault-handling stage (feature extraction,
/// inference, materialization), its latency already applied. A fault
/// takes the degradation ladder on this draw; the attempt-0 key keeps the
/// draws of earlier runs.
chaos::Fault stage_fault(chaos::Site site, std::uint64_t identity) {
  const chaos::Fault fault = chaos::hit(site, chaos::with_attempt(identity, 0));
  if (fault) chaos::apply_latency(fault);
  return fault;
}

/// An injected error or corruption: the stage's output is unusable.
bool breaks(const chaos::Fault& f) {
  return f.kind == chaos::FaultKind::kError ||
         f.kind == chaos::FaultKind::kCorrupt;
}

/// A failed request's error text: "<category>: <what>".
std::string error_text(const std::exception& e) {
  const auto* err = dynamic_cast<const Error*>(&e);
  return std::string(err != nullptr ? error_category_name(err->category())
                                    : "generic") +
         ": " + e.what();
}

/// Predicted SpMV time (us) of every format the perf model covers.
std::vector<std::pair<Format, double>> price_formats(
    const PerfModel& perf, const FeatureVector& features) {
  const auto formats = perf.formats();
  std::vector<std::pair<Format, double>> priced;
  priced.reserve(formats.size());
  for (const Format f : formats)
    priced.emplace_back(f, perf.predict_seconds(features, f) * 1e6);
  return priced;
}

/// Where an outage leaves a request (DESIGN.md §5h): the direct
/// classifier pick (no regressor pass), the static CSR floor (needs no
/// model and no features, so it is always valid), or the selection
/// served unmaterialized (the caller builds the format itself).
enum class Rung { kDirect, kCsrFloor, kUnmaterialized };

/// Every way a request leaves its route; indexes kLadder.
enum class Outage {
  kFeatureBreaker,
  kFeatureFault,
  kInferenceBreaker,
  kInferenceFault,
  kNoPerfModel,
  kDeadline,
  kMaterializeBreaker,
  kMaterializeFault,
};

struct LadderStep {
  Rung rung;
  const char* degrade_reason;
  /// Predict's error on a rung it cannot take. Empty where predict never
  /// fails: it ignores deadlines, and unmaterialized it still answers.
  const char* predict_error;
};

constexpr LadderStep kLadder[] = {
    {Rung::kCsrFloor, "breaker:features",
     "unavailable: feature stage breaker open (predict has no degradation "
     "floor)"},
    {Rung::kCsrFloor, "chaos:feature_extract",
     "io: injected feature-extract fault"},
    {Rung::kCsrFloor, "breaker:inference",
     "unavailable: inference breaker open (predict has no degradation "
     "floor)"},
    {Rung::kCsrFloor, "chaos:inference",
     "model-format: injected inference fault"},
    {Rung::kDirect, "no_perf_model",
     "model-format: no perf model installed (predict needs --perf-model)"},
    {Rung::kDirect, "deadline", ""},
    {Rung::kUnmaterialized, "breaker:materialize", ""},
    {Rung::kUnmaterialized, "chaos:materialize", ""},
};

std::string format_ms(double ms) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << ms;
  return os.str();
}

}  // namespace

Service::Service(ServiceConfig config, ModelRegistry& registry)
    : cfg_(sanitize(config)),
      registry_(registry),
      cache_(cfg_.cache_capacity, kCacheShards),
      ingest_(cfg_.ingest_cache_bytes, kCacheShards),
      pool_(cfg_.threads),
      feature_breaker_("features", cfg_.breaker),
      inference_breaker_("inference", cfg_.breaker),
      materialize_breaker_("materialize", cfg_.breaker) {
  const auto n_shards = static_cast<std::size_t>(cfg_.dispatch_shards);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_.push_back(std::make_unique<DispatchShard>());
  // Dispatchers start only after every shard exists: a thief may scan
  // the whole shard vector on its first wakeup.
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_[i]->dispatcher = std::thread([this, i] { dispatcher_loop(i); });
  if (cfg_.watchdog_ms > 0.0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
  if (cfg_.learn.enabled)
    trainer_ = std::make_unique<learn::OnlineTrainer>(cfg_.learn, scorecard_,
                                                      registry_, pool_);
  obs::log_info("serve.start")
      .kv("threads", pool_.size())
      .kv("max_batch", static_cast<std::uint64_t>(cfg_.max_batch))
      .kv("max_delay_ms", cfg_.max_delay_ms)
      .kv("queue_capacity", static_cast<std::uint64_t>(cfg_.queue_capacity))
      .kv("dispatch_shards", static_cast<std::uint64_t>(n_shards))
      .kv("ingest_cache_mb",
          static_cast<std::uint64_t>(cfg_.ingest_cache_bytes >> 20))
      .kv("admission_target_ms", cfg_.admission_target_ms)
      .kv("watchdog_ms", cfg_.watchdog_ms);
}

Service::~Service() { shutdown(); }

void Service::submit(Request req, Callback done) {
  // Sampling was decided once at parse; it travels with the request (so
  // it survives shard hand-offs and work-stealing) and only turns into
  // events while a trace is actually recording.
  const bool sampled = req.trace_sampled && obs::trace_enabled();
  if (sampled) obs::trace_instant("req.admit", req.id);
  auto slot = std::make_shared<ResponseSlot>();
  slot->done = std::move(done);
  Response reject;
  reject.id = req.id;
  reject.mode = req.mode;
  const std::size_t shard_index =
      submit_seq_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  DispatchShard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load(std::memory_order_relaxed)) {
      reject.error = "rejected: service is shutting down";
    } else {
      // Deadline-feasibility shedding: admitting a request the queue
      // cannot clear in time only manufactures a deadline miss (or an
      // unbounded latency tail); reject it honestly instead. The wait
      // estimate is backlog x per-item batch cost over the worker
      // count; before the first batch the EWMA is 0 and everything is
      // admitted (the seed behavior).
      const double item_ms = batch_item_cost_ms_.load(std::memory_order_relaxed);
      const double est_wait_ms =
          item_ms > 0.0
              ? static_cast<double>(backlog_.load(std::memory_order_relaxed)) *
                    item_ms / static_cast<double>(pool_.size())
              : 0.0;
      reject.est_wait_ms = est_wait_ms;
      // Reserve a queue slot; the capacity gate is global across shards.
      const std::uint64_t depth =
          total_queued_.fetch_add(1, std::memory_order_relaxed);
      if (depth >= cfg_.queue_capacity) {
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        reject.error = "rejected: queue full (overloaded)";
        reject.shed = "shed:queue_full";
      } else {
        const bool over_target = cfg_.admission_target_ms > 0.0 &&
                                 est_wait_ms > cfg_.admission_target_ms;
        const bool misses_deadline =
            req.deadline_ms > 0.0 && est_wait_ms > req.deadline_ms;
        if (!over_target && !misses_deadline) {
          backlog_.fetch_add(1, std::memory_order_relaxed);
          shard.queue.push_back(
              Pending{std::move(req), std::move(slot), Clock::now()});
          obs::MetricsRegistry::global().gauge("serve.queue_depth").set(
              static_cast<double>(depth + 1));
          if (shards_.size() > 1 && shard.queue.size() > cfg_.max_batch) {
            // More than a full batch pending here: hint an idle
            // neighbour to steal the overflow.
            steal_hint_.fetch_add(1, std::memory_order_relaxed);
            shards_[(shard_index + 1) % shards_.size()]->cv.notify_one();
          }
          shard.cv.notify_all();
          return;
        }
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        reject.shed = misses_deadline && !over_target ? "shed:deadline"
                                                      : "shed:overload";
        reject.error = "rejected: estimated queue wait " +
                       format_ms(est_wait_ms) + "ms exceeds " +
                       (misses_deadline && !over_target
                            ? "the request deadline"
                            : "the admission target");
      }
    }
  }
  // Deliver the rejection outside the lock; the callback may do I/O.
  if (sampled) obs::trace_instant("req.shed", reject.id);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter("serve.rejected").inc();
  if (!reject.shed.empty()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("serve." + std::string(reject.shed).replace(4, 1, "."))
        .inc();
  }
  slot->deliver(reject);
}

std::future<Response> Service::submit(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(req),
         [promise](const Response& r) { promise->set_value(r); });
  return future;
}

Response Service::call(Request req) { return submit(std::move(req)).get(); }

void Service::shutdown() {
  stopping_.store(true);
  // Lock-fence every shard: any submit that read stopping_ == false has
  // finished its push (and its notify) by the time we have held that
  // shard's mutex, so the wakeups below cannot miss a late enqueue.
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
  }
  for (auto& s : shards_) s->cv.notify_all();
  std::call_once(shutdown_once_, [this] {
    for (auto& s : shards_)
      if (s->dispatcher.joinable()) s->dispatcher.join();
    // The trainer stops before the pool drains: its poll thread must not
    // submit new training tasks once wait_idle() starts counting.
    if (trainer_) trainer_->stop();
    pool_.wait_idle();
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    obs::log_info("serve.stop")
        .kv("served", served_.load())
        .kv("rejected", rejected_.load())
        .kv("degraded", degraded_.load())
        .kv("shed", shed_.load())
        .kv("steals", steals_.load())
        .kv("watchdog_killed", watchdog_killed_.load());
  });
}

Service::Counters Service::counters() const {
  Counters c;
  c.served = served_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.watchdog_killed = watchdog_killed_.load(std::memory_order_relaxed);
  c.breaker_trips = feature_breaker_.trips() + inference_breaker_.trips() +
                    materialize_breaker_.trips();
  c.steals = steals_.load(std::memory_order_relaxed);
  return c;
}

void Service::launch_batch(std::vector<Pending> batch) {
  total_queued_.fetch_sub(batch.size(), std::memory_order_relaxed);
  obs::MetricsRegistry::global().gauge("serve.queue_depth").set(
      static_cast<double>(total_queued_.load(std::memory_order_relaxed)));
  auto shared = std::make_shared<std::vector<Pending>>(std::move(batch));
  pool_.submit([this, shared] { process_batch(*shared); });
}

std::vector<Service::Pending> Service::steal_batch(std::size_t thief_index) {
  std::vector<Pending> stolen;
  const std::size_t n_shards = shards_.size();
  for (std::size_t off = 1; off < n_shards && stolen.empty(); ++off) {
    DispatchShard& victim = *shards_[(thief_index + off) % n_shards];
    std::lock_guard<std::mutex> lock(victim.mu);
    // Only a genuine backlog (more than one full batch) is worth
    // stealing; raiding a shard mid-window would just fragment its
    // batch. Take the OLDEST requests — they have waited longest and
    // need no further batching delay.
    if (victim.queue.size() <= cfg_.max_batch) continue;
    const std::size_t n = std::min(cfg_.max_batch, victim.queue.size() / 2);
    stolen.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      stolen.push_back(std::move(victim.queue.front()));
      victim.queue.pop_front();
    }
  }
  return stolen;
}

void Service::dispatcher_loop(std::size_t shard_index) {
  DispatchShard& self = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(self.mu);
  for (;;) {
    self.cv.wait(lock, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             !self.queue.empty() ||
             (shards_.size() > 1 &&
              steal_hint_.load(std::memory_order_relaxed) > 0);
    });
    if (self.queue.empty()) {
      if (shards_.size() > 1 &&
          steal_hint_.load(std::memory_order_relaxed) > 0) {
        // Consume one hint, then scan the other shards for overflow. A
        // stale hint (the owner drained first) costs one idle scan.
        int h = steal_hint_.load(std::memory_order_relaxed);
        while (h > 0 && !steal_hint_.compare_exchange_weak(
                            h, h - 1, std::memory_order_relaxed)) {
        }
        lock.unlock();
        std::vector<Pending> stolen = steal_batch(shard_index);
        if (!stolen.empty()) {
          steals_.fetch_add(1, std::memory_order_relaxed);
          obs::MetricsRegistry::global().counter("serve.steal").inc();
          launch_batch(std::move(stolen));
        }
        lock.lock();
        continue;
      }
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;
    }
    // Micro-batch window: opened by the oldest pending request. Keep the
    // batch open until it is full or the window closes; shutdown closes
    // every window immediately so draining never waits out a delay.
    const auto close_at =
        self.queue.front().enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(cfg_.max_delay_ms));
    while (!stopping_.load(std::memory_order_relaxed) &&
           self.queue.size() < cfg_.max_batch && Clock::now() < close_at)
      self.cv.wait_until(lock, close_at);
    if (self.queue.empty()) continue;  // a thief drained us mid-window

    const std::size_t n = std::min(self.queue.size(), cfg_.max_batch);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(self.queue.front()));
      self.queue.pop_front();
    }
    lock.unlock();
    launch_batch(std::move(batch));
    lock.lock();
  }
}

void Service::watchdog_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      std::max(1.0, cfg_.watchdog_ms / 4.0));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (watchdog_stop_) return;
    lock.unlock();
    kill_overdue(Clock::now());
    lock.lock();
  }
}

void Service::kill_overdue(Clock::time_point now) {
  // Only act when a pool worker is demonstrably stuck inside one task —
  // an overdue batch whose worker is still making progress across tasks
  // is latency, not a hang, and the breakers own that.
  bool stuck = false;
  for (const auto& hb : pool_.heartbeats())
    if (hb.busy && hb.busy_s * 1e3 >= cfg_.watchdog_ms) {
      stuck = true;
      break;
    }
  if (!stuck) return;

  std::vector<Inflight> victims;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (ms_between(it->second.started, now) >= cfg_.watchdog_ms) {
        victims.push_back(std::move(it->second));
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto& registry_metrics = obs::MetricsRegistry::global();
  for (auto& v : victims) {
    for (std::size_t i = 0; i < v.slots.size(); ++i) {
      Response r = v.skeletons[i];
      r.ok = false;
      r.error = "watchdog: batch exceeded the " + format_ms(cfg_.watchdog_ms) +
                "ms budget (worker stuck); request failed cleanly";
      r.latency_ms = ms_between(v.started, now);
      if (v.slots[i]->claim()) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        watchdog_killed_.fetch_add(1, std::memory_order_relaxed);
        registry_metrics.counter("serve.watchdog.killed").inc();
        registry_metrics.counter("serve.error").inc();
        obs::log_warn("serve.watchdog.kill")
            .kv("id", r.id)
            .kv("batch_age_ms", r.latency_ms);
        v.slots[i]->finish(r);
      }
    }
  }
}

/// One request's record across the batch stages.
struct Service::Slot {
  Pending* item = nullptr;
  Response rsp;
  FeatureVector features;
  RowSummary summary;
  /// Borrowed ingest view, kept only for materialize requests. Pins the
  /// CSR against cache eviction for the life of the batch.
  std::shared_ptr<const Csr<double>> view;
  /// Memory-budget gate (empty when unconstrained or no summary).
  FeasibilityFn feasible;
  bool has_summary = false;
  bool has_features = false;  // features came inline or were extracted
  bool live = false;          // resolved and awaiting predictions
  bool indirect = false;      // gets the regressor pass
  bool csr_fallback = false;  // bottom rung: static CSR, no model pass
  bool counted = false;       // select_feasible() bumped serve.select

  /// Take the ladder for `o`: the one place an outage picks a rung.
  /// Predict returns the per-format times, so it has no floor below its
  /// own route: above the unmaterialized rung it fails instead.
  void take(Outage o) {
    const LadderStep& step = kLadder[static_cast<int>(o)];
    if (step.rung != Rung::kUnmaterialized &&
        item->req.mode == RequestMode::kPredict) {
      live = false;
      rsp.error = step.predict_error;
      return;
    }
    rsp.degraded = true;
    if (rsp.degrade_reason.empty()) rsp.degrade_reason = step.degrade_reason;
    if (step.rung == Rung::kCsrFloor) {
      live = false;
      csr_fallback = true;
    }
  }

  void fail(const std::exception& e) {
    live = false;
    rsp.ok = false;
    rsp.error = error_text(e);
  }
};

/// One batch on its way through the stages. Every request in it shares
/// the stage times, reported as the response's "stage_ms".
struct Service::Batch {
  std::shared_ptr<const ModelBundle> bundle;
  Clock::time_point picked_up;
  bool tracing = false;
  std::vector<Slot> slots;
  double features_ms = 0.0;
  double classify_ms = 0.0;
  double regress_ms = 0.0;
  double finalize_ms = 0.0;
};

void Service::resolve_features(Slot& s) {
  const Request& req = s.item->req;
  // Predict picks no format, so it has nothing to materialize.
  const bool materialize =
      req.materialize && req.mode != RequestMode::kPredict;
  try {
    if (!req.features.empty()) {
      std::copy(req.features.begin(), req.features.end(),
                s.features.values.begin());
      s.has_features = true;
      // Inline features + materialize: only the CSR master copy is
      // needed, and it comes from the ingest cache — a repeat matrix
      // costs zero parses.
      if (materialize) s.view = ingest_.load(req.matrix_path).matrix;
      s.live = true;
      return;
    }

    // Feature stage down: take the ladder instead of hammering it.
    if (!feature_breaker_.allow(Clock::now()))
      return s.take(Outage::kFeatureBreaker);

    const std::uint64_t identity = request_identity(req);
    // Chaos site cache_lookup: a failed cache shard fails open to a
    // miss — features are recomputed, never served stale or wrong.
    bool cache_usable = true;
    const chaos::Fault cache_fault =
        chaos::hit(chaos::Site::kCacheLookup, identity);
    if (cache_fault) {
      chaos::apply_latency(cache_fault);
      if (cache_fault.kind != chaos::FaultKind::kLatency) cache_usable = false;
    }

    // Zero-copy fast path: resolve the content key from the stat cache
    // (two stat() calls, no reads) and serve cached features without
    // ever touching the matrix bytes. Warm repeat traffic does no file
    // I/O at all on this route.
    std::optional<CachedFeatures> cached;
    if (cache_usable)
      if (const auto key = ingest_.resolve_key(req.matrix_path))
        cached = cache_.get(*key);
    std::shared_ptr<const Csr<double>> matrix;
    if (!cached) {
      // Feature miss (or the cache is chaos-disabled): materialize the
      // matrix through the ingest cache — LRU hit, sidecar bulk read, or
      // text parse, whichever is cheapest — then extract. A file that
      // cannot be read or parsed is the client's error: it fails this
      // request and never counts against the stage's breaker.
      MatrixCache::View loaded = ingest_.load(req.matrix_path);
      matrix = std::move(loaded.matrix);
      if (cache_usable) cached = cache_.get(loaded.key);
      if (!cached) {
        // Chaos site feature_extract: an error degrades the request;
        // corruption perturbs the extracted vector (and is never cached).
        const chaos::Fault fault =
            stage_fault(chaos::Site::kFeatureExtract, identity);
        if (fault.kind == chaos::FaultKind::kError) {
          feature_breaker_.record(false, Clock::now());
          if (materialize) s.view = std::move(matrix);
          return s.take(Outage::kFeatureFault);
        }
        // In-batch parallel extraction: this worker scans blocks too, so
        // a busy parallel_for pool degrades to the serial scan, never a
        // wait.
        s.features = extract_features(*matrix);
        s.summary = summarize(*matrix);
        if (fault.kind == chaos::FaultKind::kCorrupt) {
          // Corrupted extraction: every value off by a sign flip. The
          // classifier still yields an in-range label (possibly a bad
          // pick — chaos tests assert validity, not optimality) and the
          // poisoned vector must never enter the cache.
          for (double& v : s.features.values) v = -v;
        } else {
          cache_.put(loaded.key, CachedFeatures{s.features, s.summary});
        }
      }
    }
    if (cached) {
      s.features = cached->features;
      s.summary = cached->summary;
      s.rsp.cache_hit = true;
    }
    s.has_summary = true;
    s.has_features = true;
    feature_breaker_.record(true, Clock::now());
    // A fast-path hit reads the matrix only now, and only to materialize.
    if (materialize)
      s.view = matrix != nullptr ? std::move(matrix)
                                 : ingest_.load(req.matrix_path).matrix;
    s.live = true;
  } catch (const std::exception& e) {
    s.fail(e);
  }
}

void Service::process_batch(std::vector<Pending>& items) {
  obs::TraceSpan span("serve.batch");
  span.arg("size", static_cast<std::uint64_t>(items.size()));
  obs::MetricsRegistry::global()
      .histogram("serve.batch_size", kBatchBounds)
      .observe(static_cast<double>(items.size()));

  Batch b;
  b.bundle = registry_.current();
  b.picked_up = Clock::now();
  b.tracing = obs::trace_enabled();
  b.slots.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) b.slots[i].item = &items[i];

  // Register with the watchdog before doing any work: a hang anywhere
  // below must be recoverable from outside this thread.
  std::uint64_t inflight_id = 0;
  if (cfg_.watchdog_ms > 0.0) {
    Inflight rec;
    rec.started = b.picked_up;
    rec.slots.reserve(items.size());
    rec.skeletons.reserve(items.size());
    for (const Pending& p : items) {
      rec.slots.push_back(p.slot);
      Response skeleton;
      skeleton.id = p.req.id;
      skeleton.mode = p.req.mode;
      rec.skeletons.push_back(std::move(skeleton));
    }
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_id = ++inflight_seq_;
    inflight_.emplace(inflight_id, std::move(rec));
  }

  WallTimer timer;
  features(b);
  b.features_ms = timer.millis();
  if (b.bundle != nullptr) {
    timer.reset();
    classify(b);
    b.classify_ms = timer.millis();
    timer.reset();
    regress(b);
    b.regress_ms = timer.millis();
  }
  // The reported finalize time covers materialization too.
  timer.reset();
  finalize(b);
  materialize(b);
  b.finalize_ms = timer.millis();
  deliver(b);

  if (inflight_id != 0) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(inflight_id);
  }
}

// --- Stage 1: features (ingest + caches + Table II extraction). ---
void Service::features(Batch& b) {
  obs::TraceSpan span("serve.features");
  for (Slot& s : b.slots) {
    const Request& req = s.item->req;
    const bool sampled = b.tracing && req.trace_sampled;
    s.rsp.id = req.id;
    s.rsp.mode = req.mode;
    s.rsp.batch = b.slots.size();
    s.rsp.queue_ms = ms_between(s.item->enqueued, b.picked_up);
    obs::MetricsRegistry::global()
        .histogram("serve.queue_s", obs::default_latency_bounds_s())
        .observe(s.rsp.queue_ms / 1e3);
    // Queue wait started on the submitting thread and ended here
    // (possibly after a steal), so it is recorded retroactively.
    if (sampled)
      obs::trace_complete("req.queue", s.rsp.queue_ms * 1e3, s.rsp.id);
    if (b.bundle == nullptr) {
      s.rsp.error = "model-format: no model installed in the registry";
      continue;
    }
    s.rsp.model_version = b.bundle->version;
    WallTimer request_timer;
    resolve_features(s);
    if (sampled)
      obs::trace_complete("req.features", request_timer.millis() * 1e3,
                          s.rsp.id);
  }
}

// --- Stage 2: one batched classifier pass over every live request. ---
// The direct prediction is computed for all modes: select/predict use it
// directly, indirect keeps it as the degradation target.
void Service::classify(Batch& b) {
  obs::TraceSpan span("serve.classify");
  const bool inference_up = inference_breaker_.allow(Clock::now());
  ml::Matrix x;
  std::vector<Slot*> rows;  // slot per matrix row
  for (Slot& s : b.slots) {
    if (!s.live) continue;
    if (!inference_up) {
      s.take(Outage::kInferenceBreaker);
      continue;
    }
    x.push_back(s.features.select(b.bundle->selector->feature_set()));
    rows.push_back(&s);
  }
  if (x.empty()) return;
  const std::vector<int> labels =
      b.bundle->selector->classifier().predict_batch(x);
  const auto candidates = b.bundle->selector->candidates();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    Slot& s = *rows[k];
    // Chaos site inference: per-request faults over the batched result.
    // An error or a corrupted label takes the ladder rather than ever
    // serving an invalid selection.
    const bool injected = breaks(
        stage_fault(chaos::Site::kInference, request_identity(s.item->req)));
    const int label = injected ? -1 : labels[k];
    if (label < 0 || label >= static_cast<int>(candidates.size())) {
      inference_breaker_.record(false, Clock::now());
      if (injected) {
        s.take(Outage::kInferenceFault);
      } else {
        s.live = false;
        s.rsp.error = "model-format: classifier produced out-of-range label";
      }
      continue;
    }
    inference_breaker_.record(true, Clock::now());
    s.rsp.predicted = candidates[static_cast<std::size_t>(label)];
    s.rsp.format = s.rsp.predicted;
    if (b.tracing && s.item->req.trace_sampled)
      obs::trace_instant("req.infer", s.rsp.id);
  }
}

// --- Stage 3: the per-format regressor pass (indirect and predict). ---
void Service::regress(Batch& b) {
  // Deadline triage first: an indirect request whose remaining budget
  // cannot fit the (EWMA-estimated) regressor pass degrades to the
  // direct prediction computed above.
  const double est_ms = indirect_item_cost_ms_.load(std::memory_order_relaxed);
  std::vector<Slot*> rows;
  for (Slot& s : b.slots) {
    const Request& req = s.item->req;
    if (!s.live || req.mode == RequestMode::kSelect) continue;
    if (b.bundle->perf == nullptr) {
      s.take(Outage::kNoPerfModel);
      continue;
    }
    if (req.mode == RequestMode::kIndirect && req.deadline_ms > 0.0) {
      const double remaining =
          req.deadline_ms - ms_between(s.item->enqueued, Clock::now());
      if (remaining <= 0.0 || remaining < est_ms) {
        s.take(Outage::kDeadline);
        continue;
      }
    }
    s.indirect = true;
    rows.push_back(&s);
  }
  if (rows.empty()) return;

  obs::TraceSpan span("serve.regress");
  span.arg("items", static_cast<std::uint64_t>(rows.size()));
  WallTimer timer;
  for (Slot* s : rows)
    s->rsp.predicted_us = price_formats(*b.bundle->perf, s->features);
  const double per_item_ms = timer.millis() / static_cast<double>(rows.size());
  const double prev = indirect_item_cost_ms_.load(std::memory_order_relaxed);
  indirect_item_cost_ms_.store(
      prev <= 0.0 ? per_item_ms : 0.8 * prev + 0.2 * per_item_ms,
      std::memory_order_relaxed);
}

// --- Stage 4: per-request feasibility + argmin. ---
void Service::finalize(Batch& b) {
  for (Slot& s : b.slots) {
    if (!s.live && !s.csr_fallback) continue;
    const Request& req = s.item->req;
    s.rsp.ok = true;
    if (s.csr_fallback) {
      // Bottom rung: CSR is the universal floor — valid for every
      // matrix, needs no model and no features.
      s.rsp.format = Format::kCsr;
      s.rsp.predicted = Format::kCsr;
      s.rsp.fallback = false;
    }
    const double budget_gb =
        req.mem_budget_gb > 0.0 ? req.mem_budget_gb : cfg_.mem_budget_gb;
    if (budget_gb > 0.0 && s.has_summary)
      s.feasible = make_memory_feasibility(
          s.summary, cfg_.precision,
          static_cast<std::int64_t>(budget_gb * 1e9));

    try {
      if (s.indirect && req.mode == RequestMode::kIndirect) {
        // Argmin of predicted times over feasible formats.
        double best = 0.0;
        bool found = false;
        auto [best_unconstrained, best_unconstrained_us] =
            s.rsp.predicted_us.front();
        for (const auto& [f, us] : s.rsp.predicted_us) {
          if (us < best_unconstrained_us) {
            best_unconstrained = f;
            best_unconstrained_us = us;
          }
          if (s.feasible && !s.feasible(f)) continue;
          if (!found || us < best) {
            best = us;
            s.rsp.format = f;
            found = true;
          }
        }
        s.rsp.predicted = best_unconstrained;
        if (!found) {
          // Nothing feasible: CSR floor, mirroring select_feasible.
          const auto formats = b.bundle->perf->formats();
          SPMVML_ENSURE_CAT(
              std::find(formats.begin(), formats.end(), Format::kCsr) !=
                  formats.end(),
              ErrorCategory::kInfeasibleFormat,
              "no modeled format is feasible under the memory budget");
          s.rsp.format = Format::kCsr;
        }
        s.rsp.fallback = s.rsp.format != s.rsp.predicted;
      } else if (s.live && req.mode != RequestMode::kPredict && s.feasible) {
        // Direct classifier result (select, or degraded indirect).
        const Selection sel =
            b.bundle->selector->select_feasible(s.features, s.feasible);
        s.rsp.predicted = sel.predicted;
        s.rsp.format = sel.format;
        s.rsp.fallback = sel.fallback;
        s.counted = true;
      }
    } catch (const std::exception& e) {
      s.fail(e);
    }
  }
}

// --- Stage 5: convert + SpMV + scorecard + shadow probe. ---
void Service::materialize(Batch& b) {
  for (Slot& s : b.slots) {
    const Request& req = s.item->req;
    if (!s.rsp.ok || s.view == nullptr) continue;
    // Conversion stage down, or a conversion fault: the selection is
    // still served, the caller just builds the format itself.
    if (!materialize_breaker_.allow(Clock::now())) {
      s.take(Outage::kMaterializeBreaker);
      continue;
    }
    if (breaks(stage_fault(chaos::Site::kMaterialize, request_identity(req)))) {
      materialize_breaker_.record(false, Clock::now());
      s.take(Outage::kMaterializeFault);
      continue;
    }
    try {
      WallTimer timer;
      build_and_score(b, s);
      if (b.tracing && req.trace_sampled)
        obs::trace_complete("req.materialize", timer.millis() * 1e3, s.rsp.id);
    } catch (const std::exception& e) {
      s.fail(e);
    }
  }
}

void Service::build_and_score(const Batch& b, Slot& s) {
  const Csr<double>& csr = *s.view;
  // One conversion arena per worker thread: a stream of requests reuses
  // its buffers, so the steady-state conversion performs no heap
  // allocation. The borrowed view is read-only; the arena copies what it
  // needs. The x/y vectors are thread_local for the same reason.
  thread_local ConversionArena<double> arena;
  thread_local std::vector<double> spmv_x, spmv_y;
  WallTimer convert_timer;
  const AnyMatrix<double>& built = arena.convert(s.rsp.format, csr);
  s.rsp.convert_ms = convert_timer.millis();
  s.rsp.format_bytes = built.bytes();
  s.rsp.materialized = true;
  materialize_breaker_.record(true, Clock::now());
  obs::MetricsRegistry::global()
      .counter(std::string("serve.materialize.") + format_name(s.rsp.format))
      .inc();

  // Prediction scorecard: this is the one place the service holds both
  // the model's opinion and a real, just-built format — run one SpMV on
  // it and ledger predicted vs measured.
  const double flops = 2.0 * static_cast<double>(csr.nnz());
  const auto time_spmv = [&](const AnyMatrix<double>& m) {
    spmv_x.assign(static_cast<std::size_t>(csr.cols()), 1.0);
    spmv_y.assign(static_cast<std::size_t>(csr.rows()), 0.0);
    WallTimer spmv_timer;
    m.spmv(spmv_x, spmv_y);
    // Clamp: a sub-resolution measurement must not produce an infinite
    // GFLOPS figure.
    return std::max(spmv_timer.seconds(), 1e-9);
  };
  const double spmv_s = time_spmv(built);
  s.rsp.spmv_ms = spmv_s * 1e3;
  s.rsp.measured_gflops = flops / spmv_s / 1e9;
  // A slot whose feature extraction failed served the CSR floor: it has
  // no feature vector to ledger, and no training sample to probe for.
  if (!s.has_features) return;

  ScorecardEntry entry;
  entry.features_hash = features_fingerprint(s.features.values);
  entry.features = s.features.values;
  entry.chosen = s.rsp.format;
  entry.predicted_best = s.rsp.format;
  entry.measured_gflops = s.rsp.measured_gflops;
  entry.model_version = s.rsp.model_version;
  // Per-format predicted times: reuse the regressor pass when stage 3
  // ran it, otherwise price the formats here (the conversion+SpMV just
  // done dwarfs this pass).
  std::vector<std::pair<Format, double>> predicted_us = s.rsp.predicted_us;
  if (predicted_us.empty() && b.bundle->perf != nullptr)
    predicted_us = price_formats(*b.bundle->perf, s.features);
  if (!predicted_us.empty()) {
    double chosen_us = 0.0;
    double best_us = 0.0;
    for (const auto& [f, us] : predicted_us) {
      if (f == s.rsp.format) chosen_us = us;
      if (best_us <= 0.0 || us < best_us) {
        best_us = us;
        entry.predicted_best = f;
      }
    }
    if (chosen_us > 0.0) {
      entry.predicted_gflops = flops / (chosen_us * 1e-6) / 1e9;
      s.rsp.predicted_gflops = entry.predicted_gflops;
      if (best_us > 0.0) entry.regret = chosen_us / best_us - 1.0;
    }
  }
  scorecard_.record(entry);
  if (trainer_ == nullptr) return;

  // Shadow probe (learning mode only): convert and time ONE extra format
  // so the replay buffer accumulates per-format measured truth — the
  // labels the retraining loop needs. The probe entry rides the
  // scorecard ring flagged probe=true (excluded from the traffic
  // aggregates) and never touches the served response.
  const auto probe_formats = b.bundle->perf != nullptr
                                 ? b.bundle->perf->formats()
                                 : b.bundle->selector->candidates();
  if (probe_formats.size() < 2) return;
  // Mix the matrix fingerprint into the rotation: a bare counter
  // resonates with cyclic traffic (N matrices polled round-robin with N
  // divisible by the format count probes the SAME format for a given
  // matrix forever), leaving whole formats unmeasured on a regime.
  // Hashing decorrelates the probe choice from the arrival pattern while
  // staying deterministic for a fixed request order.
  const std::uint64_t pseq = hash_combine(
      entry.features_hash, probe_seq_.fetch_add(1, std::memory_order_relaxed));
  Format probe_fmt = probe_formats[pseq % probe_formats.size()];
  if (probe_fmt == s.rsp.format)
    probe_fmt = probe_formats[(pseq + 1) % probe_formats.size()];
  if (probe_fmt == s.rsp.format || (s.feasible && !s.feasible(probe_fmt)))
    return;
  try {
    WallTimer probe_total;
    const double probe_s = time_spmv(arena.convert(probe_fmt, csr));
    ScorecardEntry probe = entry;
    probe.probe = true;
    probe.chosen = probe_fmt;
    probe.measured_gflops = flops / probe_s / 1e9;
    probe.predicted_gflops = 0.0;
    probe.regret = 0.0;
    for (const auto& [f, us] : predicted_us)
      if (f == probe_fmt && us > 0.0)
        probe.predicted_gflops = flops / (us * 1e-6) / 1e9;
    scorecard_.record(probe);
    if (b.tracing && s.item->req.trace_sampled)
      obs::trace_complete("req.probe", probe_total.millis() * 1e3, s.rsp.id);
  } catch (const Error&) {
    // A probe that cannot convert is just a missing measurement; the
    // response is already complete.
    obs::MetricsRegistry::global().counter("serve.probe.failed").inc();
  }
}

// --- Stage 6: reply + per-response accounting. ---
void Service::deliver(Batch& b) {
  // Admission shedding feeds on the measured per-item batch cost. Updated
  // before delivery: once a caller sees its response, the next submit()
  // must price the queue with this batch's cost already folded in. The
  // smoothing is asymmetric: cost drops (caches warming up after a cold
  // start) are tracked fast so the shed gate reopens quickly, cost rises
  // slowly so one anomalous batch does not trigger a shed storm.
  const double n = static_cast<double>(b.slots.size());
  const double per_item_ms = ms_between(b.picked_up, Clock::now()) / n;
  const double prev = batch_item_cost_ms_.load(std::memory_order_relaxed);
  double next = per_item_ms;
  if (prev > 0.0) {
    const double alpha = per_item_ms < prev ? 0.5 : 0.2;
    next = (1.0 - alpha) * prev + alpha * per_item_ms;
  }
  batch_item_cost_ms_.store(next, std::memory_order_relaxed);
  backlog_.fetch_sub(b.slots.size(), std::memory_order_relaxed);

  auto& registry_metrics = obs::MetricsRegistry::global();
  for (Slot& s : b.slots) {
    const Request& req = s.item->req;
    s.rsp.latency_ms = ms_between(s.item->enqueued, Clock::now());
    s.rsp.has_stage_ms = true;  // to_json only renders it on ok responses
    s.rsp.stage_features_ms = b.features_ms;
    s.rsp.stage_classify_ms = b.classify_ms;
    s.rsp.stage_regress_ms = b.regress_ms;
    s.rsp.stage_finalize_ms = b.finalize_ms;
    if (b.tracing && req.trace_sampled)
      obs::trace_complete("req.done", s.rsp.latency_ms * 1e3, s.rsp.id);
    if (!s.item->slot->claim()) continue;  // watchdog got there first
    // Account before invoking the callback: the moment finish() runs,
    // the caller may wake and read counters(), which must already
    // include this request.
    if (s.rsp.ok && !s.counted && req.mode != RequestMode::kPredict)
      registry_metrics
          .counter(std::string("serve.select.") + format_name(s.rsp.format))
          .inc();
    if (s.rsp.ok && s.rsp.degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      registry_metrics.counter("serve.degraded").inc();
      if (s.rsp.degrade_reason == "deadline")
        registry_metrics.counter("serve.deadline_degraded").inc();
    }
    if (!s.rsp.ok) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      registry_metrics.counter("serve.error").inc();
    }
    registry_metrics.histogram("serve.latency_s", obs::default_latency_bounds_s())
        .observe(s.rsp.latency_ms / 1e3);
    served_.fetch_add(1, std::memory_order_relaxed);
    registry_metrics.counter("serve.requests").inc();
    s.item->slot->finish(s.rsp);
  }
}

}  // namespace spmvml::serve
