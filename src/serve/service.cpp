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
/// inference, materialization). A fault takes the degradation ladder on
/// this draw; the attempt-0 key keeps the draws of earlier runs.
chaos::Fault stage_fault(chaos::Site site, std::uint64_t identity) {
  return chaos::hit(site, chaos::with_attempt(identity, 0));
}

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
      regress_breaker_("regress", cfg_.breaker),
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
                    regress_breaker_.trips() + materialize_breaker_.trips();
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

bool Service::resolve_features(Pending& item, Response& rsp,
                               FeatureVector& features, RowSummary& summary,
                               bool& has_summary, bool& csr_fallback,
                               std::shared_ptr<const Csr<double>>* keep_view) {
  has_summary = false;
  csr_fallback = false;
  const bool inline_features = !item.req.features.empty();
  if (inline_features)
    std::copy(item.req.features.begin(), item.req.features.end(),
              features.values.begin());
  if (inline_features && keep_view == nullptr) return true;

  if (inline_features) {
    // Inline features + materialize: only the CSR master copy is needed,
    // and it comes from the ingest cache — a repeat matrix costs zero
    // parses (this path used to re-read the text file every request).
    try {
      *keep_view = ingest_.load(item.req.matrix_path).matrix;
      return true;
    } catch (const Error& e) {
      rsp.ok = false;
      rsp.error = std::string(error_category_name(e.category())) + ": " +
                  e.what();
      return false;
    } catch (const std::exception& e) {
      rsp.ok = false;
      rsp.error = std::string("generic: ") + e.what();
      return false;
    }
  }

  if (!feature_breaker_.allow(Clock::now())) {
    // Feature stage is down: walk to the bottom rung of the ladder
    // instead of hammering it. CSR needs no features, so select and
    // indirect stay answerable; predict has no floor to stand on.
    if (item.req.mode == RequestMode::kPredict) {
      rsp.ok = false;
      rsp.error =
          "unavailable: feature stage breaker open (predict has no "
          "degradation floor)";
      return false;
    }
    csr_fallback = true;
    rsp.degraded = true;
    rsp.degrade_reason = "breaker:features";
    return false;
  }

  const std::uint64_t identity = request_identity(item.req);
  try {
    WallTimer stage_timer;
    // Chaos site cache_lookup: a failed cache shard fails open to a
    // miss — features are recomputed, never served stale or wrong.
    bool cache_usable = true;
    const chaos::Fault cache_fault =
        chaos::hit(chaos::Site::kCacheLookup, identity);
    if (cache_fault) {
      chaos::apply_latency(cache_fault);
      if (cache_fault.kind != chaos::FaultKind::kLatency)
        cache_usable = false;
    }

    // Zero-copy fast path: resolve the content key from the stat cache
    // (two stat() calls, no reads) and serve cached features without
    // ever touching the matrix bytes. Warm repeat traffic does no file
    // I/O at all on this route.
    if (cache_usable) {
      if (const auto key = ingest_.resolve_key(item.req.matrix_path)) {
        if (std::optional<CachedFeatures> cached = cache_.get(*key)) {
          features = cached->features;
          summary = cached->summary;
          rsp.cache_hit = true;
          has_summary = true;
          feature_breaker_.record(true, stage_timer.millis(), Clock::now());
          if (keep_view != nullptr)
            *keep_view = ingest_.load(item.req.matrix_path).matrix;
          return true;
        }
      }
    }

    // Feature miss (or the cache is chaos-disabled): materialize the
    // matrix through the ingest cache — LRU hit, sidecar bulk read, or
    // text parse, whichever is cheapest — then extract.
    std::shared_ptr<const Csr<double>> view;
    std::uint64_t content_key = 0;
    {
      MatrixCache::View loaded = ingest_.load(item.req.matrix_path);
      view = std::move(loaded.matrix);
      content_key = loaded.key;
    }
    std::optional<CachedFeatures> cached =
        cache_usable ? cache_.get(content_key) : std::nullopt;
    if (cached) {
      features = cached->features;
      summary = cached->summary;
      rsp.cache_hit = true;
    } else {
      // Chaos site feature_extract: an error degrades the request;
      // corruption perturbs the extracted vector (and is never cached).
      const chaos::Fault fault =
          stage_fault(chaos::Site::kFeatureExtract, identity);
      if (fault) chaos::apply_latency(fault);
      if (fault.kind == chaos::FaultKind::kError) {
        feature_breaker_.record(false, stage_timer.millis(), Clock::now());
        if (item.req.mode == RequestMode::kPredict) {
          rsp.ok = false;
          rsp.error = "io: injected feature-extract fault";
          return false;
        }
        csr_fallback = true;
        rsp.degraded = true;
        rsp.degrade_reason = "chaos:feature_extract";
        if (keep_view != nullptr) *keep_view = std::move(view);
        return false;
      }
      // In-batch parallel extraction: this worker scans blocks too, so a
      // busy parallel_for pool degrades to the serial scan, never a wait.
      features = extract_features(*view);
      summary = summarize(*view);
      if (fault.kind == chaos::FaultKind::kCorrupt) {
        // Corrupted extraction: every value off by a sign flip. The
        // classifier still yields an in-range label (possibly a bad
        // pick — chaos tests assert validity, not optimality) and the
        // poisoned vector must never enter the cache.
        for (double& v : features.values) v = -v;
      } else {
        cache_.put(content_key, CachedFeatures{features, summary});
      }
    }
    has_summary = true;
    feature_breaker_.record(true, stage_timer.millis(), Clock::now());
    if (keep_view != nullptr) *keep_view = std::move(view);
    return true;
  } catch (const Error& e) {
    feature_breaker_.record(false, 0.0, Clock::now());
    rsp.ok = false;
    rsp.error = std::string(error_category_name(e.category())) + ": " +
                e.what();
    return false;
  } catch (const std::exception& e) {
    feature_breaker_.record(false, 0.0, Clock::now());
    rsp.ok = false;
    rsp.error = std::string("generic: ") + e.what();
    return false;
  }
}

void Service::process_batch(std::vector<Pending>& batch) {
  obs::TraceSpan span("serve.batch");
  span.arg("size", static_cast<std::uint64_t>(batch.size()));
  auto& registry_metrics = obs::MetricsRegistry::global();
  registry_metrics.histogram("serve.batch_size", kBatchBounds)
      .observe(static_cast<double>(batch.size()));

  const std::shared_ptr<const ModelBundle> bundle = registry_.current();
  const auto picked_up = Clock::now();

  // Register with the watchdog before doing any work: a hang anywhere
  // below must be recoverable from outside this thread.
  std::uint64_t inflight_id = 0;
  if (cfg_.watchdog_ms > 0.0) {
    Inflight rec;
    rec.started = picked_up;
    rec.slots.reserve(batch.size());
    rec.skeletons.reserve(batch.size());
    for (const Pending& p : batch) {
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

  struct Slot {
    Response rsp;
    FeatureVector features;
    RowSummary summary;
    /// Borrowed ingest view, kept only for materialize requests. Pins
    /// the CSR against cache eviction for the life of the batch.
    std::shared_ptr<const Csr<double>> view;
    bool has_summary = false;
    bool live = false;         // resolved and awaiting predictions
    bool indirect = false;     // gets the regressor pass
    bool csr_fallback = false; // bottom rung: static CSR, no model pass
  };
  std::vector<Slot> slots(batch.size());

  // Per-batch stage breakdown: every request in the batch shares these
  // (the stages run at batch granularity), reported as "stage_ms".
  const bool tracing = obs::trace_enabled();
  double stage_features_ms = 0.0;
  double stage_classify_ms = 0.0;
  double stage_regress_ms = 0.0;
  double stage_finalize_ms = 0.0;

  // --- Stage 1: features (ingest + caches + Table II extraction). ---
  {
    obs::TraceSpan features_span("serve.features");
    WallTimer stage_timer;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Slot& s = slots[i];
      const bool sampled = tracing && batch[i].req.trace_sampled;
      s.rsp.id = batch[i].req.id;
      s.rsp.mode = batch[i].req.mode;
      s.rsp.batch = batch.size();
      s.rsp.queue_ms = ms_between(batch[i].enqueued, picked_up);
      registry_metrics.histogram("serve.queue_s", obs::default_latency_bounds_s())
          .observe(s.rsp.queue_ms / 1e3);
      // Queue wait started on the submitting thread and ended here
      // (possibly after a steal), so it is recorded retroactively.
      if (sampled)
        obs::trace_complete("req.queue", s.rsp.queue_ms * 1e3, s.rsp.id);
      if (bundle == nullptr) {
        s.rsp.error = "model-format: no model installed in the registry";
        continue;
      }
      s.rsp.model_version = bundle->version;
      WallTimer request_timer;
      s.live = resolve_features(batch[i], s.rsp, s.features, s.summary,
                                s.has_summary, s.csr_fallback,
                                batch[i].req.materialize ? &s.view : nullptr);
      if (sampled)
        obs::trace_complete("req.features", request_timer.millis() * 1e3,
                            s.rsp.id);
    }
    stage_features_ms = stage_timer.millis();
  }

  // --- Stage 2: one batched classifier pass over every live request. ---
  // The direct prediction is computed for all modes: select/predict use
  // it directly, indirect keeps it as the degradation target. An open
  // inference breaker sends select/indirect to the CSR rung wholesale.
  if (bundle != nullptr) {
    obs::TraceSpan classify_span("serve.classify");
    WallTimer stage_timer;
    const bool inference_up = inference_breaker_.allow(Clock::now());
    ml::Matrix x;
    std::vector<std::size_t> rows;  // slot index per matrix row
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.live || s.csr_fallback) continue;
      if (!inference_up) {
        if (batch[i].req.mode == RequestMode::kPredict) {
          s.live = false;
          s.rsp.error =
              "unavailable: inference breaker open (predict has no "
              "degradation floor)";
          continue;
        }
        s.csr_fallback = true;
        s.rsp.degraded = true;
        s.rsp.degrade_reason = "breaker:inference";
        continue;
      }
      x.push_back(s.features.select(bundle->selector->feature_set()));
      rows.push_back(i);
    }
    if (!x.empty()) {
      WallTimer classify_timer;
      const std::vector<int> labels =
          bundle->selector->classifier().predict_batch(x);
      const double per_item_ms =
          classify_timer.millis() / static_cast<double>(rows.size());
      const auto candidates = bundle->selector->candidates();
      for (std::size_t k = 0; k < rows.size(); ++k) {
        Slot& s = slots[rows[k]];
        // Chaos site inference: per-request faults over the batched
        // result. An error or a corrupted label degrades to CSR rather
        // than ever serving an invalid selection.
        const chaos::Fault fault = stage_fault(
            chaos::Site::kInference, request_identity(batch[rows[k]].req));
        if (fault) chaos::apply_latency(fault);
        const bool injected = fault.kind == chaos::FaultKind::kError ||
                              fault.kind == chaos::FaultKind::kCorrupt;
        const int label = injected ? -1 : labels[k];
        if (label < 0 || label >= static_cast<int>(candidates.size())) {
          inference_breaker_.record(false, per_item_ms, Clock::now());
          if (!injected) {
            s.live = false;
            s.rsp.error =
                "model-format: classifier produced out-of-range label";
            continue;
          }
          if (batch[rows[k]].req.mode == RequestMode::kPredict) {
            s.live = false;
            s.rsp.error = "model-format: injected inference fault";
            continue;
          }
          s.csr_fallback = true;
          s.rsp.degraded = true;
          s.rsp.degrade_reason = "chaos:inference";
          continue;
        }
        inference_breaker_.record(true, per_item_ms, Clock::now());
        s.rsp.predicted = candidates[static_cast<std::size_t>(label)];
        s.rsp.format = s.rsp.predicted;
        if (tracing && batch[rows[k]].req.trace_sampled)
          obs::trace_instant("req.infer", s.rsp.id);
      }
    }
    stage_classify_ms = stage_timer.millis();
  }

  // --- Stage 3: feasibility + indirect/predict regressor pass. ---
  if (bundle != nullptr) {
    WallTimer stage_timer;
    // Deadline triage first: an indirect request whose remaining budget
    // cannot fit the (EWMA-estimated) regressor pass degrades to the
    // direct prediction computed above. An open regress breaker does
    // the same for the whole batch (first rung of the ladder).
    const bool regress_up = regress_breaker_.allow(Clock::now());
    const double est_ms = indirect_item_cost_ms_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.live || s.csr_fallback) continue;
      const RequestMode mode = batch[i].req.mode;
      if (mode == RequestMode::kSelect) continue;
      if (bundle->perf == nullptr) {
        if (mode == RequestMode::kPredict) {
          s.live = false;
          s.rsp.error = "model-format: no perf model installed (predict "
                        "needs --perf-model)";
          continue;
        }
        s.rsp.degraded = true;  // indirect without regressors: direct pick
        s.rsp.degrade_reason = "no_perf_model";
        continue;
      }
      if (!regress_up) {
        if (mode == RequestMode::kPredict) {
          s.live = false;
          s.rsp.error =
              "unavailable: regress breaker open (predict has no "
              "degradation floor)";
          continue;
        }
        s.rsp.degraded = true;
        s.rsp.degrade_reason = "breaker:regress";
        continue;
      }
      if (mode != RequestMode::kIndirect) {
        s.indirect = true;  // predict: always runs the regressors
        continue;
      }
      const double deadline = batch[i].req.deadline_ms;
      if (deadline > 0.0) {
        const double elapsed = ms_between(batch[i].enqueued, Clock::now());
        const double remaining = deadline - elapsed;
        if (remaining <= 0.0 || remaining < est_ms) {
          s.rsp.degraded = true;
          s.rsp.degrade_reason = "deadline";
          continue;
        }
      }
      s.indirect = true;
    }

    std::vector<std::size_t> regress_rows;
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (slots[i].live && slots[i].indirect) regress_rows.push_back(i);
    if (!regress_rows.empty()) {
      obs::TraceSpan regress_span("serve.regress");
      regress_span.arg("items", static_cast<std::uint64_t>(regress_rows.size()));
      WallTimer regress_timer;
      const auto formats = bundle->perf->formats();
      for (const std::size_t i : regress_rows) {
        Slot& s = slots[i];
        s.rsp.predicted_us.reserve(formats.size());
        for (const Format f : formats)
          s.rsp.predicted_us.emplace_back(
              f, bundle->perf->predict_seconds(s.features, f) * 1e6);
      }
      const double per_item_ms =
          regress_timer.millis() / static_cast<double>(regress_rows.size());
      for (std::size_t k = 0; k < regress_rows.size(); ++k)
        regress_breaker_.record(true, per_item_ms, Clock::now());
      double prev = indirect_item_cost_ms_.load(std::memory_order_relaxed);
      const double next = prev <= 0.0 ? per_item_ms
                                      : 0.8 * prev + 0.2 * per_item_ms;
      indirect_item_cost_ms_.store(next, std::memory_order_relaxed);
    }
    stage_regress_ms = stage_timer.millis();
  }

  // --- Stage 4: per-request finalization (feasibility + argmin). ---
  // Replies are delivered in a separate pass below, after the admission
  // cost EWMA is updated: a caller woken by its response must observe a
  // backlog estimate that already accounts for this batch.
  std::vector<char> counted(batch.size(), 0);  // select_feasible() bumps
                                               // serve.select itself
  WallTimer finalize_timer;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& s = slots[i];
    Pending& item = batch[i];
    if (s.live || s.csr_fallback) {
      s.rsp.ok = true;
      if (s.csr_fallback) {
        // Bottom rung: CSR is the universal floor — valid for every
        // matrix, needs no model and no features.
        s.rsp.format = Format::kCsr;
        s.rsp.predicted = Format::kCsr;
        s.rsp.fallback = false;
      }
      const double budget_gb = item.req.mem_budget_gb > 0.0
                                   ? item.req.mem_budget_gb
                                   : cfg_.mem_budget_gb;
      FeasibilityFn feasible;
      if (budget_gb > 0.0 && s.has_summary)
        feasible = make_memory_feasibility(
            s.summary, cfg_.precision,
            static_cast<std::int64_t>(budget_gb * 1e9));

      try {
        if (s.live && item.req.mode == RequestMode::kIndirect && s.indirect) {
          // Argmin of predicted times over feasible formats.
          const auto formats = bundle->perf->formats();
          double best = 0.0;
          bool found = false;
          Format best_unconstrained = s.rsp.predicted_us.front().first;
          double best_unconstrained_us =
              s.rsp.predicted_us.front().second;
          for (const auto& [f, us] : s.rsp.predicted_us) {
            if (us < best_unconstrained_us) {
              best_unconstrained = f;
              best_unconstrained_us = us;
            }
            if (feasible && !feasible(f)) continue;
            if (!found || us < best) {
              best = us;
              s.rsp.format = f;
              found = true;
            }
          }
          s.rsp.predicted = best_unconstrained;
          if (!found) {
            // Nothing feasible: CSR floor, mirroring select_feasible.
            SPMVML_ENSURE_CAT(
                std::find(formats.begin(), formats.end(), Format::kCsr) !=
                    formats.end(),
                ErrorCategory::kInfeasibleFormat,
                "no modeled format is feasible under the memory budget");
            s.rsp.format = Format::kCsr;
          }
          s.rsp.fallback = s.rsp.format != s.rsp.predicted;
        } else if (s.live && item.req.mode != RequestMode::kPredict) {
          // Direct classifier result (select, or degraded indirect).
          if (feasible) {
            const Selection sel =
                bundle->selector->select_feasible(s.features, feasible);
            s.rsp.predicted = sel.predicted;
            s.rsp.format = sel.format;
            s.rsp.fallback = sel.fallback;
            counted[i] = 1;
          }
        }
        if (item.req.materialize && s.view != nullptr) {
          if (!materialize_breaker_.allow(Clock::now())) {
            // Conversion stage down: the selection is still served, the
            // caller just builds the format itself.
            s.rsp.degraded = true;
            if (s.rsp.degrade_reason.empty())
              s.rsp.degrade_reason = "breaker:materialize";
          } else {
            // Chaos site materialize: a conversion fault keeps the
            // response valid with materialized=false.
            const chaos::Fault fault = stage_fault(
                chaos::Site::kMaterialize, request_identity(item.req));
            if (fault) chaos::apply_latency(fault);
            if (fault.kind == chaos::FaultKind::kError ||
                fault.kind == chaos::FaultKind::kCorrupt) {
              materialize_breaker_.record(false, 0.0, Clock::now());
              s.rsp.degraded = true;
              if (s.rsp.degrade_reason.empty())
                s.rsp.degrade_reason = "chaos:materialize";
            } else {
              // One conversion arena per worker thread: a stream of
              // requests reuses its buffers, so the steady-state
              // conversion performs no heap allocation. The borrowed
              // view is read-only; the arena copies what it needs.
              thread_local ConversionArena<double> arena;
              WallTimer materialize_timer;
              WallTimer convert_timer;
              const AnyMatrix<double>& built =
                  arena.convert(s.rsp.format, *s.view);
              s.rsp.convert_ms = convert_timer.millis();
              s.rsp.format_bytes = built.bytes();
              s.rsp.materialized = true;
              materialize_breaker_.record(true, s.rsp.convert_ms,
                                          Clock::now());
              registry_metrics
                  .counter(std::string("serve.materialize.") +
                           format_name(s.rsp.format))
                  .inc();

              // Prediction scorecard: this is the one place the service
              // holds both the model's opinion and a real, just-built
              // format — run one SpMV on it and ledger predicted vs
              // measured. The x/y vectors are thread_local like the
              // arena, so steady state allocates nothing.
              thread_local std::vector<double> spmv_x, spmv_y;
              spmv_x.assign(static_cast<std::size_t>(s.view->cols()), 1.0);
              spmv_y.assign(static_cast<std::size_t>(s.view->rows()), 0.0);
              WallTimer spmv_timer;
              built.spmv(spmv_x, spmv_y);
              // Clamp: a sub-resolution measurement must not produce an
              // infinite GFLOPS figure.
              const double spmv_s = std::max(spmv_timer.seconds(), 1e-9);
              s.rsp.spmv_ms = spmv_s * 1e3;
              const double flops = 2.0 * static_cast<double>(s.view->nnz());
              s.rsp.measured_gflops = flops / spmv_s / 1e9;

              ScorecardEntry entry;
              entry.features_hash = features_fingerprint(s.features.values);
              entry.features = s.features.values;
              entry.chosen = s.rsp.format;
              entry.predicted_best = s.rsp.format;
              entry.measured_gflops = s.rsp.measured_gflops;
              entry.model_version = s.rsp.model_version;
              // Per-format predicted times: reuse the regressor pass when
              // stage 3 ran it, otherwise price the formats here (the
              // conversion+SpMV just done dwarfs this pass).
              std::vector<std::pair<Format, double>> predicted_us =
                  s.rsp.predicted_us;
              if (predicted_us.empty() && bundle->perf != nullptr)
                for (const Format f : bundle->perf->formats())
                  predicted_us.emplace_back(
                      f,
                      bundle->perf->predict_seconds(s.features, f) * 1e6);
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
                  if (best_us > 0.0)
                    entry.regret = chosen_us / best_us - 1.0;
                }
              }
              scorecard_.record(entry);

              // Shadow probe (learning mode only): convert and time ONE
              // extra format so the replay buffer accumulates per-format
              // measured truth — the labels the retraining loop needs.
              // The probe entry rides the scorecard ring flagged
              // probe=true (excluded from the traffic aggregates) and
              // never touches the served response.
              if (trainer_ != nullptr) {
                const auto probe_formats =
                    bundle->perf != nullptr
                        ? bundle->perf->formats()
                        : bundle->selector->candidates();
                if (probe_formats.size() > 1) {
                  // Mix the matrix fingerprint into the rotation: a bare
                  // counter resonates with cyclic traffic (N matrices
                  // polled round-robin with N divisible by the format
                  // count probes the SAME format for a given matrix
                  // forever), leaving whole formats unmeasured on a
                  // regime. Hashing decorrelates the probe choice from
                  // the arrival pattern while staying deterministic for
                  // a fixed request order.
                  const std::uint64_t pseq = hash_combine(
                      entry.features_hash,
                      probe_seq_.fetch_add(1, std::memory_order_relaxed));
                  Format probe_fmt =
                      probe_formats[pseq % probe_formats.size()];
                  if (probe_fmt == s.rsp.format)
                    probe_fmt =
                        probe_formats[(pseq + 1) % probe_formats.size()];
                  if (probe_fmt != s.rsp.format &&
                      (!feasible || feasible(probe_fmt))) {
                    try {
                      WallTimer probe_total;
                      const AnyMatrix<double>& probe_built =
                          arena.convert(probe_fmt, *s.view);
                      spmv_x.assign(
                          static_cast<std::size_t>(s.view->cols()), 1.0);
                      spmv_y.assign(
                          static_cast<std::size_t>(s.view->rows()), 0.0);
                      WallTimer probe_timer;
                      probe_built.spmv(spmv_x, spmv_y);
                      const double probe_s =
                          std::max(probe_timer.seconds(), 1e-9);
                      ScorecardEntry probe = entry;
                      probe.probe = true;
                      probe.chosen = probe_fmt;
                      probe.measured_gflops = flops / probe_s / 1e9;
                      probe.predicted_gflops = 0.0;
                      probe.regret = 0.0;
                      for (const auto& [f, us] : predicted_us)
                        if (f == probe_fmt && us > 0.0)
                          probe.predicted_gflops =
                              flops / (us * 1e-6) / 1e9;
                      scorecard_.record(probe);
                      if (tracing && item.req.trace_sampled)
                        obs::trace_complete("req.probe",
                                            probe_total.millis() * 1e3,
                                            s.rsp.id);
                    } catch (const Error&) {
                      // A probe that cannot convert is just a missing
                      // measurement; the response is already complete.
                      obs::MetricsRegistry::global()
                          .counter("serve.probe.failed")
                          .inc();
                    }
                  }
                }
              }
              if (tracing && item.req.trace_sampled)
                obs::trace_complete("req.materialize",
                                    materialize_timer.millis() * 1e3,
                                    s.rsp.id);
            }
          }
        }
      } catch (const Error& e) {
        s.rsp.ok = false;
        s.rsp.error = std::string(error_category_name(e.category())) + ": " +
                      e.what();
      }
    }
  }
  stage_finalize_ms = finalize_timer.millis();

  // Admission shedding feeds on the measured per-item batch cost. Updated
  // before delivery: once a caller sees its response, the next submit()
  // must price the queue with this batch's cost already folded in. The
  // smoothing is asymmetric: cost drops (caches warming up after a cold
  // start) are tracked fast so the shed gate reopens quickly, cost rises
  // slowly so one anomalous batch does not trigger a shed storm.
  const double per_item_ms =
      ms_between(picked_up, Clock::now()) / static_cast<double>(batch.size());
  const double prev = batch_item_cost_ms_.load(std::memory_order_relaxed);
  double next = per_item_ms;
  if (prev > 0.0) {
    const double alpha = per_item_ms < prev ? 0.5 : 0.2;
    next = (1.0 - alpha) * prev + alpha * per_item_ms;
  }
  batch_item_cost_ms_.store(next, std::memory_order_relaxed);
  backlog_.fetch_sub(batch.size(), std::memory_order_relaxed);

  // --- Stage 5: reply + per-response accounting. ---
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& s = slots[i];
    Pending& item = batch[i];
    s.rsp.latency_ms = ms_between(item.enqueued, Clock::now());
    s.rsp.has_stage_ms = true;  // to_json only renders it on ok responses
    s.rsp.stage_features_ms = stage_features_ms;
    s.rsp.stage_classify_ms = stage_classify_ms;
    s.rsp.stage_regress_ms = stage_regress_ms;
    s.rsp.stage_finalize_ms = stage_finalize_ms;
    if (tracing && item.req.trace_sampled)
      obs::trace_complete("req.done", s.rsp.latency_ms * 1e3, s.rsp.id);
    if (!item.slot->claim()) continue;  // watchdog got there first
    // Account before invoking the callback: the moment finish() runs,
    // the caller may wake and read counters(), which must already
    // include this request.
    if (s.rsp.ok && !counted[i] && item.req.mode != RequestMode::kPredict)
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
    item.slot->finish(s.rsp);
  }

  if (inflight_id != 0) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(inflight_id);
  }
}

}  // namespace spmvml::serve
