// Chaos-hardened serving tests (DESIGN.md §5h): deterministic fault
// replay through the Service, the degradation ladder (chaos faults and
// open breakers both land on the static CSR floor; a materialize fault
// serves the selection unmaterialized), deadline-feasibility shedding,
// the batch watchdog, crash-safe registry swaps with a journaled
// rollback, SIGTERM drain, and the non-perturbation proof (chaos
// compiled in but disabled changes no output byte).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/error.hpp"
#include "core/format_selector.hpp"
#include "core/label_collector.hpp"
#include "core/perf_model.hpp"
#include "serve/drain.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "sparse/mmio.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml {
namespace {

using serve::ModelRegistry;
using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::Service;
using serve::ServiceConfig;

const LabeledCorpus& shared_corpus() {
  static const LabeledCorpus corpus = collect_corpus(make_small_plan(40, 654));
  return corpus;
}

std::shared_ptr<const FormatSelector> tree_selector() {
  static const auto selector = [] {
    auto s = std::make_shared<FormatSelector>(
        ModelKind::kDecisionTree, FeatureSet::kSet12, kAllFormats,
        /*fast=*/true);
    s->fit(shared_corpus(), 0, Precision::kDouble);
    return std::shared_ptr<const FormatSelector>(s);
  }();
  return selector;
}

std::shared_ptr<const PerfModel> tree_perf() {
  static const auto perf = [] {
    auto p = std::make_shared<PerfModel>(RegressorKind::kDecisionTree,
                                         FeatureSet::kSet12, kAllFormats,
                                         /*fast=*/true);
    p->fit(shared_corpus(), 0, Precision::kDouble);
    return std::shared_ptr<const PerfModel>(p);
  }();
  return perf;
}

/// A temp Matrix Market file that removes itself.
struct TempMatrixFile {
  std::string path;
  explicit TempMatrixFile(const std::string& name, int seed) : path(name) {
    write_matrix_market(path, generate(make_small_plan(1, seed).specs[0]));
  }
  ~TempMatrixFile() { std::remove(path.c_str()); }
};

Request file_request(const std::string& id, RequestMode mode,
                     const std::string& path) {
  Request req;
  req.id = id;
  req.mode = mode;
  req.matrix_path = path;
  return req;
}

std::shared_ptr<chaos::Engine> engine_from(const std::string& text) {
  return std::make_shared<chaos::Engine>(chaos::Scenario::parse_string(text));
}

ServiceConfig quick_config() {
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.1;
  cfg.cache_capacity = 0;  // every request walks the extract stage
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool valid_format(const Response& r) {
  const int f = static_cast<int>(r.format);
  return f >= 0 && f < kNumFormats;
}

// --- Deterministic replay ------------------------------------------------

TEST(ChaosServe, SameSeedSameResponses) {
  TempMatrixFile m("robustness_replay.tmp.mtx", 11);
  const std::string scenario =
      "seed 7\n"
      "rule site=feature_extract kind=error rate=0.4\n"
      "rule site=inference kind=corrupt rate=0.25\n";
  constexpr RequestMode kModes[] = {RequestMode::kSelect,
                                    RequestMode::kIndirect};

  const auto run = [&] {
    chaos::ScopedGlobalEngine scoped(engine_from(scenario));
    ModelRegistry registry;
    registry.install(tree_selector(), tree_perf());
    Service service(quick_config(), registry);
    std::vector<std::string> fingerprints;
    for (int k = 0; k < 12; ++k) {
      const Response r = service.call(file_request(
          "r" + std::to_string(k), kModes[k % 2], m.path));
      std::ostringstream fp;
      fp << r.ok << '|' << r.error << '|' << static_cast<int>(r.format) << '|'
         << r.degraded << '|' << r.degrade_reason;
      fingerprints.push_back(fp.str());
    }
    return fingerprints;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// --- Degradation ladder --------------------------------------------------

TEST(ChaosServe, FeatureExhaustionDegradesSelectToCsrFailsPredict) {
  TempMatrixFile m("robustness_feat.tmp.mtx", 12);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 1\nrule site=feature_extract kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;  // keep the breaker out of this test
  Service service(cfg, registry);

  const Response sel =
      service.call(file_request("s1", RequestMode::kSelect, m.path));
  ASSERT_TRUE(sel.ok) << sel.error;
  EXPECT_TRUE(sel.degraded);
  EXPECT_EQ(sel.degrade_reason, "chaos:feature_extract");
  EXPECT_EQ(sel.format, Format::kCsr);  // ladder floor: always valid

  // Predict has no degradation floor: no features means no answer.
  const Response prd =
      service.call(file_request("p1", RequestMode::kPredict, m.path));
  EXPECT_FALSE(prd.ok);
  EXPECT_FALSE(prd.error.empty());
}

TEST(ChaosServe, InferenceCorruptionDegradesToCsr) {
  TempMatrixFile m("robustness_inf.tmp.mtx", 13);
  chaos::ScopedGlobalEngine scoped(
      engine_from("seed 2\nrule site=inference kind=corrupt rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("c1", RequestMode::kSelect, m.path));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.degrade_reason, "chaos:inference");
  EXPECT_EQ(r.format, Format::kCsr);
  EXPECT_TRUE(valid_format(r));
}

TEST(ChaosServe, PersistentFaultsTripBreakerThenLadderShortCircuits) {
  TempMatrixFile m("robustness_brk.tmp.mtx", 14);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 3\nrule site=feature_extract kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;  // sequential batches: deterministic breaker feed
  cfg.breaker.window = 4;
  cfg.breaker.open_cooldown_ms = 60000.0;  // stays open for the test
  Service service(cfg, registry);

  std::vector<Response> responses;
  for (int k = 0; k < 10; ++k)
    responses.push_back(
        service.call(file_request("b" + std::to_string(k),
                                  RequestMode::kSelect, m.path)));
  // Every answer stays servable and valid...
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.format, Format::kCsr);
  }
  // ...but once the breaker opens the stage is no longer *tried*: the
  // tail degrades via the breaker rung.
  EXPECT_GE(service.counters().breaker_trips, 1u);
  const Response& last = responses.back();
  EXPECT_EQ(last.degrade_reason, "breaker:features");
}

TEST(ChaosServe, InferenceErrorDegradesToCsr) {
  TempMatrixFile m("robustness_inf_err.tmp.mtx", 15);
  chaos::ScopedGlobalEngine scoped(
      engine_from("seed 4\nrule site=inference kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("e1", RequestMode::kSelect, m.path));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.degrade_reason, "chaos:inference");
  EXPECT_EQ(r.format, Format::kCsr);
  EXPECT_TRUE(valid_format(r));
}

TEST(ChaosServe, MaterializeErrorServesSelectionUnmaterialized) {
  TempMatrixFile m("robustness_mat_err.tmp.mtx", 21);
  chaos::ScopedGlobalEngine scoped(
      engine_from("seed 6\nrule site=materialize kind=error rate=1\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  Request req = file_request("x1", RequestMode::kSelect, m.path);
  req.materialize = true;
  const Response r = service.call(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.degrade_reason, "chaos:materialize");
  EXPECT_FALSE(r.materialized);
  EXPECT_TRUE(valid_format(r));
}

TEST(ChaosServe, FirstDrawDecidesEachRequestsFeatureFault) {
  // Half the requests draw a feature fault. Each one is decided by its
  // single draw: a faulted request takes the ladder, an unfaulted one is
  // served exactly as without chaos, and re-sending the same id replays
  // the same outcome.
  TempMatrixFile m("robustness_half.tmp.mtx", 22);
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;

  Format clean_format;
  {
    Service clean(cfg, registry);
    const Response r =
        clean.call(file_request("clean", RequestMode::kSelect, m.path));
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.degraded);
    clean_format = r.format;
  }

  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 7\nrule site=feature_extract kind=error rate=0.5\n"));
  Service service(cfg, registry);
  int degraded = 0;
  for (int k = 0; k < 24; ++k) {
    const std::string id = "h" + std::to_string(k);
    const Response r =
        service.call(file_request(id, RequestMode::kSelect, m.path));
    ASSERT_TRUE(r.ok) << r.error;
    if (r.degraded) {
      ++degraded;
      EXPECT_EQ(r.degrade_reason, "chaos:feature_extract");
      EXPECT_EQ(r.format, Format::kCsr);
    } else {
      EXPECT_EQ(r.format, clean_format);
    }
    const Response again =
        service.call(file_request(id, RequestMode::kSelect, m.path));
    EXPECT_EQ(again.degraded, r.degraded) << id;
    EXPECT_EQ(again.format, r.format) << id;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, 24);
}

TEST(ChaosServe, StageErrorsNeverCountRetries) {
  // Counters::retries is kept for its readers but serving never retries:
  // error faults at every stage leave it at zero.
  TempMatrixFile m("robustness_noretry.tmp.mtx", 23);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 8\n"
      "rule site=feature_extract kind=error rate=0.3\n"
      "rule site=inference kind=error rate=0.3\n"
      "rule site=materialize kind=error rate=0.3\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.breaker.window = 1000;
  Service service(cfg, registry);

  for (int k = 0; k < 16; ++k) {
    Request req = file_request("n" + std::to_string(k),
                               k % 2 ? RequestMode::kIndirect
                                     : RequestMode::kSelect,
                               m.path);
    req.materialize = true;
    const Response r = service.call(req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(valid_format(r));
  }
  const auto counters = service.counters();
  EXPECT_GT(counters.degraded, 0u);
  EXPECT_EQ(counters.retries, 0u);
}

// --- Admission shedding --------------------------------------------------

TEST(ChaosServe, OverloadShedsAtAdmissionWithReasonCode) {
  TempMatrixFile m("robustness_shed.tmp.mtx", 16);
  // 20 ms injected per extraction makes the per-item cost EWMA honest
  // about an overload the moment the first batch lands.
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 5\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=20\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.max_batch = 1;
  cfg.admission_target_ms = 0.5;
  Service service(cfg, registry);

  // Warm the cost EWMA with one served request.
  const Response warm =
      service.call(file_request("w", RequestMode::kSelect, m.path));
  ASSERT_TRUE(warm.ok) << warm.error;

  std::vector<std::future<Response>> futures;
  for (int k = 0; k < 8; ++k)
    futures.push_back(service.submit(
        file_request("o" + std::to_string(k), RequestMode::kSelect, m.path)));
  int shed = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (!r.ok && r.shed == "shed:overload") {
      EXPECT_EQ(r.error.rfind("rejected", 0), 0u) << r.error;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.counters().shed, static_cast<std::uint64_t>(shed));
}

TEST(ChaosServe, InfeasibleDeadlineIsShedNotQueued) {
  TempMatrixFile m("robustness_dl.tmp.mtx", 17);
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 6\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=20\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.max_batch = 1;
  // No admission target: only the request's own deadline can shed it.
  cfg.admission_target_ms = 0.0;
  Service service(cfg, registry);

  const Response warm =
      service.call(file_request("w", RequestMode::kSelect, m.path));
  ASSERT_TRUE(warm.ok) << warm.error;

  // Park work on the single worker, then offer an impossible deadline.
  auto parked =
      service.submit(file_request("park", RequestMode::kSelect, m.path));
  Request doomed = file_request("dl", RequestMode::kSelect, m.path);
  doomed.deadline_ms = 0.001;
  const Response r = service.call(doomed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.shed, "shed:deadline");
  EXPECT_EQ(r.error.rfind("rejected", 0), 0u) << r.error;
  EXPECT_TRUE(parked.get().ok);
}

// --- Watchdog ------------------------------------------------------------

TEST(ChaosWatchdog, StuckBatchIsFailedCleanlyOnce) {
  TempMatrixFile m("robustness_wd.tmp.mtx", 18);
  // One injected 400 ms stall versus a 50 ms watchdog budget.
  chaos::ScopedGlobalEngine scoped(engine_from(
      "seed 8\n"
      "rule site=feature_extract kind=latency rate=1 latency_ms=400\n"));
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.threads = 1;
  cfg.watchdog_ms = 50.0;
  Service service(cfg, registry);

  const Response r =
      service.call(file_request("wd", RequestMode::kSelect, m.path));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  EXPECT_EQ(service.counters().watchdog_killed, 1u);
  // The stuck worker finishing later must not double-deliver: shutdown
  // (via the destructor) waits it out; counters must stay consistent.
  service.shutdown();
  EXPECT_EQ(service.counters().watchdog_killed, 1u);
}

TEST(ChaosWatchdog, HealthyBatchesAreNeverKilled) {
  TempMatrixFile m("robustness_wd_ok.tmp.mtx", 19);
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  cfg.watchdog_ms = 2000.0;
  Service service(cfg, registry);
  for (int k = 0; k < 8; ++k) {
    const Response r = service.call(
        file_request("h" + std::to_string(k), RequestMode::kSelect, m.path));
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(service.counters().watchdog_killed, 0u);
}

// --- Crash-safe model swaps ----------------------------------------------

TEST(ChaosRegistry, MidSwapFaultRollsBackAndJournals) {
  ModelRegistry registry;
  const std::uint64_t v1 = registry.install(tree_selector(), tree_perf());
  EXPECT_EQ(v1, 1u);

  {
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 9\nrule site=registry_swap kind=error rate=1\n"));
    try {
      registry.install(tree_selector(), tree_perf());
      FAIL() << "mid-swap fault did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kIo);
    }
  }
  // Previous bundle stayed live; no version was burned on the failure.
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);

  // Chaos lifted: the next swap publishes the next version with no gap.
  const std::uint64_t v2 = registry.install(tree_selector(), tree_perf());
  EXPECT_EQ(v2, 2u);

  const auto history = registry.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].action, "install");
  EXPECT_EQ(history[0].version, 1u);
  EXPECT_EQ(history[1].action, "rollback");
  EXPECT_EQ(history[1].version, 0u);
  EXPECT_NE(history[1].detail.find("injected"), std::string::npos);
  EXPECT_EQ(history[2].action, "install");
  EXPECT_EQ(history[2].version, 2u);
}

TEST(ChaosRegistry, ServiceKeepsServingAcrossRolledBackSwap) {
  TempMatrixFile m("robustness_swap.tmp.mtx", 20);
  ModelRegistry registry;
  registry.install(tree_selector(), tree_perf());
  ServiceConfig cfg = quick_config();
  Service service(cfg, registry);

  {
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 10\nrule site=registry_swap kind=error rate=1\n"));
    EXPECT_THROW(registry.install(tree_selector(), tree_perf()), Error);
    // The registry is never without a valid bundle: requests racing the
    // failed swap are served by the surviving version.
    const Response r =
        service.call(file_request("sw", RequestMode::kSelect, m.path));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.model_version, 1u);
  }
}

// --- Graceful drain ------------------------------------------------------

TEST(DrainHandler, SigtermSetsTheFlagExactlyLikeRequestDrain) {
  serve::install_drain_handler();
  serve::reset_drain_for_test();
  EXPECT_FALSE(serve::drain_requested());

  std::raise(SIGTERM);  // handled: one relaxed flag store, no teardown
  EXPECT_TRUE(serve::drain_requested());

  serve::reset_drain_for_test();
  EXPECT_FALSE(serve::drain_requested());
  serve::request_drain();
  EXPECT_TRUE(serve::drain_requested());
  serve::reset_drain_for_test();
}

// --- Non-perturbation proof ----------------------------------------------

TEST(ChaosServe, InstalledButSilentChaosChangesNoOutputByte) {
  const auto plan = make_small_plan(6, 77);
  const std::string path = testing::TempDir() + "/robustness_csv.tmp.csv";

  const auto reference = collect_corpus(plan);
  save_corpus_csv(path, reference, plan.size());
  const std::string reference_csv = slurp(path);

  {
    // Chaos engine installed with every serving site armed at rate 0:
    // the instrumentation is live on the hot path yet must inject
    // nothing and perturb nothing.
    chaos::ScopedGlobalEngine scoped(engine_from(
        "seed 123\n"
        "rule site=request_parse kind=error rate=0\n"
        "rule site=cache_lookup kind=latency rate=0 latency_ms=1\n"
        "rule site=feature_extract kind=error rate=0\n"
        "rule site=materialize kind=corrupt rate=0\n"
        "rule site=inference kind=error rate=0\n"
        "rule site=registry_swap kind=error rate=0\n"
        "rule site=oracle_measure kind=error rate=0\n"));
    const auto observed = collect_corpus(plan);
    save_corpus_csv(path, observed, plan.size());
  }
  const std::string observed_csv = slurp(path);
  EXPECT_EQ(reference_csv, observed_csv);
  EXPECT_FALSE(reference_csv.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spmvml
