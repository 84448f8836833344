// Label collection tests: streaming collection, CSV round trip, cache
// reuse and invalidation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "core/label_collector.hpp"

namespace spmvml {
namespace {

CorpusPlan tiny_plan() { return make_small_plan(6, 77); }

TEST(LabelCollector, CollectsOneRecordPerMatrix) {
  const auto corpus = collect_corpus(tiny_plan());
  EXPECT_EQ(corpus.size(), 6u);
  for (const auto& rec : corpus.records) {
    EXPECT_GT(rec.nnz, 0.0);
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (Format f : kAllFormats)
          EXPECT_GT(rec.time(a, static_cast<Precision>(p), f), 0.0);
  }
}

TEST(LabelCollector, FeaturesMatchDirectExtraction) {
  const auto plan = tiny_plan();
  const auto corpus = collect_corpus(plan);
  const auto m = generate(plan.specs[0]);
  const auto f = extract_features(m);
  for (int i = 0; i < kNumFeatures; ++i)
    EXPECT_DOUBLE_EQ(corpus.records[0].features[i], f[i]);
}

TEST(LabelCollector, ProgressCallbackFires) {
  std::size_t calls = 0, last_total = 0;
  CollectOptions opts;
  opts.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_EQ(done, calls);
    last_total = total;
  };
  collect_corpus(tiny_plan(), opts);
  EXPECT_EQ(calls, 6u);
  EXPECT_EQ(last_total, 6u);
}

TEST(LabelCollector, BestAmongPicksArgmin) {
  const auto corpus = collect_corpus(tiny_plan());
  const auto& rec = corpus.records[0];
  const int best = rec.best_among(0, Precision::kDouble, kAllFormats);
  const double best_t =
      rec.time(0, Precision::kDouble, kAllFormats[static_cast<std::size_t>(best)]);
  for (Format f : kAllFormats)
    EXPECT_LE(best_t, rec.time(0, Precision::kDouble, f));
}

TEST(LabelCollector, GflopsConsistentWithTime) {
  const auto corpus = collect_corpus(tiny_plan());
  const auto& rec = corpus.records[0];
  const double t = rec.time(1, Precision::kSingle, Format::kCsr);
  EXPECT_NEAR(rec.gflops(1, Precision::kSingle, Format::kCsr),
              2.0 * rec.nnz / t / 1e9, 1e-9);
}

TEST(LabelCollector, CsvRoundTrip) {
  const auto corpus = collect_corpus(tiny_plan());
  const auto path = testing::TempDir() + "/spmvml_corpus_test.csv";
  save_corpus_csv(path, corpus, tiny_plan().size());
  const auto loaded = load_corpus_csv(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(loaded.records[i].seed, corpus.records[i].seed);
    EXPECT_EQ(loaded.records[i].bucket, corpus.records[i].bucket);
    for (int f = 0; f < kNumFeatures; ++f)
      EXPECT_DOUBLE_EQ(loaded.records[i].features[f],
                       corpus.records[i].features[f]);
    EXPECT_DOUBLE_EQ(loaded.records[i].time(1, Precision::kDouble,
                                            Format::kCsr5),
                     corpus.records[i].time(1, Precision::kDouble,
                                            Format::kCsr5));
  }
  std::remove(path.c_str());
}

TEST(LabelCollector, LoadOrCollectUsesCache) {
  const auto path = testing::TempDir() + "/spmvml_cache_test.csv";
  std::remove(path.c_str());
  const auto plan = tiny_plan();
  const auto first = load_or_collect(path, plan);
  EXPECT_TRUE(std::filesystem::exists(path));
  const auto second = load_or_collect(path, plan);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_DOUBLE_EQ(first.records[2].time(0, Precision::kSingle, Format::kEll),
                   second.records[2].time(0, Precision::kSingle, Format::kEll));
  // A different-sized plan invalidates the cache.
  const auto bigger = load_or_collect(path, make_small_plan(8, 77));
  EXPECT_EQ(bigger.size(), 8u);
  std::remove(path.c_str());
}

TEST(LabelCollector, MemoryLimitExcludesMonsterEllImages) {
  // A power-law matrix with a huge max row makes the ELL image explode;
  // a tight limit must drop it while keeping the small matrices.
  CorpusPlan plan = tiny_plan();
  GenSpec monster;
  monster.family = MatrixFamily::kPowerLaw;
  monster.rows = 60000;
  monster.cols = 60000;
  monster.row_mu = 10;
  monster.alpha = 1.3;
  monster.seed = 314;
  plan.specs.push_back(monster);
  plan.bucket_of.push_back(3);

  CollectOptions strict;
  strict.format_memory_limit = 50000000;  // 50 MB budget
  const auto filtered = collect_corpus(plan, strict);
  CollectOptions off;
  off.format_memory_limit = 0;
  const auto unfiltered = collect_corpus(plan, off);
  EXPECT_EQ(unfiltered.size(), plan.size());
  EXPECT_LT(filtered.size(), unfiltered.size());
}

TEST(LabelCollector, CacheHeaderRoundTripsHashAndDone) {
  const auto plan = tiny_plan();
  const auto corpus = collect_corpus(plan);
  const auto path = testing::TempDir() + "/spmvml_cache_header_test.csv";
  save_corpus_csv(path, corpus, plan.size(), plan_fingerprint(plan), 4);
  std::size_t size = 0, done = 0;
  std::uint64_t hash = 0;
  load_corpus_csv(path, &size, &hash, &done);
  EXPECT_EQ(size, plan.size());
  EXPECT_EQ(hash, plan_fingerprint(plan));
  EXPECT_EQ(done, 4u);
  std::remove(path.c_str());
}

TEST(LabelCollector, LoadOrCollectInvalidatesOnPlanContentChange) {
  // Two plans with identical sizes but different seeds: a stale cache from
  // the first must not be served for the second.
  const auto path = testing::TempDir() + "/spmvml_cache_content_test.csv";
  std::remove(path.c_str());
  const auto plan_a = make_small_plan(6, 77);
  const auto plan_b = make_small_plan(6, 78);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  load_or_collect(path, plan_a);
  const auto from_b = load_or_collect(path, plan_b);
  ASSERT_EQ(from_b.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_b.size(); ++i)
    EXPECT_EQ(from_b.records[i].seed, plan_b.specs[i].seed);
  // And the rewritten cache now serves plan_b from disk.
  const auto again = load_or_collect(path, plan_b);
  EXPECT_EQ(again.stats.attempted, 0u);
  std::remove(path.c_str());
}

TEST(LabelCollector, LoadOrCollectResumesPartialCache) {
  // A partial checkpoint left at the cache path is picked up and finished
  // instead of being recollected from scratch.
  const auto path = testing::TempDir() + "/spmvml_cache_partial_test.csv";
  std::remove(path.c_str());
  const auto plan = make_small_plan(10, 55);
  const auto full = collect_corpus(plan);

  LabeledCorpus partial;
  partial.records.assign(full.records.begin(), full.records.begin() + 7);
  save_corpus_csv(path, partial, plan.size(), plan_fingerprint(plan), 7);

  const auto resumed = load_or_collect(path, plan);
  EXPECT_EQ(resumed.stats.resumed_records, 7u);
  EXPECT_EQ(resumed.stats.attempted, plan.size() - 7);
  ASSERT_EQ(resumed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i)
    EXPECT_DOUBLE_EQ(resumed.records[i].time(0, Precision::kDouble,
                                             Format::kCsr),
                     full.records[i].time(0, Precision::kDouble, Format::kCsr));
  std::remove(path.c_str());
}

TEST(LabelCollector, DeterministicAcrossRuns) {
  const auto a = collect_corpus(tiny_plan());
  const auto b = collect_corpus(tiny_plan());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.records[i].time(0, Precision::kDouble, Format::kHyb),
                     b.records[i].time(0, Precision::kDouble, Format::kHyb));
}

TEST(LabelCollector, RetryBudgetSurvivesHugeMaxRetries) {
  // A huge re-roll budget must neither crash nor change results (the
  // fault model resolves transients well before 40 attempts).
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.3;
  opts.max_retries = 1000;
  const auto corpus = collect_corpus(tiny_plan(), opts);
  EXPECT_EQ(corpus.size(), 6u);
  EXPECT_EQ(corpus.stats.transient_cells, 0u);  // all transients resolved
}

/// Collection options with enough fault traffic to exercise transient
/// re-rolls at every thread count.
CollectOptions faulty_options() {
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.2;
  return opts;
}

std::string collect_to_csv(const CorpusPlan& plan, CollectOptions opts,
                           int threads, const std::string& path) {
  opts.threads = threads;
  const auto corpus = collect_corpus(plan, opts);
  save_corpus_csv(path, corpus, plan.size(), plan_fingerprint(plan),
                  plan.size());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ParallelCollector, ByteIdenticalAcrossThreadCounts) {
  const auto plan = make_small_plan(16, 321);
  const auto path = testing::TempDir() + "/spmvml_parallel_det.csv";
  const std::string serial = collect_to_csv(plan, faulty_options(), 1, path);
  const std::string two = collect_to_csv(plan, faulty_options(), 2, path);
  const std::string eight = collect_to_csv(plan, faulty_options(), 8, path);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  std::remove(path.c_str());
}

TEST(ParallelCollector, StatsMatchSerialRun) {
  const auto plan = make_small_plan(12, 99);
  CollectOptions serial = faulty_options();
  serial.threads = 1;
  CollectOptions parallel = faulty_options();
  parallel.threads = 4;
  const auto a = collect_corpus(plan, serial);
  const auto b = collect_corpus(plan, parallel);
  EXPECT_EQ(a.stats.attempted, b.stats.attempted);
  EXPECT_EQ(a.stats.kept, b.stats.kept);
  EXPECT_EQ(a.stats.failed_cells, b.stats.failed_cells);
  EXPECT_EQ(a.stats.transient_cells, b.stats.transient_cells);
  EXPECT_EQ(a.stats.transient_retries, b.stats.transient_retries);
}

TEST(ParallelCollector, ProgressIsMonotonicAndComplete) {
  const auto plan = make_small_plan(10, 5);
  CollectOptions opts = faulty_options();
  opts.threads = 4;
  std::size_t calls = 0, last = 0;
  opts.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_GT(done, last);
    last = done;
    EXPECT_EQ(total, 10u);
  };
  collect_corpus(plan, opts);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(last, 10u);
}

TEST(ParallelCollector, ProgressCallbackIsSerialized) {
  // The CollectOptions::progress contract: with threads > 1 the callback
  // runs on worker threads but is never invoked concurrently. The
  // in-flight flag would trip if two workers ever overlapped; the sleep
  // widens any such window far beyond scheduler noise.
  const auto plan = make_small_plan(12, 21);
  CollectOptions opts = faulty_options();
  opts.threads = 8;
  std::atomic<bool> in_flight{false};
  std::atomic<bool> overlapped{false};
  std::size_t calls = 0;
  opts.progress = [&](std::size_t, std::size_t) {
    if (in_flight.exchange(true)) overlapped = true;
    ++calls;  // plain increment on purpose: serialization makes it safe
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_flight = false;
  };
  collect_corpus(plan, opts);
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(calls, 12u);
}

TEST(ParallelCollector, ThrowingProgressCancelsWithoutFurtherCalls) {
  // A throwing callback cancels the run: the exception propagates out of
  // collect_corpus and no later (higher-`done`) progress call arrives
  // while the pool drains.
  const auto plan = make_small_plan(12, 22);
  CollectOptions opts = faulty_options();
  opts.threads = 8;
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> calls_after_throw{0};
  opts.progress = [&](std::size_t done, std::size_t) {
    if (thrown.load()) ++calls_after_throw;
    if (done == 4) {
      thrown = true;
      throw std::runtime_error("simulated cancel");
    }
  };
  EXPECT_THROW(collect_corpus(plan, opts), std::runtime_error);
  EXPECT_EQ(calls_after_throw.load(), 0u);
}

TEST(ParallelCollector, ResumesPartialCheckpointIdentically) {
  // A checkpoint prefix left by a previous (killed) run is picked up by
  // the parallel collector and completed to the same corpus as an
  // uninterrupted run.
  const auto path = testing::TempDir() + "/spmvml_parallel_resume.csv";
  std::remove(path.c_str());
  const auto plan = make_small_plan(12, 404);
  CollectOptions opts = faulty_options();
  opts.threads = 8;
  const auto full = collect_corpus(plan, opts);

  LabeledCorpus partial;
  partial.records.assign(full.records.begin(), full.records.begin() + 5);
  save_corpus_csv(path, partial, plan.size(), plan_fingerprint(plan), 5);
  CollectOptions resume_opts = opts;
  resume_opts.checkpoint_path = path;
  const auto resumed = collect_corpus(plan, resume_opts);
  EXPECT_EQ(resumed.stats.resumed_records, 5u);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    for (Format f : kAllFormats)
      EXPECT_DOUBLE_EQ(resumed.records[i].time(1, Precision::kSingle, f),
                       full.records[i].time(1, Precision::kSingle, f));
  std::remove(path.c_str());
}

TEST(ParallelCollector, KillMidRunThenResumeMatchesUninterrupted) {
  // Emulate a mid-run kill: a progress callback that throws once enough
  // matrices finished. The collector cancels, rethrows, and leaves the
  // longest-prefix checkpoint on disk; a fresh run resumes from it and
  // must produce the same corpus as a run that was never interrupted.
  const auto path = testing::TempDir() + "/spmvml_parallel_kill.csv";
  std::remove(path.c_str());
  const auto plan = make_small_plan(14, 777);

  CollectOptions base = faulty_options();
  base.threads = 8;
  const auto uninterrupted = collect_corpus(plan, base);

  CollectOptions killed = base;
  killed.checkpoint_path = path;
  killed.checkpoint_every = 3;
  killed.progress = [](std::size_t done, std::size_t) {
    if (done >= 8) throw std::runtime_error("simulated kill");
  };
  EXPECT_THROW(collect_corpus(plan, killed), std::runtime_error);
  EXPECT_TRUE(std::filesystem::exists(path));

  CollectOptions resume = base;
  resume.checkpoint_path = path;
  const auto resumed = collect_corpus(plan, resume);
  EXPECT_GT(resumed.stats.resumed_records, 0u);
  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed.records[i].seed, uninterrupted.records[i].seed);
    for (int a = 0; a < kNumArchs; ++a)
      for (Format f : kAllFormats)
        EXPECT_DOUBLE_EQ(
            resumed.records[i].time(a, Precision::kDouble, f),
            uninterrupted.records[i].time(a, Precision::kDouble, f));
  }
  std::remove(path.c_str());
}

TEST(ParallelCollector, ThreadsZeroReadsEnvironment) {
  // threads == 0 defers to SPMVML_THREADS (default 1); either way the
  // corpus matches the explicit one-worker run.
  const auto plan = make_small_plan(6, 11);
  CollectOptions auto_opts = faulty_options();
  auto_opts.threads = 0;
  CollectOptions serial = faulty_options();
  serial.threads = 1;
  const auto a = collect_corpus(plan, auto_opts);
  const auto b = collect_corpus(plan, serial);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.records[i].time(0, Precision::kSingle, Format::kCoo),
                     b.records[i].time(0, Precision::kSingle, Format::kCoo));
}

}  // namespace
}  // namespace spmvml
