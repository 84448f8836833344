// Fault-injection and fault-tolerance tests: deterministic fault model,
// per-cell failure recording with retries, checkpoint/resume, partial-label
// training, feasibility-aware serving, and corrupt model streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "core/format_selector.hpp"
#include "core/indirect.hpp"
#include "core/label_collector.hpp"
#include "core/perf_model.hpp"
#include "gpusim/fault.hpp"
#include "ml/metrics.hpp"

namespace spmvml {
namespace {

/// Power-law spec with a hub row: the ELL image explodes (rows * row_max)
/// while CSR stays proportional to nnz.
GenSpec ell_hostile_spec() {
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = 40000;
  spec.cols = 40000;
  spec.row_mu = 8;
  spec.alpha = 1.2;
  spec.seed = 2024;
  return spec;
}

TEST(FaultModel, DisabledIsInfallible) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  MeasurementOracle oracle(tesla_k40c(), Precision::kDouble);
  for (Format f : kAllFormats)
    EXPECT_TRUE(oracle.measure(s, f, 1).ok());
}

TEST(FaultModel, StructuralOomOnEllBlowUp) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.device_memory_override = 50'000'000;  // 50 MB device
  MeasurementOracle oracle(tesla_k40c(), Precision::kDouble, config);

  const auto ell = oracle.measure(s, Format::kEll, 1);
  EXPECT_EQ(ell.status, MeasurementStatus::kOom);
  EXPECT_TRUE(std::isnan(ell.seconds));
  const auto csr = oracle.measure(s, Format::kCsr, 1);
  EXPECT_TRUE(csr.ok());
  EXPECT_GT(csr.seconds, 0.0);
}

TEST(FaultModel, OomIsNotRetryable) {
  EXPECT_FALSE(is_retryable(MeasurementStatus::kOom));
  EXPECT_FALSE(is_retryable(MeasurementStatus::kTimeout));
  EXPECT_TRUE(is_retryable(MeasurementStatus::kTransient));
}

TEST(FaultModel, WatchdogTimeout) {
  const auto m = generate(make_small_plan(1, 5).specs[0]);
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.timeout_seconds = 1e-12;  // everything exceeds this
  MeasurementOracle oracle(tesla_p100(), Precision::kSingle, config);
  const auto r = oracle.measure(s, Format::kCsr, 1);
  EXPECT_EQ(r.status, MeasurementStatus::kTimeout);
}

TEST(FaultModel, TransientIsDeterministicPerAttemptAndRetryable) {
  const auto m = generate(make_small_plan(1, 5).specs[0]);
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.transient_rate = 0.5;
  MeasurementOracle a(tesla_k40c(), Precision::kDouble, config);
  MeasurementOracle b(tesla_k40c(), Precision::kDouble, config);

  bool saw_ok = false, saw_transient = false;
  double ok_seconds = 0.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto ra = a.measure(s, Format::kCsr, 7, attempt);
    const auto rb = b.measure(s, Format::kCsr, 7, attempt);
    EXPECT_EQ(ra.status, rb.status);  // pure function of identity+attempt
    if (ra.ok()) {
      // Timing is attempt-invariant: a retried success must report the
      // same mean as a first-try success.
      if (saw_ok) EXPECT_DOUBLE_EQ(ra.seconds, ok_seconds);
      ok_seconds = ra.seconds;
      saw_ok = true;
    } else {
      EXPECT_EQ(ra.status, MeasurementStatus::kTransient);
      saw_transient = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_transient);
}

TEST(FaultModel, DeviceBytesRankFormatsSanely) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  const double ell = format_device_bytes(s, Format::kEll, Precision::kDouble);
  const double csr = format_device_bytes(s, Format::kCsr, Precision::kDouble);
  const double coo = format_device_bytes(s, Format::kCoo, Precision::kDouble);
  EXPECT_GT(ell, 10.0 * csr);  // padding blow-up dominates
  EXPECT_GT(coo, 0.0);
  // Double precision images are strictly larger than single.
  EXPECT_GT(csr, format_device_bytes(s, Format::kCsr, Precision::kSingle));
}

// ---------------------------------------------------------------------------
// Collection: per-cell failures, retries, no wholesale drops.

TEST(FaultyCollection, RecordsPerCellFailuresWithoutDroppingMatrices) {
  const auto plan = make_small_plan(24, 4242);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.3;  // ~15% of matrices keep >=1 failed cell
  const auto corpus = collect_corpus(plan, opts);

  // Zero wholesale drops: every matrix had at least one surviving cell.
  EXPECT_EQ(corpus.size(), plan.size());
  EXPECT_EQ(corpus.stats.dropped_all_failed, 0u);
  EXPECT_EQ(corpus.stats.dropped_prefilter, 0u);
  EXPECT_GT(corpus.stats.failed_cells, 0u);
  EXPECT_GT(corpus.stats.transient_retries, corpus.stats.failed_cells);

  std::size_t matrices_with_failures = 0;
  for (const auto& rec : corpus.records)
    if (!rec.fully_valid()) ++matrices_with_failures;
  EXPECT_GT(matrices_with_failures, 0u);
  EXPECT_LT(matrices_with_failures, corpus.size());  // not everything failed
}

TEST(FaultyCollection, MonsterEllMatrixKeptWithInvalidEllCells) {
  CorpusPlan plan = make_small_plan(3, 77);
  plan.specs.push_back(ell_hostile_spec());
  plan.bucket_of.push_back(3);

  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.device_memory_override = 50'000'000;  // 50 MB device
  const auto corpus = collect_corpus(plan, opts);

  // §IV-C as a policy: the monster is kept, only its ELL cells fail.
  ASSERT_EQ(corpus.size(), plan.size());
  EXPECT_GT(corpus.stats.oom_cells, 0u);
  const auto& monster = corpus.records.back();
  for (int a = 0; a < kNumArchs; ++a)
    for (int p = 0; p < kNumPrecisions; ++p) {
      EXPECT_FALSE(monster.valid(a, static_cast<Precision>(p), Format::kEll));
      EXPECT_TRUE(monster.valid(a, static_cast<Precision>(p), Format::kCsr));
    }
  // best_among never points at the invalid format.
  const int best = monster.best_among(0, Precision::kDouble, kAllFormats);
  ASSERT_GE(best, 0);
  EXPECT_NE(kAllFormats[static_cast<std::size_t>(best)], Format::kEll);
}

TEST(FaultyCollection, RetriesRecoverMostTransients) {
  const auto plan = make_small_plan(12, 99);
  CollectOptions no_retry;
  no_retry.faults.enabled = true;
  no_retry.faults.transient_rate = 0.3;
  no_retry.max_retries = 0;
  const auto without = collect_corpus(plan, no_retry);

  CollectOptions with_retry = no_retry;
  with_retry.max_retries = 4;
  const auto with = collect_corpus(plan, with_retry);

  EXPECT_GT(without.stats.failed_cells, 0u);
  EXPECT_LT(with.stats.failed_cells, without.stats.failed_cells);
}

TEST(FaultyCollection, OneReRollPerCellThatFailedItsFirstDraw) {
  // Re-rolls happen in place, one per failed draw: with a budget of 1,
  // exactly the cells that are transient on attempt 0 are re-rolled once,
  // and only they can still be invalid afterwards.
  const auto plan = make_small_plan(10, 515);
  CollectOptions first_draw;
  first_draw.faults.enabled = true;
  first_draw.faults.transient_rate = 0.3;
  first_draw.max_retries = 0;
  const auto zero = collect_corpus(plan, first_draw);
  EXPECT_EQ(zero.stats.transient_retries, 0u);
  ASSERT_GT(zero.stats.transient_cells, 0u);

  CollectOptions one_reroll = first_draw;
  one_reroll.max_retries = 1;
  const auto one = collect_corpus(plan, one_reroll);
  EXPECT_EQ(one.stats.transient_retries, zero.stats.transient_cells);
  EXPECT_LT(one.stats.transient_cells, zero.stats.transient_cells);

  ASSERT_EQ(one.size(), zero.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (Format f : kAllFormats) {
          const auto prec = static_cast<Precision>(p);
          if (zero.records[i].valid(a, prec, f)) {
            // A first-draw success is never re-rolled: same measurement.
            ASSERT_TRUE(one.records[i].valid(a, prec, f));
            EXPECT_EQ(one.records[i].time(a, prec, f),
                      zero.records[i].time(a, prec, f));
          }
        }
}

TEST(FaultyCollection, AllFailedMatricesAreDroppedAtEveryThreadCount) {
  // A 1-byte device makes every cell OOM (not retryable): no matrix has
  // a usable cell, so each is dropped and counted as such at any thread
  // count.
  const auto plan = make_small_plan(6, 808);
  for (int threads : {1, 3}) {
    CollectOptions opts;
    opts.faults.enabled = true;
    opts.faults.device_memory_override = 1;
    opts.threads = threads;
    const auto corpus = collect_corpus(plan, opts);
    EXPECT_EQ(corpus.size(), 0u) << "threads " << threads;
    EXPECT_EQ(corpus.stats.attempted, plan.size());
    EXPECT_EQ(corpus.stats.kept, 0u);
    EXPECT_EQ(corpus.stats.dropped_all_failed, plan.size());
    const std::size_t cells = plan.size() * kNumArchs * kNumPrecisions *
                              static_cast<std::size_t>(kNumFormats);
    EXPECT_EQ(corpus.stats.failed_cells, cells);
    EXPECT_EQ(corpus.stats.oom_cells, cells);
    EXPECT_EQ(corpus.stats.transient_retries, 0u);
  }
}

TEST(FaultyCollection, NanCellsRoundTripThroughCsv) {
  const auto plan = make_small_plan(8, 4242);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.35;
  opts.max_retries = 0;  // keep plenty of failed cells
  const auto corpus = collect_corpus(plan, opts);
  EXPECT_GT(corpus.stats.failed_cells, 0u);

  const auto path = testing::TempDir() + "/spmvml_nan_roundtrip.csv";
  save_corpus_csv(path, corpus, plan.size());
  const auto loaded = load_corpus_csv(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (Format f : kAllFormats) {
          const auto prec = static_cast<Precision>(p);
          ASSERT_EQ(loaded.records[i].valid(a, prec, f),
                    corpus.records[i].valid(a, prec, f));
          if (corpus.records[i].valid(a, prec, f))
            EXPECT_DOUBLE_EQ(loaded.records[i].time(a, prec, f),
                             corpus.records[i].time(a, prec, f));
        }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Training on partial labels.

TEST(PartialLabels, StudyLabelsNeverPointAtInvalidCells) {
  const auto plan = make_small_plan(20, 31);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.35;
  opts.max_retries = 0;
  const auto corpus = collect_corpus(plan, opts);

  const auto study = make_classification_study(
      corpus, 0, Precision::kDouble, kAllFormats, FeatureSet::kSet12);
  ASSERT_FALSE(study.data.labels.empty());
  for (std::size_t i = 0; i < study.data.labels.size(); ++i) {
    const auto label = static_cast<std::size_t>(study.data.labels[i]);
    EXPECT_TRUE(std::isfinite(study.times[i][label]));
  }
}

TEST(PartialLabels, RegressionStudySkipsInvalidCells) {
  const auto plan = make_small_plan(16, 31);
  CollectOptions clean;
  const auto full = collect_corpus(plan, clean);
  CollectOptions faulty;
  faulty.faults.enabled = true;
  faulty.faults.transient_rate = 0.35;
  faulty.max_retries = 0;
  const auto partial = collect_corpus(plan, faulty);
  EXPECT_GT(partial.stats.failed_cells, 0u);

  const auto study_full = make_format_regression_study(
      full, 1, Precision::kDouble, Format::kCsr, FeatureSet::kSet1);
  const auto study_partial = make_format_regression_study(
      partial, 1, Precision::kDouble, Format::kCsr, FeatureSet::kSet1);
  EXPECT_LE(study_partial.data.x.size(), study_full.data.x.size());
  for (double t : study_partial.seconds) EXPECT_TRUE(std::isfinite(t));
}

TEST(PartialLabels, SelectorAccuracyStaysCloseToFaultFree) {
  // §IV-C-like regime: ~15% of matrices carry at least one failing format.
  const auto plan = make_small_plan(150, 2018);
  CollectOptions clean;
  const auto corpus_clean = collect_corpus(plan, clean);
  CollectOptions faulty;
  faulty.faults.enabled = true;
  faulty.faults.transient_rate = 0.3;
  const auto corpus_faulty = collect_corpus(plan, faulty);

  ASSERT_EQ(corpus_faulty.size(), plan.size());  // zero wholesale drops
  std::size_t with_failures = 0;
  for (const auto& rec : corpus_faulty.records)
    if (!rec.fully_valid()) ++with_failures;
  // The injected rate should land in the §IV-C ballpark (15% of 2700).
  EXPECT_GT(with_failures, plan.size() / 20);
  EXPECT_LT(with_failures, plan.size() / 2);

  // Train one selector per corpus, evaluate both against the fault-free
  // ground truth.
  const auto truth = make_classification_study(
      corpus_clean, 0, Precision::kDouble, kAllFormats, FeatureSet::kSet12);
  auto accuracy_of = [&](const LabeledCorpus& corpus) {
    FormatSelector selector(ModelKind::kXgboost, FeatureSet::kSet12,
                            kAllFormats, /*fast=*/true);
    selector.fit(corpus, 0, Precision::kDouble);
    std::vector<int> pred;
    for (const auto& row : truth.data.x)
      pred.push_back(selector.predict_label(row));
    return ml::accuracy(truth.data.labels, pred);
  };
  const double acc_clean = accuracy_of(corpus_clean);
  const double acc_faulty = accuracy_of(corpus_faulty);
  EXPECT_NEAR(acc_faulty, acc_clean, 0.02);  // within 2 accuracy points
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

struct AbortCollection {};

TEST(Checkpoint, KilledRunResumesWithoutRemeasuring) {
  const auto plan = make_small_plan(16, 1234);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_test.csv";
  std::remove(path.c_str());

  CollectOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 4;
  opts.progress = [](std::size_t done, std::size_t) {
    if (done == 10) throw AbortCollection{};  // simulate a kill mid-run
  };
  EXPECT_THROW(collect_corpus(plan, opts), AbortCollection);
  ASSERT_TRUE(std::filesystem::exists(path));

  CollectOptions resume;
  resume.checkpoint_path = path;
  const auto resumed = collect_corpus(plan, resume);
  // The every-4 checkpoint covered 8 matrices when the kill hit at 10; the
  // killed run then wrote its longest complete prefix (all 10 matrices,
  // on the one default worker). Only the rest re-ran.
  EXPECT_EQ(resumed.stats.resumed_records, 10u);
  EXPECT_EQ(resumed.stats.attempted, plan.size() - 10);
  EXPECT_EQ(resumed.size(), plan.size());

  // Identical to an uninterrupted collection.
  const auto full = collect_corpus(plan);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed.records[i].seed, full.records[i].seed);
    EXPECT_DOUBLE_EQ(
        resumed.records[i].time(0, Precision::kDouble, Format::kHyb),
        full.records[i].time(0, Precision::kDouble, Format::kHyb));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedPlanIgnoresCheckpoint) {
  const auto plan_a = make_small_plan(8, 1);
  const auto plan_b = make_small_plan(8, 2);  // same size, different content
  const auto path = testing::TempDir() + "/spmvml_checkpoint_mismatch.csv";
  std::remove(path.c_str());

  CollectOptions opts;
  opts.checkpoint_path = path;
  collect_corpus(plan_a, opts);

  const auto corpus_b = collect_corpus(plan_b, opts);
  EXPECT_EQ(corpus_b.stats.resumed_records, 0u);
  EXPECT_EQ(corpus_b.stats.attempted, plan_b.size());
  EXPECT_EQ(corpus_b.records[0].seed, plan_b.specs[0].seed);
  std::remove(path.c_str());
}

TEST(Checkpoint, PlanFingerprintSeparatesSameSizePlans) {
  EXPECT_NE(plan_fingerprint(make_small_plan(6, 77)),
            plan_fingerprint(make_small_plan(6, 78)));
  EXPECT_EQ(plan_fingerprint(make_small_plan(6, 77)),
            plan_fingerprint(make_small_plan(6, 77)));
}

// ---------------------------------------------------------------------------
// Feasibility-aware serving.

TEST(Feasibility, MemoryPredicateRejectsEllOnSkewedMatrix) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  const auto feasible =
      make_memory_feasibility(s, Precision::kDouble, 50'000'000);
  EXPECT_FALSE(feasible(Format::kEll));
  EXPECT_TRUE(feasible(Format::kCsr));
}

TEST(Feasibility, SelectorFallsBackToFeasibleFormat) {
  // A classifier that always predicts ELL (trained on single-class data).
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kEll));
  }
  selector.fit(x, labels);

  const auto matrix = generate(ell_hostile_spec());
  const auto s = summarize(matrix);
  ASSERT_EQ(selector.select(matrix), Format::kEll);

  const std::int64_t budget = 50'000'000;
  const auto feasible = make_memory_feasibility(s, Precision::kDouble, budget);
  const Selection sel = selector.select_feasible(matrix, feasible);
  EXPECT_EQ(sel.predicted, Format::kEll);
  EXPECT_TRUE(sel.fallback);
  EXPECT_NE(sel.format, Format::kEll);
  // The contract --mem-budget relies on: the served format always fits.
  EXPECT_LE(format_device_bytes(s, sel.format, Precision::kDouble),
            static_cast<double>(budget));
}

TEST(Feasibility, NoFallbackWhenPredictionFits) {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kCsr));
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  const auto s = summarize(matrix);
  const Selection sel = selector.select_feasible(
      matrix, make_memory_feasibility(s, Precision::kDouble,
                                      tesla_k40c().mem_bytes));
  EXPECT_FALSE(sel.fallback);
  EXPECT_EQ(sel.format, sel.predicted);
}

TEST(Feasibility, CsrIsTheFloorWhenNothingFits) {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kEll));
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  const Selection sel =
      selector.select_feasible(matrix, [](Format) { return false; });
  EXPECT_TRUE(sel.fallback);
  EXPECT_EQ(sel.format, Format::kCsr);
}

TEST(Feasibility, ThrowsInfeasibleWhenCsrNotACandidate) {
  const std::array<Format, 2> candidates = {Format::kEll, Format::kHyb};
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          candidates, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(0);
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  try {
    selector.select_feasible(matrix, [](Format) { return false; });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInfeasibleFormat);
  }
}

TEST(Feasibility, IndirectSelectorPicksBestFeasibleByPredictedTime) {
  const auto corpus = collect_corpus(make_small_plan(40, 808));
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                  kAllFormats, /*fast=*/true);
  model.fit(corpus, 0, Precision::kDouble);
  IndirectSelector selector(std::move(model));

  const auto matrix = generate(ell_hostile_spec());
  const auto features = extract_features(matrix);
  const auto s = summarize(matrix);
  const std::int64_t budget = 50'000'000;
  const auto sel = selector.select_feasible(
      features, make_memory_feasibility(s, Precision::kDouble, budget));
  EXPECT_LE(format_device_bytes(s, sel.format, Precision::kDouble),
            static_cast<double>(budget));
  // Among feasible formats, nothing has a smaller predicted time.
  const auto predicted = selector.model().predict_all(features);
  const auto formats = selector.model().formats();
  for (std::size_t i = 0; i < formats.size(); ++i) {
    if (format_device_bytes(s, formats[i], Precision::kDouble) >
        static_cast<double>(budget))
      continue;
    EXPECT_GE(predicted[i] + 1e-15,
              selector.model().predict_seconds(features, sel.format));
  }
}

// ---------------------------------------------------------------------------
// Corrupt model streams: no crash, no hang, a clean spmvml::Error.

FormatSelector trained_selector() {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    x.push_back({static_cast<double>(i % 7), static_cast<double>(i % 3), 1.0,
                 2.0, 3.0});
    labels.push_back(i % 3);
  }
  selector.fit(x, labels);
  return selector;
}

PerfModel trained_perf_model() {
  const auto corpus = collect_corpus(make_small_plan(12, 66));
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kAllFormats, /*fast=*/true);
  model.fit(corpus, 0, Precision::kDouble);
  return model;
}

void expect_model_format_error(const std::string& payload, bool selector) {
  std::istringstream in(payload);
  try {
    if (selector)
      FormatSelector::load_selector(in);
    else
      PerfModel::load_model(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelFormat) << e.what();
  }
}

TEST(CorruptModels, TruncatedSelectorStreamsThrowCleanly) {
  std::ostringstream out;
  trained_selector().save(out);
  const std::string full = out.str();
  for (const double frac : {0.0, 0.1, 0.5, 0.9})
    expect_model_format_error(
        full.substr(0, static_cast<std::size_t>(frac *
                                                static_cast<double>(full.size()))),
        /*selector=*/true);
}

TEST(CorruptModels, MangledTagRejected) {
  std::ostringstream out;
  trained_selector().save(out);
  std::string payload = out.str();
  payload.replace(payload.find("format_selector"), 15, "format_sZlector");
  expect_model_format_error(payload, /*selector=*/true);
}

TEST(CorruptModels, AbsurdVectorSizeRejected) {
  // Kind + feature set are plausible; the candidate vector claims 10^12
  // entries. The absurd-size guard must fire instead of allocating.
  expect_model_format_error("format_selector\n0\n0\n1000000000000 1 2\n",
                            /*selector=*/true);
}

TEST(CorruptModels, TruncatedPerfModelStreamsThrowCleanly) {
  std::ostringstream out;
  trained_perf_model().save(out);
  const std::string full = out.str();
  for (const double frac : {0.0, 0.2, 0.6, 0.95})
    expect_model_format_error(
        full.substr(0, static_cast<std::size_t>(frac *
                                                static_cast<double>(full.size()))),
        /*selector=*/false);
}

TEST(CorruptModels, PerfModelMangledTagRejected) {
  std::ostringstream out;
  trained_perf_model().save(out);
  std::string payload = out.str();
  payload.replace(payload.find("perf_model"), 10, "pref_model");
  expect_model_format_error(payload, /*selector=*/false);
}

TEST(CorruptModels, WrongKindValueRejected) {
  std::istringstream in("format_selector\n99\n0\n6 0 1 2 3 4 5\n");
  EXPECT_THROW(FormatSelector::load_selector(in), Error);
}

}  // namespace
}  // namespace spmvml
