// Performance model + indirect classification tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/indirect.hpp"
#include "core/perf_model.hpp"
#include "ml/metrics.hpp"

namespace spmvml {
namespace {

const LabeledCorpus& shared_corpus() {
  static const LabeledCorpus corpus = collect_corpus(make_small_plan(50, 808));
  return corpus;
}

TEST(PerfModel, PredictsPositiveSeconds) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  for (const auto& rec : shared_corpus().records) {
    for (Format f : kAllFormats)
      EXPECT_GT(model.predict_seconds(rec.features, f), 0.0);
  }
}

TEST(PerfModel, InSampleRmeIsSmallForTrees) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet123,
                  kAllFormats, true);
  model.fit(shared_corpus(), 1, Precision::kDouble);
  std::vector<double> measured, predicted;
  for (const auto& rec : shared_corpus().records) {
    measured.push_back(rec.time(1, Precision::kDouble, Format::kCsr));
    predicted.push_back(model.predict_seconds(rec.features, Format::kCsr));
  }
  EXPECT_LT(ml::relative_mean_error(measured, predicted), 0.25);
}

TEST(PerfModel, PredictAllMatchesPerFormatCalls) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kSingle);
  const auto& rec = shared_corpus().records[3];
  const auto all = model.predict_all(rec.features);
  ASSERT_EQ(all.size(), kAllFormats.size());
  for (std::size_t i = 0; i < kAllFormats.size(); ++i)
    EXPECT_DOUBLE_EQ(all[i], model.predict_seconds(rec.features,
                                                   kAllFormats[i]));
}

TEST(PerfModel, UnmodeledFormatThrows) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kBasicFormats, true);
  model.fit(shared_corpus(), 0, Precision::kSingle);
  EXPECT_THROW(model.predict_seconds(shared_corpus().records[0].features,
                                     Format::kCoo),
               Error);
}

TEST(PerfModel, ParallelFitIsBitwiseSerialFit) {
  // fit() trains the per-format regressors in parallel; a one-format model
  // fits on the calling thread alone. Each format's predictions must match
  // to the last bit.
  PerfModel all(RegressorKind::kMlp, FeatureSet::kSet12, kAllFormats, true);
  all.fit(shared_corpus(), 0, Precision::kDouble);
  for (Format f : kAllFormats) {
    const Format one_format[] = {f};
    PerfModel one(RegressorKind::kMlp, FeatureSet::kSet12, one_format, true);
    one.fit(shared_corpus(), 0, Precision::kDouble);
    for (const auto& rec : shared_corpus().records)
      EXPECT_EQ(all.predict_seconds(rec.features, f),
                one.predict_seconds(rec.features, f))
          << format_name(f);
  }
}

TEST(PerfModel, FitSamplesRethrowsPerFormatFailure) {
  // The per-format bodies run as parallel_for tasks; a failing one must
  // surface as the Error on the calling thread.
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kBasicFormats, true);
  std::vector<ml::Matrix> x(kBasicFormats.size(), ml::Matrix{{1.0}, {2.0}});
  std::vector<std::vector<double>> y(kBasicFormats.size(), {1.0, 2.0});
  x.back().clear();
  EXPECT_THROW(model.fit_samples(x, y), Error);
}

TEST(JointPerfModel, PredictsPerFormatDifferences) {
  JointPerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                       kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  const auto& rec = shared_corpus().records[1];
  // Predictions must at least vary across formats for a skewed matrix.
  double lo = 1e300, hi = 0.0;
  for (Format f : kAllFormats) {
    const double t = model.predict_seconds(rec.features, f);
    EXPECT_GT(t, 0.0);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_GT(hi / lo, 1.0);
}

TEST(IndirectSelector, SelectsModeledFormat) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet123,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  IndirectSelector sel(std::move(model));
  const Format f = sel.select(shared_corpus().records[0].features);
  EXPECT_NE(std::find(kAllFormats.begin(), kAllFormats.end(), f),
            kAllFormats.end());
}

TEST(ToleranceAccuracy, ExactAndTolerantScoring) {
  // Sample 0: chose best (10 vs 12). Sample 1: chose 10.4 vs best 10.
  const std::vector<std::vector<double>> times = {{10.0, 12.0},
                                                  {10.4, 10.0}};
  const std::vector<int> chosen = {0, 0};
  EXPECT_DOUBLE_EQ(tolerance_accuracy(chosen, times, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(tolerance_accuracy(chosen, times, 0.05), 1.0);
}

TEST(ToleranceAccuracy, RejectsBadChoice) {
  EXPECT_THROW(tolerance_accuracy({5}, {{1.0, 2.0}}, 0.0), Error);
}

TEST(SelectionSlowdowns, RatiosAgainstBest) {
  const std::vector<std::vector<double>> times = {{10.0, 20.0},
                                                  {30.0, 10.0}};
  const auto s = selection_slowdowns({1, 1}, times);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
}

}  // namespace
}  // namespace spmvml
