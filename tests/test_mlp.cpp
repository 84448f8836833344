// MLP tests: classification/regression convergence, target standardisation,
// ensemble averaging, seed determinism, vector-tier bitwise equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "sparse/simd.hpp"

namespace spmvml::ml {
namespace {

MlpParams small_net() {
  MlpParams p;
  p.hidden = {16, 8};
  p.epochs = 60;
  return p;
}

TEST(Mlp, ClassifiesBlobs) {
  Matrix x;
  std::vector<int> y;
  Rng rng(1);
  const double cx[3] = {0.0, 4.0, 2.0};
  const double cy[3] = {0.0, 0.0, 3.5};
  for (int i = 0; i < 450; ++i) {
    const int k = i % 3;
    x.push_back({cx[k] + rng.normal(0.0, 0.6), cy[k] + rng.normal(0.0, 0.6)});
    y.push_back(k);
  }
  MlpClassifier mlp(small_net());
  mlp.fit(x, y);
  EXPECT_GT(accuracy(y, mlp.predict_batch(x)), 0.93);
}

TEST(Mlp, SolvesXor) {
  Matrix x;
  std::vector<int> y;
  Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  auto p = small_net();
  p.epochs = 150;
  MlpClassifier mlp(p);
  mlp.fit(x, y);
  EXPECT_GT(accuracy(y, mlp.predict_batch(x)), 0.9);
}

TEST(Mlp, ProbabilitiesSumToOne) {
  Matrix x = {{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<int> y = {0, 0, 1, 1};
  auto p = small_net();
  p.epochs = 20;
  MlpClassifier mlp(p);
  mlp.fit(x, y);
  const auto probs = mlp.predict_proba({1.5});
  double sum = 0.0;
  for (double v : probs) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, DeterministicForSeed) {
  Matrix x;
  std::vector<int> y;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(i % 2);
  }
  auto p = small_net();
  p.epochs = 10;
  MlpClassifier a(p), b(p);
  a.fit(x, y);
  b.fit(x, y);
  for (const auto& row : x) {
    const auto pa = a.predict_proba(row), pb = b.predict_proba(row);
    for (std::size_t k = 0; k < pa.size(); ++k)
      EXPECT_DOUBLE_EQ(pa[k], pb[k]);
  }
}

template <typename Model>
std::string saved_bytes(const Model& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

TEST(Mlp, VectorTierFitsAndPredictsBitwiseLikeScalar) {
  // The GEMM and Adam kernels keep every output's operation order, so a
  // fit with the vector tier on must give the scalar fit's exact weights
  // and predictions — the paper's 96/48/16 net over 17 features, with a
  // ragged last mini-batch and inputs with exact zeros.
  Matrix x;
  std::vector<int> y;
  std::vector<double> target;
  Rng rng(17);
  for (int i = 0; i < 203; ++i) {
    std::vector<double> row(17);
    for (double& v : row) v = rng.normal(0.0, 2.0);
    row[i % 17] = 0.0;
    y.push_back((row[0] > 0.0) + 2 * (row[1] > 0.5));
    target.push_back(3.0 * row[2] - row[3] * row[4]);
    x.push_back(std::move(row));
  }
  MlpParams p;
  p.epochs = 4;
  const bool saved = simd::enabled();
  std::string clf_bytes[2], reg_bytes[2];
  std::vector<double> preds[2];
  for (const bool vector_tier : {false, true}) {
    simd::set_enabled(vector_tier);  // no-op when the build is scalar-only
    MlpClassifier clf(p);
    clf.fit(x, y);
    MlpRegressor reg(p);
    reg.fit(x, target);
    clf_bytes[vector_tier] = saved_bytes(clf);
    reg_bytes[vector_tier] = saved_bytes(reg);
    for (const auto& row : x) {
      for (const double v : clf.predict_proba(row))
        preds[vector_tier].push_back(v);
      preds[vector_tier].push_back(reg.predict(row));
    }
  }
  simd::set_enabled(saved);
  EXPECT_EQ(clf_bytes[0], clf_bytes[1]);
  EXPECT_EQ(reg_bytes[0], reg_bytes[1]);
  ASSERT_EQ(preds[0].size(), preds[1].size());
  EXPECT_EQ(std::memcmp(preds[0].data(), preds[1].data(),
                        preds[0].size() * sizeof(double)),
            0);
}

TEST(MlpRegressor, FitsLinearMap) {
  Matrix x;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1.0, 1.0), b = rng.uniform(-1.0, 1.0);
    x.push_back({a, b});
    y.push_back(2.0 * a - b + 0.5);
  }
  auto p = small_net();
  p.epochs = 120;
  MlpRegressor mlp(p);
  mlp.fit(x, y);
  double max_err = 0.0;
  for (std::size_t i = 0; i < 50; ++i)
    max_err = std::max(max_err, std::abs(mlp.predict(x[i]) - y[i]));
  EXPECT_LT(max_err, 0.25);
}

TEST(MlpRegressor, HandlesLargeTargetScaleViaStandardisation) {
  // Targets around 1e6: without internal y-standardisation the net could
  // not move its output there in a few dozen Adam steps.
  Matrix x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back({v});
    y.push_back(1e6 + 1e5 * v);
  }
  auto p = small_net();
  p.epochs = 100;
  MlpRegressor mlp(p);
  mlp.fit(x, y);
  EXPECT_NEAR(mlp.predict({0.5}), 1.05e6, 2e4);
}

TEST(MlpEnsembleClassifier, AtLeastAsGoodAsTypicalMember) {
  Matrix x;
  std::vector<int> y;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const int k = i % 2;
    x.push_back({(k == 0 ? -1.0 : 1.0) + rng.normal(0.0, 0.9)});
    y.push_back(k);
  }
  auto p = small_net();
  p.epochs = 30;
  MlpEnsembleClassifier ens(p, 5);
  ens.fit(x, y);
  MlpClassifier single(p);
  single.fit(x, y);
  EXPECT_GE(accuracy(y, ens.predict_batch(x)) + 0.03, accuracy(y, single.predict_batch(x)));
}

TEST(MlpEnsembleRegressor, AveragesMembers) {
  Matrix x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back({v});
    y.push_back(std::sin(6.0 * v));
  }
  auto p = small_net();
  p.epochs = 60;
  MlpEnsembleRegressor ens(p, 3);
  ens.fit(x, y);
  double sse_ens = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = ens.predict(x[i]) - y[i];
    sse_ens += e * e;
  }
  EXPECT_LT(std::sqrt(sse_ens / static_cast<double>(x.size())), 0.3);
}

TEST(MlpEnsemble, RejectsZeroMembers) {
  EXPECT_THROW(MlpEnsembleRegressor(MlpParams{}, 0), Error);
}

TEST(Mlp, RejectsEmptyTrainingData) {
  MlpClassifier mlp;
  EXPECT_THROW(mlp.fit({}, {}), Error);
}

}  // namespace
}  // namespace spmvml::ml
