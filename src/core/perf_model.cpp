#include "core/perf_model.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "ml/serialize.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/mlp.hpp"

namespace spmvml {

const char* regressor_name(RegressorKind kind) {
  switch (kind) {
    case RegressorKind::kMlp: return "MLP regressor";
    case RegressorKind::kMlpEnsemble: return "MLP Ensemble Regressor";
    case RegressorKind::kXgboost: return "XGBST regressor";
    case RegressorKind::kDecisionTree: return "decs. tree regressor";
  }
  SPMVML_ENSURE(false, "unreachable: invalid RegressorKind");
  return "";
}

ml::RegressorPtr make_regressor(RegressorKind kind, bool fast) {
  switch (kind) {
    case RegressorKind::kMlp: {
      ml::MlpParams p;
      p.epochs = fast ? 15 : 60;
      return std::make_unique<ml::MlpRegressor>(p);
    }
    case RegressorKind::kMlpEnsemble: {
      ml::MlpParams p;
      p.epochs = fast ? 15 : 50;
      return std::make_unique<ml::MlpEnsembleRegressor>(p, fast ? 3 : 5);
    }
    case RegressorKind::kXgboost: {
      ml::GbtParams p;
      p.n_estimators = fast ? 40 : 200;
      p.max_depth = 6;
      return std::make_unique<ml::GbtRegressor>(p);
    }
    case RegressorKind::kDecisionTree: {
      ml::TreeParams p;
      p.max_depth = 16;
      p.min_samples_leaf = 2;
      return std::make_unique<ml::DecisionTreeRegressor>(p);
    }
  }
  SPMVML_ENSURE(false, "unreachable: invalid RegressorKind");
  return nullptr;
}

PerfModel::PerfModel(RegressorKind kind, FeatureSet feature_set,
                     std::span<const Format> formats, bool fast)
    : kind_(kind),
      feature_set_(feature_set),
      formats_(formats.begin(), formats.end()),
      fast_(fast) {
  SPMVML_ENSURE(!formats_.empty(), "need formats");
}

void PerfModel::fit(const LabeledCorpus& corpus, int arch, Precision prec) {
  std::vector<ml::Matrix> x;
  std::vector<std::vector<double>> y;
  for (Format f : formats_) {
    auto study =
        make_format_regression_study(corpus, arch, prec, f, feature_set_);
    x.push_back(std::move(study.data.x));
    y.push_back(std::move(study.data.targets));
  }
  fit_samples(x, y);
}

void PerfModel::fit_samples(
    const std::vector<ml::Matrix>& x_per_format,
    const std::vector<std::vector<double>>& y_per_format) {
  SPMVML_ENSURE(x_per_format.size() == formats_.size() &&
                    y_per_format.size() == formats_.size(),
                "fit_samples: one sample set per modeled format");
  // The per-format regressors are independent and seeded by their own
  // parameters, so fitting them in parallel is bitwise a serial fit.
  std::vector<ml::RegressorPtr> models(formats_.size());
  parallel_for(static_cast<std::int64_t>(formats_.size()), 2,
               [&](std::int64_t i) {
                 const auto k = static_cast<std::size_t>(i);
                 SPMVML_ENSURE(!x_per_format[k].empty() &&
                                   x_per_format[k].size() ==
                                       y_per_format[k].size(),
                               std::string("fit_samples: need samples for ") +
                                   format_name(formats_[k]));
                 models[k] = make_regressor(kind_, fast_);
                 models[k]->fit(x_per_format[k], y_per_format[k]);
               });
  models_ = std::move(models);
}

double PerfModel::predict_seconds(const FeatureVector& features,
                                  Format format) const {
  const auto it = std::find(formats_.begin(), formats_.end(), format);
  SPMVML_ENSURE(it != formats_.end(), "format not modeled");
  const auto idx = static_cast<std::size_t>(it - formats_.begin());
  SPMVML_ENSURE(idx < models_.size(), "model not fitted");
  const double target = models_[idx]->predict(features.select(feature_set_));
  return regression_target_to_seconds(target);
}

std::vector<double> PerfModel::predict_all(
    const FeatureVector& features) const {
  std::vector<double> out;
  out.reserve(formats_.size());
  for (Format f : formats_) out.push_back(predict_seconds(features, f));
  return out;
}

void PerfModel::save(std::ostream& out) const {
  SPMVML_ENSURE(models_.size() == formats_.size(), "model not fitted");
  std::ostringstream payload;
  ml::io::write_tag(payload, "perf_model");
  ml::io::write_scalar(payload, static_cast<int>(kind_));
  ml::io::write_scalar(payload, static_cast<int>(feature_set_));
  std::vector<int> fmts;
  for (Format f : formats_) fmts.push_back(static_cast<int>(f));
  ml::io::write_vector(payload, fmts);
  for (const auto& model : models_) model->save(payload);
  ml::io::write_envelope(out, "perf_model", formats_.size(), payload.str());
}

PerfModel PerfModel::load_model(std::istream& raw) {
  std::size_t entries = 0;
  std::istringstream in(ml::io::read_envelope(raw, "perf_model", &entries));
  ml::io::read_tag(in, "perf_model");
  const int kind = ml::io::read_scalar<int>(in);
  SPMVML_ENSURE_CAT(
      kind >= 0 && kind <= static_cast<int>(RegressorKind::kDecisionTree),
      ErrorCategory::kModelFormat, "bad regressor kind");
  const int set = ml::io::read_scalar<int>(in);
  SPMVML_ENSURE_CAT(set >= 0 && set < kNumFeatureSets,
                    ErrorCategory::kModelFormat, "bad feature set");
  const auto fmts = ml::io::read_vector<int>(in);
  std::vector<Format> formats;
  for (int f : fmts) {
    SPMVML_ENSURE_CAT(f >= 0 && f < kNumFormats, ErrorCategory::kModelFormat,
                      "bad format");
    formats.push_back(static_cast<Format>(f));
  }
  SPMVML_ENSURE_CAT(formats.size() == entries, ErrorCategory::kModelFormat,
                    "header/payload format count mismatch");
  PerfModel model(static_cast<RegressorKind>(kind),
                  static_cast<FeatureSet>(set), formats);
  for (std::size_t i = 0; i < formats.size(); ++i) {
    model.models_.push_back(make_regressor(model.kind_, false));
    model.models_.back()->load(in);
  }
  return model;
}

JointPerfModel::JointPerfModel(RegressorKind kind, FeatureSet feature_set,
                               std::span<const Format> formats, bool fast)
    : kind_(kind),
      feature_set_(feature_set),
      formats_(formats.begin(), formats.end()),
      model_(make_regressor(kind, fast)) {
  SPMVML_ENSURE(!formats_.empty(), "need formats");
}

void JointPerfModel::fit(const LabeledCorpus& corpus, int arch,
                         Precision prec) {
  const auto study = make_joint_regression_study(corpus, arch, prec, formats_,
                                                 feature_set_);
  model_->fit(study.data.x, study.data.targets);
}

double JointPerfModel::predict_seconds(const FeatureVector& features,
                                       Format format) const {
  const auto it = std::find(formats_.begin(), formats_.end(), format);
  SPMVML_ENSURE(it != formats_.end(), "format not modeled");
  std::vector<double> x = features.select(feature_set_);
  for (std::size_t k = 0; k < formats_.size(); ++k)
    x.push_back(formats_[k] == format ? 1.0 : 0.0);
  return regression_target_to_seconds(model_->predict(x));
}

}  // namespace spmvml
