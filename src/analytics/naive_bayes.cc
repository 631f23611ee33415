#include "analytics/naive_bayes.h"

#include <cmath>
#include <limits>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"

namespace idaa::analytics {

Result<GaussianNbModel> GaussianNbModel::Fit(
    const std::vector<std::vector<double>>& features,
    const std::vector<Value>& labels, ThreadPool* pool) {
  if (features.size() != labels.size() || features.empty()) {
    return Status::InvalidArgument("NB: empty or mismatched inputs");
  }
  const size_t dims = features[0].size();
  const size_t n = features.size();
  GaussianNbModel model;

  // Pass 1: per-chunk class counts and mean sums (std::map keeps classes in
  // sorted order, so the ascending-chunk merge is deterministic).
  struct MeanPartial {
    size_t count = 0;
    std::vector<double> sum;
  };
  std::vector<std::map<Value, MeanPartial>> mean_partials(NumChunks(n));
  ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
    auto& part = mean_partials[chunk];
    for (size_t r = begin; r < end; ++r) {
      MeanPartial& cls = part[labels[r]];
      if (cls.sum.empty()) cls.sum.assign(dims, 0.0);
      ++cls.count;
      for (size_t d = 0; d < dims; ++d) cls.sum[d] += features[r][d];
    }
  });
  std::map<Value, size_t> counts;
  for (const auto& part : mean_partials) {
    for (const auto& [label, cls] : part) {
      ClassStats& stats = model.classes_[label];
      if (stats.mean.empty()) {
        stats.mean.assign(dims, 0.0);
        stats.variance.assign(dims, 0.0);
      }
      counts[label] += cls.count;
      for (size_t d = 0; d < dims; ++d) stats.mean[d] += cls.sum[d];
    }
  }
  for (auto& [label, stats] : model.classes_) {
    double cls_n = static_cast<double>(counts[label]);
    for (size_t d = 0; d < dims; ++d) stats.mean[d] /= cls_n;
    stats.prior = cls_n / static_cast<double>(n);
    model.priors_[label] = stats.prior;
  }

  // Pass 2: per-chunk variance sums against the final means.
  std::vector<std::map<Value, std::vector<double>>> var_partials(
      NumChunks(n));
  ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
    auto& part = var_partials[chunk];
    for (size_t r = begin; r < end; ++r) {
      const ClassStats& stats = model.classes_.at(labels[r]);
      std::vector<double>& acc = part[labels[r]];
      if (acc.empty()) acc.assign(dims, 0.0);
      for (size_t d = 0; d < dims; ++d) {
        double diff = features[r][d] - stats.mean[d];
        acc[d] += diff * diff;
      }
    }
  });
  for (const auto& part : var_partials) {
    for (const auto& [label, acc] : part) {
      ClassStats& stats = model.classes_[label];
      for (size_t d = 0; d < dims; ++d) stats.variance[d] += acc[d];
    }
  }
  for (auto& [label, stats] : model.classes_) {
    double cls_n = static_cast<double>(counts[label]);
    for (size_t d = 0; d < dims; ++d) {
      stats.variance[d] = stats.variance[d] / cls_n + 1e-9;  // smoothed
    }
  }
  return model;
}

const Value& GaussianNbModel::Predict(
    const std::vector<double>& features) const {
  double best_score = -std::numeric_limits<double>::max();
  const Value* best_label = &classes_.begin()->first;
  for (const auto& [label, stats] : classes_) {
    double score = std::log(stats.prior);
    for (size_t d = 0; d < features.size(); ++d) {
      double var = stats.variance[d];
      double diff = features[d] - stats.mean[d];
      score += -0.5 * std::log(2.0 * M_PI * var) - diff * diff / (2.0 * var);
    }
    if (score > best_score) {
      best_score = score;
      best_label = &label;
    }
  }
  return *best_label;
}

namespace {

class NaiveBayesOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "NAIVEBAYES"; }
  std::string description() const override {
    return "Gaussian naive Bayes classifier";
  }

  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(std::string label_name, GetParam(params, "label"));
    IDAA_ASSIGN_OR_RETURN(std::string columns_list,
                          GetParam(params, "columns"));

    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));
    IDAA_ASSIGN_OR_RETURN(std::vector<size_t> feature_cols,
                          ResolveColumns(in_schema, columns_list));
    IDAA_ASSIGN_OR_RETURN(size_t label_col, in_schema.ColumnIndex(label_name));

    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    IDAA_ASSIGN_OR_RETURN(
        AnalyticsInput::LabeledFeatures extracted,
        in->ExtractLabeledFeatures(feature_cols, label_col, ctx.trace()));
    std::vector<std::vector<double>> features = std::move(extracted.features);
    std::vector<Value> labels = std::move(extracted.labels);

    GaussianNbModel model;
    {
      TraceSpan fit(ctx.trace(), "analytics.naivebayes.fit");
      fit.Attr("rows", static_cast<uint64_t>(features.size()));
      fit.Attr("partial_merges",
               static_cast<uint64_t>(NumChunks(features.size())));
      IDAA_ASSIGN_OR_RETURN(model,
                            GaussianNbModel::Fit(features, labels, in->pool()));
    }

    // Training-set predictions; each row is independent, so the chunked
    // scoring result does not depend on the thread count.
    std::vector<Value> predictions(features.size());
    {
      TraceSpan score(ctx.trace(), "analytics.naivebayes.score");
      ParallelChunks(in->pool(), features.size(),
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t r = begin; r < end; ++r) {
                         predictions[r] = model.Predict(features[r]);
                       }
                     });
    }
    in.reset();  // release the scan pin before materializing output AOTs
    size_t correct = 0;
    for (size_t r = 0; r < features.size(); ++r) {
      if (predictions[r] == labels[r]) ++correct;
    }
    double accuracy = features.empty()
                          ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(features.size());

    std::string output = GetParamOr(params, "output", "");
    if (!output.empty()) {
      std::vector<ColumnDef> out_cols;
      for (size_t c : feature_cols) {
        ColumnDef def = in_schema.Column(c);
        def.type = DataType::kDouble;
        out_cols.push_back(def);
      }
      out_cols.push_back({"ACTUAL", DataType::kVarchar, false});
      out_cols.push_back({"PREDICTED", DataType::kVarchar, false});
      IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, Schema(out_cols)));
      std::vector<Row> out_rows;
      for (size_t r = 0; r < features.size(); ++r) {
        Row row;
        for (double d : features[r]) row.push_back(Value::Double(d));
        row.push_back(Value::Varchar(labels[r].ToExactString()));
        row.push_back(Value::Varchar(predictions[r].ToExactString()));
        out_rows.push_back(std::move(row));
      }
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(output, out_rows));
    }

    ResultSet summary{Schema({{"METRIC", DataType::kVarchar, false},
                              {"VALUE", DataType::kDouble, false}})};
    summary.Append({Value::Varchar("TRAIN_ACCURACY"), Value::Double(accuracy)});
    summary.Append({Value::Varchar("ROWS"),
                    Value::Double(static_cast<double>(features.size()))});
    for (const auto& [label, prior] : model.priors()) {
      summary.Append({Value::Varchar("PRIOR_" + label.ToExactString()),
                      Value::Double(prior)});
    }
    return summary;
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeNaiveBayesOperator() {
  return std::make_unique<NaiveBayesOperator>();
}

}  // namespace idaa::analytics
