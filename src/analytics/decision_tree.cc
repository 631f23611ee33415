#include "analytics/decision_tree.h"

#include <algorithm>
#include <map>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"

namespace idaa::analytics {

namespace {

/// Gini impurity of a label multiset.
double Gini(const std::map<Value, size_t>& counts, size_t total) {
  if (total == 0) return 0.0;
  double g = 1.0;
  for (const auto& [label, count] : counts) {
    double p = static_cast<double>(count) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

Value MajorityLabel(const std::vector<Value>& labels,
                          const std::vector<size_t>& indices) {
  std::map<Value, size_t> counts;
  for (size_t i : indices) ++counts[labels[i]];
  Value best;
  size_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best = label;
    }
  }
  return best;
}

}  // namespace

int DecisionTreeModel::Build(const std::vector<std::vector<double>>& features,
                             const std::vector<Value>& labels,
                             const std::vector<size_t>& indices, size_t depth,
                             size_t max_depth, size_t min_samples) {
  Node node;
  node.depth = depth;
  node.label = MajorityLabel(labels, indices);

  // Stop conditions.
  std::map<Value, size_t> counts;
  for (size_t i : indices) ++counts[labels[i]];
  bool pure = counts.size() <= 1;
  if (pure || depth >= max_depth || indices.size() < min_samples) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  // Best split: exhaustive over features, thresholds at midpoints of sorted
  // unique values. Each feature's search is independent, so with a pool the
  // features are scanned in parallel; the ascending-feature reduction below
  // keeps the serial loop's first-best tie-breaking, so the chosen split is
  // exactly the serial one regardless of thread count.
  double parent_gini = Gini(counts, indices.size());
  double best_gain = 1e-9;
  size_t best_feature = 0;
  double best_threshold = 0;
  const size_t dims = features[indices[0]].size();

  struct FeatureBest {
    double gain = 1e-9;
    double threshold = 0;
  };
  std::vector<FeatureBest> feature_best(dims);
  auto search_feature = [&](size_t f) {
    FeatureBest& fb = feature_best[f];
    std::vector<double> values;
    values.reserve(indices.size());
    for (size_t i : indices) values.push_back(features[i][f]);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (size_t v = 0; v + 1 < values.size(); ++v) {
      double threshold = (values[v] + values[v + 1]) / 2.0;
      std::map<Value, size_t> left_counts, right_counts;
      size_t nl = 0, nr = 0;
      for (size_t i : indices) {
        if (features[i][f] <= threshold) {
          ++left_counts[labels[i]];
          ++nl;
        } else {
          ++right_counts[labels[i]];
          ++nr;
        }
      }
      if (nl == 0 || nr == 0) continue;
      double weighted =
          (static_cast<double>(nl) * Gini(left_counts, nl) +
           static_cast<double>(nr) * Gini(right_counts, nr)) /
          static_cast<double>(indices.size());
      double gain = parent_gini - weighted;
      if (gain > fb.gain) {
        fb.gain = gain;
        fb.threshold = threshold;
      }
    }
  };
  if (pool_ != nullptr && dims > 1 && indices.size() >= 256) {
    pool_->ParallelForDynamic(dims, std::min(pool_->num_threads(), dims),
                              [&](size_t, size_t f) { search_feature(f); });
  } else {
    for (size_t f = 0; f < dims; ++f) search_feature(f);
  }
  for (size_t f = 0; f < dims; ++f) {
    if (feature_best[f].gain > best_gain) {
      best_gain = feature_best[f].gain;
      best_feature = f;
      best_threshold = feature_best[f].threshold;
    }
  }

  if (best_gain <= 1e-9) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  std::vector<size_t> left_idx, right_idx;
  for (size_t i : indices) {
    if (features[i][best_feature] <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }

  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  // Reserve this node's slot before recursing (children indexes follow).
  nodes_.push_back(node);
  int my_index = static_cast<int>(nodes_.size() - 1);
  int left = Build(features, labels, left_idx, depth + 1, max_depth,
                   min_samples);
  int right = Build(features, labels, right_idx, depth + 1, max_depth,
                    min_samples);
  nodes_[my_index].left = left;
  nodes_[my_index].right = right;
  return my_index;
}

Result<DecisionTreeModel> DecisionTreeModel::Fit(
    const std::vector<std::vector<double>>& features,
    const std::vector<Value>& labels, size_t max_depth,
    size_t min_samples, ThreadPool* pool) {
  if (features.size() != labels.size() || features.empty()) {
    return Status::InvalidArgument("tree: empty or mismatched inputs");
  }
  DecisionTreeModel model;
  model.pool_ = pool;
  std::vector<size_t> indices(features.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  model.Build(features, labels, indices, 0, max_depth, min_samples);
  model.pool_ = nullptr;
  return model;
}

const Value& DecisionTreeModel::Predict(
    const std::vector<double>& features) const {
  // Root is node 0 (Build pushes the root first).
  size_t node = 0;
  while (!nodes_[node].is_leaf) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? static_cast<size_t>(nodes_[node].left)
               : static_cast<size_t>(nodes_[node].right);
  }
  return nodes_[node].label;
}

size_t DecisionTreeModel::Depth() const {
  size_t depth = 0;
  for (const Node& node : nodes_) depth = std::max(depth, node.depth);
  return depth;
}

namespace {

class DecisionTreeOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "DECISIONTREE"; }
  std::string description() const override {
    return "CART classification tree (Gini impurity)";
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
    IDAA_ASSIGN_OR_RETURN(int64_t max_depth, GetIntParam(params, "max_depth", 5));
    IDAA_ASSIGN_OR_RETURN(int64_t min_samples,
                          GetIntParam(params, "min_samples", 4));

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

    DecisionTreeModel model;
    {
      TraceSpan fit(ctx.trace(), "analytics.decisiontree.fit");
      fit.Attr("rows", static_cast<uint64_t>(features.size()));
      IDAA_ASSIGN_OR_RETURN(
          model, DecisionTreeModel::Fit(features, labels,
                                        static_cast<size_t>(max_depth),
                                        static_cast<size_t>(min_samples),
                                        in->pool()));
      fit.Attr("nodes", static_cast<uint64_t>(model.NumNodes()));
    }

    std::vector<Value> predictions(features.size());
    {
      TraceSpan score(ctx.trace(), "analytics.decisiontree.score");
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
    summary.Append({Value::Varchar("NODES"),
                    Value::Double(static_cast<double>(model.NumNodes()))});
    summary.Append({Value::Varchar("DEPTH"),
                    Value::Double(static_cast<double>(model.Depth()))});
    summary.Append({Value::Varchar("ROWS"),
                    Value::Double(static_cast<double>(features.size()))});
    return summary;
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeDecisionTreeOperator() {
  return std::make_unique<DecisionTreeOperator>();
}

}  // namespace idaa::analytics
