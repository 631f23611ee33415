// DECISIONTREE: CART-style classification tree (Gini impurity, numeric
// features, a label of any type, keyed by storage equality). Params: input, label, columns, output (optional
// predictions AOT), max_depth (def 5), min_samples (def 4).
// Summary: training accuracy, node count, depth.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analytics/operator.h"

namespace idaa::analytics {

std::unique_ptr<AnalyticsOperator> MakeDecisionTreeOperator();

/// Trained classification tree, usable directly from C++.
class DecisionTreeModel {
 public:
  /// With a pool, the per-feature best-split search at each node runs
  /// morsel-parallel (one task per feature); each feature's scan is
  /// self-contained and the ascending-feature reduction replicates the
  /// serial loop's tie-breaking, so the fitted tree is *exactly* the tree
  /// the serial search builds, for any thread count.
  static Result<DecisionTreeModel> Fit(
      const std::vector<std::vector<double>>& features,
      const std::vector<Value>& labels, size_t max_depth,
      size_t min_samples, ThreadPool* pool = nullptr);

  const Value& Predict(const std::vector<double>& features) const;

  size_t NumNodes() const { return nodes_.size(); }
  size_t Depth() const;

 private:
  struct Node {
    bool is_leaf = true;
    Value label;            // leaf prediction
    size_t feature = 0;     // split feature
    double threshold = 0;   // go left if value <= threshold
    int left = -1;
    int right = -1;
    size_t depth = 0;
  };

  int Build(const std::vector<std::vector<double>>& features,
            const std::vector<Value>& labels,
            const std::vector<size_t>& indices, size_t depth, size_t max_depth,
            size_t min_samples);

  std::vector<Node> nodes_;
  ThreadPool* pool_ = nullptr;  // split-search parallelism (may be null)
};

}  // namespace idaa::analytics
