// NAIVEBAYES: Gaussian naive Bayes classification (numeric features,
// label of any type, keyed by storage equality). Params: input, label, columns, output (optional
// predictions AOT). Summary: training accuracy + per-class priors.

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "analytics/operator.h"

namespace idaa::analytics {

std::unique_ptr<AnalyticsOperator> MakeNaiveBayesOperator();

/// Trained Gaussian NB model, usable directly from C++.
class GaussianNbModel {
 public:
  /// Fit from feature rows and class labels (keyed by storage equality:
  /// DOUBLE labels 1000001 and 1000002 are two classes): per-chunk class histograms
  /// (count / mean-sum / variance-sum) on `pool` (serially when null),
  /// merged in ascending chunk order — bit-identical for any thread count.
  static Result<GaussianNbModel> Fit(
      const std::vector<std::vector<double>>& features,
      const std::vector<Value>& labels, ThreadPool* pool);

  /// Most probable class for one feature vector.
  const Value& Predict(const std::vector<double>& features) const;

  const std::map<Value, double>& priors() const { return priors_; }

 private:
  struct ClassStats {
    double prior = 0;
    std::vector<double> mean;
    std::vector<double> variance;
  };
  std::map<Value, ClassStats> classes_;
  std::map<Value, double> priors_;
};

}  // namespace idaa::analytics
