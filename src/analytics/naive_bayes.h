// NAIVEBAYES: Gaussian naive Bayes classification (numeric features,
// VARCHAR label). Params: input, label, columns, output (optional
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
  /// Fit from feature rows and string labels: per-chunk class histograms
  /// (count / mean-sum / variance-sum) on `pool` (serially when null),
  /// merged in ascending chunk order — bit-identical for any thread count.
  static Result<GaussianNbModel> Fit(
      const std::vector<std::vector<double>>& features,
      const std::vector<std::string>& labels, ThreadPool* pool);

  /// Most probable class for one feature vector.
  const std::string& Predict(const std::vector<double>& features) const;

  const std::map<std::string, double>& priors() const { return priors_; }

 private:
  struct ClassStats {
    double prior = 0;
    std::vector<double> mean;
    std::vector<double> variance;
  };
  std::map<std::string, ClassStats> classes_;
  std::map<std::string, double> priors_;
};

}  // namespace idaa::analytics
