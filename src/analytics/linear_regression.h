// LINREG: ordinary least squares via normal equations.
// Params: input, target, columns (features), output (optional predictions
// AOT: features + ACTUAL + PREDICTED + RESIDUAL).
// Summary: one row per coefficient (INTERCEPT first) plus R2/RMSE rows.

#pragma once

#include <memory>
#include <vector>

#include "analytics/operator.h"

namespace idaa::analytics {

std::unique_ptr<AnalyticsOperator> MakeLinearRegressionOperator();

/// Solve OLS: y ~ X (an intercept column is added internally).
/// Returns coefficients [intercept, b1..bn]; fails on singular systems.
/// X'X / X'y / sum-of-squares accumulators are built per fixed-size chunk
/// on `pool` (serially when null) and merged in ascending chunk order, so
/// the solution is bit-identical for any thread count.
struct OlsResult {
  std::vector<double> coefficients;
  double r2 = 0.0;
  double rmse = 0.0;
};
Result<OlsResult> SolveOls(const std::vector<std::vector<double>>& features,
                           const std::vector<double>& target,
                           ThreadPool* pool);

}  // namespace idaa::analytics
