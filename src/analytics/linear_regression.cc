#include "analytics/linear_regression.h"

#include <cmath>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"
#include "common/string_util.h"

namespace idaa::analytics {

namespace {

/// Solve (X'X) beta = X'y by Gaussian elimination with partial pivoting.
Result<std::vector<double>> SolveNormalEquations(
    std::vector<std::vector<double>> a, std::vector<double> b) {
  const size_t p = b.size();
  for (size_t col = 0; col < p; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < p; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return Status::InvalidArgument(
          "OLS: singular system (collinear features?)");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = 0; r < p; ++r) {
      if (r == col) continue;
      double factor = a[r][col] / a[col][col];
      for (size_t c = col; c < p; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> coefficients(p);
  for (size_t i = 0; i < p; ++i) coefficients[i] = b[i] / a[i][i];
  return coefficients;
}

}  // namespace

Result<OlsResult> SolveOls(const std::vector<std::vector<double>>& features,
                           const std::vector<double>& target,
                           ThreadPool* pool) {
  if (features.size() != target.size() || features.empty()) {
    return Status::InvalidArgument("OLS: empty or mismatched inputs");
  }
  const size_t n = features.size();
  const size_t p = features[0].size() + 1;  // + intercept
  if (n < p) {
    return Status::InvalidArgument("OLS: fewer rows than parameters");
  }

  // Per-chunk X'X / X'y / y-sum partials, merged in ascending chunk order.
  struct Partial {
    std::vector<std::vector<double>> xtx;
    std::vector<double> xty;
    double y_sum = 0;
  };
  std::vector<Partial> partials(NumChunks(n));
  ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
    Partial& part = partials[chunk];
    part.xtx.assign(p, std::vector<double>(p, 0.0));
    part.xty.assign(p, 0.0);
    std::vector<double> x(p);
    for (size_t r = begin; r < end; ++r) {
      x[0] = 1.0;
      for (size_t j = 1; j < p; ++j) x[j] = features[r][j - 1];
      for (size_t i = 0; i < p; ++i) {
        part.xty[i] += x[i] * target[r];
        for (size_t j = 0; j < p; ++j) part.xtx[i][j] += x[i] * x[j];
      }
      part.y_sum += target[r];
    }
  });
  std::vector<std::vector<double>> xtx(p, std::vector<double>(p, 0.0));
  std::vector<double> xty(p, 0.0);
  double y_sum = 0;
  for (const Partial& part : partials) {
    y_sum += part.y_sum;
    for (size_t i = 0; i < p; ++i) {
      xty[i] += part.xty[i];
      for (size_t j = 0; j < p; ++j) xtx[i][j] += part.xtx[i][j];
    }
  }

  OlsResult result;
  IDAA_ASSIGN_OR_RETURN(result.coefficients,
                        SolveNormalEquations(xtx, xty));

  const double y_mean = y_sum / static_cast<double>(n);
  struct StatsPartial {
    double ss_res = 0, ss_tot = 0;
  };
  std::vector<StatsPartial> stats(partials.size());
  ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
    StatsPartial& part = stats[chunk];
    for (size_t r = begin; r < end; ++r) {
      double pred = result.coefficients[0];
      for (size_t j = 1; j < p; ++j) {
        pred += result.coefficients[j] * features[r][j - 1];
      }
      part.ss_res += (target[r] - pred) * (target[r] - pred);
      part.ss_tot += (target[r] - y_mean) * (target[r] - y_mean);
    }
  });
  double ss_res = 0, ss_tot = 0;
  for (const StatsPartial& part : stats) {
    ss_res += part.ss_res;
    ss_tot += part.ss_tot;
  }
  result.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  result.rmse = std::sqrt(ss_res / static_cast<double>(n));
  return result;
}

namespace {

class LinearRegressionOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "LINREG"; }
  std::string description() const override {
    return "ordinary least squares regression (normal equations)";
  }

  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(std::string target_name, GetParam(params, "target"));
    IDAA_ASSIGN_OR_RETURN(std::string columns_list,
                          GetParam(params, "columns"));

    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));
    IDAA_ASSIGN_OR_RETURN(std::vector<size_t> feature_cols,
                          ResolveColumns(in_schema, columns_list));
    IDAA_ASSIGN_OR_RETURN(size_t target_col,
                          in_schema.ColumnIndex(target_name));

    // Rows with NULL in target or any feature are skipped.
    std::vector<size_t> all_cols = feature_cols;
    all_cols.push_back(target_col);

    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    IDAA_ASSIGN_OR_RETURN(std::vector<std::vector<double>> matrix,
                          in->ExtractFeatures(all_cols, ctx.trace()));
    std::vector<std::vector<double>> features;
    std::vector<double> target;
    features.reserve(matrix.size());
    target.reserve(matrix.size());
    for (auto& row : matrix) {
      target.push_back(row.back());
      row.pop_back();
      features.push_back(std::move(row));
    }

    OlsResult ols;
    {
      TraceSpan fit(ctx.trace(), "analytics.linreg.fit");
      fit.Attr("rows", static_cast<uint64_t>(features.size()));
      fit.Attr("partial_merges",
               static_cast<uint64_t>(NumChunks(features.size())));
      IDAA_ASSIGN_OR_RETURN(ols, SolveOls(features, target, in->pool()));
    }
    in.reset();  // release the scan pin before materializing output AOTs

    // Optional predictions AOT.
    std::string output = GetParamOr(params, "output", "");
    if (!output.empty()) {
      std::vector<ColumnDef> out_cols;
      for (size_t c : feature_cols) {
        ColumnDef def = in_schema.Column(c);
        def.type = DataType::kDouble;
        out_cols.push_back(def);
      }
      out_cols.push_back({"ACTUAL", DataType::kDouble, false});
      out_cols.push_back({"PREDICTED", DataType::kDouble, false});
      out_cols.push_back({"RESIDUAL", DataType::kDouble, false});
      IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, Schema(out_cols)));
      std::vector<Row> out_rows;
      out_rows.reserve(features.size());
      for (size_t r = 0; r < features.size(); ++r) {
        double pred = ols.coefficients[0];
        for (size_t j = 0; j < features[r].size(); ++j) {
          pred += ols.coefficients[j + 1] * features[r][j];
        }
        Row row;
        for (double d : features[r]) row.push_back(Value::Double(d));
        row.push_back(Value::Double(target[r]));
        row.push_back(Value::Double(pred));
        row.push_back(Value::Double(target[r] - pred));
        out_rows.push_back(std::move(row));
      }
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(output, out_rows));
    }

    // Summary: coefficient table + fit stats.
    ResultSet summary{Schema({{"TERM", DataType::kVarchar, false},
                              {"VALUE", DataType::kDouble, false}})};
    summary.Append({Value::Varchar("INTERCEPT"),
                    Value::Double(ols.coefficients[0])});
    for (size_t j = 0; j < feature_cols.size(); ++j) {
      summary.Append({Value::Varchar(in_schema.Column(feature_cols[j]).name),
                      Value::Double(ols.coefficients[j + 1])});
    }
    summary.Append({Value::Varchar("R2"), Value::Double(ols.r2)});
    summary.Append({Value::Varchar("RMSE"), Value::Double(ols.rmse)});
    summary.Append({Value::Varchar("ROWS"),
                    Value::Double(static_cast<double>(features.size()))});
    return summary;
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeLinearRegressionOperator() {
  return std::make_unique<LinearRegressionOperator>();
}

}  // namespace idaa::analytics
