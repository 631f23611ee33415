#include "analytics/kmeans.h"

#include <cmath>
#include <limits>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace idaa::analytics {

namespace {

/// Deterministic distinct-point centroid seeding.
std::vector<std::vector<double>> InitCentroids(
    const std::vector<std::vector<double>>& points, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> chosen;
  while (chosen.size() < k) {
    size_t idx = rng.Index(points.size());
    bool dup = false;
    for (size_t c : chosen) dup |= (c == idx);
    if (!dup) chosen.push_back(idx);
  }
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  for (size_t c : chosen) centroids.push_back(points[c]);
  return centroids;
}

size_t NearestCentroid(const std::vector<std::vector<double>>& centroids,
                       const std::vector<double>& point) {
  double best = std::numeric_limits<double>::max();
  size_t best_c = 0;
  for (size_t c = 0; c < centroids.size(); ++c) {
    double dist = 0;
    for (size_t d = 0; d < point.size(); ++d) {
      double diff = point[d] - centroids[c][d];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_c = c;
    }
  }
  return best_c;
}

}  // namespace

KMeansResult RunKMeans(const std::vector<std::vector<double>>& points,
                       size_t k, size_t max_iters, uint64_t seed,
                       ThreadPool* pool) {
  KMeansResult result;
  if (points.empty() || k == 0) return result;
  const size_t dims = points[0].size();
  k = std::min(k, points.size());
  const size_t n = points.size();

  result.centroids = InitCentroids(points, k, seed);
  result.assignments.assign(n, 0);

  // Per-chunk partial state for one Lloyd iteration; chunks are fixed-size
  // so the ascending-chunk merge below is independent of the thread count.
  struct Partial {
    std::vector<std::vector<double>> sums;
    std::vector<size_t> counts;
    bool changed = false;
  };
  std::vector<Partial> partials(NumChunks(n));

  for (size_t iter = 0; iter < max_iters; ++iter) {
    ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
      Partial& part = partials[chunk];
      part.sums.assign(k, std::vector<double>(dims, 0.0));
      part.counts.assign(k, 0);
      part.changed = false;
      for (size_t p = begin; p < end; ++p) {
        size_t best_c = NearestCentroid(result.centroids, points[p]);
        if (result.assignments[p] != best_c) {
          result.assignments[p] = best_c;
          part.changed = true;
        }
        ++part.counts[best_c];
        for (size_t d = 0; d < dims; ++d) part.sums[best_c][d] += points[p][d];
      }
    });
    result.iterations = iter + 1;

    // Coordinator merge in ascending chunk order — deterministic.
    bool changed = false;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<size_t> counts(k, 0);
    for (const Partial& part : partials) {
      changed |= part.changed;
      for (size_t c = 0; c < k; ++c) {
        counts[c] += part.counts[c];
        for (size_t d = 0; d < dims; ++d) sums[c][d] += part.sums[c][d];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep old centroid for empty cluster
      for (size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (!changed) break;
  }

  std::vector<double> inertia(partials.size(), 0.0);
  ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
    double acc = 0;
    for (size_t p = begin; p < end; ++p) {
      const auto& centroid = result.centroids[result.assignments[p]];
      for (size_t d = 0; d < dims; ++d) {
        double diff = points[p][d] - centroid[d];
        acc += diff * diff;
      }
    }
    inertia[chunk] = acc;
  });
  result.inertia = 0;
  for (double part : inertia) result.inertia += part;
  return result;
}

namespace {

class KMeansOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "KMEANS"; }
  std::string description() const override {
    return "Lloyd's k-means clustering; assignments materialized as an AOT";
  }

  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(std::string output, GetParam(params, "output"));
    IDAA_ASSIGN_OR_RETURN(std::string columns_list,
                          GetParam(params, "columns"));
    IDAA_ASSIGN_OR_RETURN(int64_t k, GetIntParam(params, "k", 3));
    IDAA_ASSIGN_OR_RETURN(int64_t max_iters,
                          GetIntParam(params, "max_iters", 25));
    IDAA_ASSIGN_OR_RETURN(int64_t seed, GetIntParam(params, "seed", 42));
    if (k < 1) return Status::InvalidArgument("k must be >= 1");

    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));
    IDAA_ASSIGN_OR_RETURN(std::vector<size_t> columns,
                          ResolveColumns(in_schema, columns_list));

    std::vector<std::vector<double>> points;
    size_t skipped = 0;
    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    IDAA_ASSIGN_OR_RETURN(
        points, in->ExtractFeatures(columns, ctx.trace(), nullptr, &skipped));

    KMeansResult km;
    {
      TraceSpan fit(ctx.trace(), "analytics.kmeans.fit");
      km = RunKMeans(points, static_cast<size_t>(k),
                     static_cast<size_t>(max_iters),
                     static_cast<uint64_t>(seed), in->pool());
      fit.Attr("rows", static_cast<uint64_t>(points.size()));
      fit.Attr("iterations", static_cast<uint64_t>(km.iterations));
      fit.Attr("partial_merges",
               static_cast<uint64_t>(NumChunks(points.size())));
    }
    in.reset();  // release the scan pin before materializing output AOTs

    // Assignments AOT: features + CLUSTER, staged column-major and appended
    // without Row/Value boxing — the write of an 80k-row assignments AOT
    // otherwise dominates the whole CALL.
    std::vector<ColumnDef> out_cols;
    for (size_t c : columns) {
      ColumnDef def = in_schema.Column(c);
      def.type = DataType::kDouble;
      out_cols.push_back(def);
    }
    out_cols.push_back({"CLUSTER", DataType::kInteger, false});
    Schema out_schema(std::move(out_cols));
    IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, out_schema));
    accel::ColumnarRows out;
    out.num_rows = points.size();
    out.columns.resize(columns.size() + 1);
    for (size_t j = 0; j < columns.size(); ++j) {
      std::vector<double>& dst = out.columns[j].doubles;
      dst.resize(points.size());
      for (size_t p = 0; p < points.size(); ++p) dst[p] = points[p][j];
    }
    std::vector<int64_t>& clus = out.columns[columns.size()].ints;
    clus.resize(points.size());
    for (size_t p = 0; p < points.size(); ++p) {
      clus[p] = static_cast<int64_t>(km.assignments[p]);
    }
    IDAA_RETURN_IF_ERROR(ctx.AppendColumnar(output, out));

    // Optional centroids AOT.
    std::string centroids_output = GetParamOr(params, "centroids_output", "");
    if (!centroids_output.empty()) {
      std::vector<ColumnDef> cen_cols = {{"CLUSTER", DataType::kInteger, false}};
      for (size_t c : columns) {
        ColumnDef def = in_schema.Column(c);
        def.type = DataType::kDouble;
        cen_cols.push_back(def);
      }
      Schema cen_schema(std::move(cen_cols));
      IDAA_RETURN_IF_ERROR(ctx.RecreateAot(centroids_output, cen_schema));
      std::vector<Row> cen_rows;
      for (size_t c = 0; c < km.centroids.size(); ++c) {
        Row row = {Value::Integer(static_cast<int64_t>(c))};
        for (double d : km.centroids[c]) row.push_back(Value::Double(d));
        cen_rows.push_back(std::move(row));
      }
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(centroids_output, cen_rows));
    }

    ResultSet summary{Schema({{"K", DataType::kInteger, false},
                              {"ITERATIONS", DataType::kInteger, false},
                              {"INERTIA", DataType::kDouble, false},
                              {"ROWS", DataType::kInteger, false},
                              {"SKIPPED_NULL_ROWS", DataType::kInteger, false}})};
    summary.Append({Value::Integer(static_cast<int64_t>(km.centroids.size())),
                    Value::Integer(static_cast<int64_t>(km.iterations)),
                    Value::Double(km.inertia),
                    Value::Integer(static_cast<int64_t>(points.size())),
                    Value::Integer(static_cast<int64_t>(skipped))});
    return summary;
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeKMeansOperator() {
  return std::make_unique<KMeansOperator>();
}

}  // namespace idaa::analytics
