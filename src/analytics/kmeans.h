// KMEANS: Lloyd's k-means clustering over numeric feature columns.
// Params: input, output (assignments AOT), columns, k (def 3),
//         max_iters (def 25), seed (def 42), centroids_output (optional AOT)
// Output AOT: selected feature columns + CLUSTER (INTEGER).
// Summary: k, iterations, inertia, rows.

#pragma once

#include <memory>

#include "analytics/operator.h"

namespace idaa::analytics {

std::unique_ptr<AnalyticsOperator> MakeKMeansOperator();

/// Library entry point (also used by tests/benches directly): Lloyd's
/// algorithm; returns final centroids and fills assignments/inertia.
/// Assignment and accumulation run over fixed-size chunks on `pool`
/// (serially when null), per-chunk centroid sums/counts merged in ascending
/// chunk order — bit-identical for any thread count.
struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  std::vector<size_t> assignments;
  double inertia = 0.0;
  size_t iterations = 0;
};
KMeansResult RunKMeans(const std::vector<std::vector<double>>& points,
                       size_t k, size_t max_iters, uint64_t seed,
                       ThreadPool* pool);

}  // namespace idaa::analytics
