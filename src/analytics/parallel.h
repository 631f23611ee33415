// Fixed-chunk parallelism for the analytics kernels. Chunk boundaries
// depend only on the input size (never on the thread count), and callers
// merge per-chunk partial states in ascending chunk order — so a kernel's
// result is bit-identical whether it runs on 1 thread, 16, or serially on
// the caller's thread (pool == nullptr). Each kernel has exactly this one
// fit.

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "common/thread_pool.h"

namespace idaa::analytics {

/// Rows per kernel chunk (mirrors the accelerator's default morsel size).
inline constexpr size_t kAnalyticsChunkRows = 4096;

/// Number of fixed-size chunks covering `n` rows.
inline size_t NumChunks(size_t n) {
  return (n + kAnalyticsChunkRows - 1) / kAnalyticsChunkRows;
}

/// Run fn(chunk_index, row_begin, row_end) over the fixed chunks of
/// [0, n), morsel-driven on `pool` when available, serially otherwise.
/// Each chunk is processed by exactly one worker; callers keep per-chunk
/// partial state (indexed by chunk_index) and merge it in ascending order.
inline void ParallelChunks(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t chunks = NumChunks(n);
  if (chunks == 0) return;
  auto run = [&](size_t /*worker*/, size_t c) {
    fn(c, c * kAnalyticsChunkRows,
       std::min(n, (c + 1) * kAnalyticsChunkRows));
  };
  if (pool != nullptr && chunks > 1) {
    pool->ParallelForDynamic(chunks, std::min(pool->num_threads(), chunks),
                             run);
  } else {
    for (size_t c = 0; c < chunks; ++c) run(0, c);
  }
}

}  // namespace idaa::analytics
