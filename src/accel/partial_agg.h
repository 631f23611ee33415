// Partial aggregation state shared by the accelerator's parallel
// execution paths (slice aggregation and the batch hash join's aggregate
// mode): each worker accumulates into its own partial and the coordinator
// merges them into post-aggregation rows.

#pragma once

#include <cstdint>
#include <vector>

#include "common/row.h"
#include "common/value.h"
#include "sql/binder.h"
#include "sql/expression_eval.h"

namespace idaa::accel {

/// Hash for raw (word-encoded) group keys: per key column a
/// (null flag, bits) pair, optionally prefixed with a slice qualifier.
struct RawKeyHash {
  size_t operator()(const std::vector<uint64_t>& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (uint64_t v : key) h = h * 1315423911ULL + std::hash<uint64_t>()(v);
    return h;
  }
};

/// Hash for Value-vector group/join keys.
struct ValueKeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) h = h * 1315423911ULL + v.Hash();
    return h;
  }
};

/// Partial aggregation state of one worker (slice, morsel worker, ...).
struct AggPartial {
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<sql::AggregateAccumulator>> accumulators;
};

/// Merge per-worker partials into ONE unfinalized partial, preserving
/// first-seen group order across `partials` (the deterministic slice /
/// morsel-worker order). Used directly by the sharded scatter path: each
/// shard reduces its slice partials to one partial, the coordinator merges
/// the shard partials in shard order, and only then finalizes — so results
/// are bit-identical to the single-shard merge of the same partials.
/// Does NOT synthesize the empty-input global-aggregation row; that
/// happens at finalization.
Result<AggPartial> MergeAggPartialsRaw(std::vector<AggPartial>* partials);

/// Finalize one merged partial into post-aggregation rows
/// [keys..., finalized aggregates...]. A global aggregation over empty
/// input still yields one row.
Result<std::vector<Row>> FinalizeAggPartial(const sql::BoundSelect& plan,
                                            AggPartial partial);

/// Merge per-worker partial aggregations into post-aggregation rows
/// [keys..., finalized aggregates...]. A global aggregation over empty
/// input still yields one row. Equivalent to
/// FinalizeAggPartial(plan, MergeAggPartialsRaw(partials)).
Result<std::vector<Row>> MergeAggPartials(const sql::BoundSelect& plan,
                                          std::vector<AggPartial>* partials);

}  // namespace idaa::accel
