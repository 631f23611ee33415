#include "accel/batch_join.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "accel/morsel_scan.h"
#include "accel/partial_agg.h"
#include "sql/expression_eval.h"

namespace idaa::accel {

namespace {

/// Sentinel build-row index: "no match" (and, for left-outer probes, the
/// NULL-padded virtual candidate).
constexpr uint32_t kNoRow = 0xffffffffu;

/// Zones whose join-key span exceeds this are not Bloom-tested (the
/// candidate enumeration would cost more than scanning the zone).
constexpr int64_t kZoneBloomSpanLimit = 1024;

inline uint64_t MixBits(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashKeyWords(const uint64_t* key, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < width; ++i) {
    h = MixBits(h ^ (key[i] * 0x9ddfea08eb382d69ULL));
  }
  return h;
}

/// Blocked-free Bloom filter over 64-bit key hashes: two probes derived
/// from one hash. False positives only cost a wasted hash-table lookup
/// (or a zone that is not pruned); never a correctness issue.
class BloomFilter {
 public:
  void Init(size_t expected_keys) {
    size_t bits = 1024;
    while (bits < expected_keys * 12) bits <<= 1;
    words_.assign(bits / 64, 0);
    mask_ = bits - 1;
  }
  void Add(uint64_t h) {
    Set(h & mask_);
    Set((h >> 21) & mask_);
  }
  bool MayContain(uint64_t h) const {
    return Test(h & mask_) && Test((h >> 21) & mask_);
  }
  uint64_t num_bits() const { return (mask_ + 1); }

 private:
  void Set(uint64_t b) { words_[b >> 6] |= 1ULL << (b & 63); }
  bool Test(uint64_t b) const { return (words_[b >> 6] >> (b & 63)) & 1; }
  std::vector<uint64_t> words_;
  uint64_t mask_ = 1023;
};

/// Compact open-addressing hash table over flat fixed-width build keys.
/// Built once per dimension with hash-prefix partitioning: a serial pass
/// buckets rows by partition (preserving build-row order), then each
/// partition is inserted by one worker into its own disjoint slot region —
/// no locks, no atomics. Duplicate keys chain through next_ in ascending
/// build-row order, the same candidate order the coordinator JoinIterator
/// produces. Probes are lock-free.
class JoinHashTable {
 public:
  void Build(const std::vector<uint64_t>& keys, size_t key_width,
             uint32_t num_rows, const std::vector<uint8_t>& insertable,
             const std::vector<uint64_t>& hashes, ThreadPool* pool) {
    key_width_ = key_width;
    keys_ = keys.data();
    next_.assign(num_rows, kNoRow);
    tail_.assign(num_rows, 0);

    size_t parts = 1;
    while (parts < 16 && parts * 4096 < num_rows) parts <<= 1;
    part_count_ = parts;
    part_bits_ = 0;
    while ((size_t{1} << part_bits_) < parts) ++part_bits_;

    std::vector<std::vector<uint32_t>> buckets(parts);
    for (uint32_t r = 0; r < num_rows; ++r) {
      if (insertable[r]) buckets[hashes[r] & (parts - 1)].push_back(r);
    }
    size_t max_bucket = 8;
    for (const auto& b : buckets) max_bucket = std::max(max_bucket, b.size());
    size_t region = 16;
    while (region < max_bucket * 2) region <<= 1;
    region_bits_ = 0;
    while ((size_t{1} << region_bits_) < region) ++region_bits_;
    region_mask_ = region - 1;
    slots_.assign(parts * region, 0);

    auto insert_partition = [&](size_t p) {
      uint32_t* base = slots_.data() + (p << region_bits_);
      for (uint32_t r : buckets[p]) {
        uint64_t idx = (hashes[r] >> part_bits_) & region_mask_;
        while (true) {
          uint32_t existing = base[idx];
          if (existing == 0) {
            base[idx] = r + 1;
            tail_[r] = r;
            break;
          }
          uint32_t head = existing - 1;
          if (std::memcmp(keys_ + static_cast<size_t>(head) * key_width_,
                          keys_ + static_cast<size_t>(r) * key_width_,
                          key_width_ * sizeof(uint64_t)) == 0) {
            next_[tail_[head]] = r;
            tail_[head] = r;
            break;
          }
          idx = (idx + 1) & region_mask_;
        }
      }
    };
    if (pool != nullptr && parts > 1) {
      pool->ParallelFor(parts, insert_partition);
    } else {
      for (size_t p = 0; p < parts; ++p) insert_partition(p);
    }
  }

  /// Head build row of the duplicate chain matching `key`, or kNoRow.
  uint32_t Find(const uint64_t* key, uint64_t hash) const {
    const uint32_t* base =
        slots_.data() + ((hash & (part_count_ - 1)) << region_bits_);
    uint64_t idx = (hash >> part_bits_) & region_mask_;
    while (true) {
      uint32_t existing = base[idx];
      if (existing == 0) return kNoRow;
      uint32_t head = existing - 1;
      if (std::memcmp(keys_ + static_cast<size_t>(head) * key_width_, key,
                      key_width_ * sizeof(uint64_t)) == 0) {
        return head;
      }
      idx = (idx + 1) & region_mask_;
    }
  }

  uint32_t NextMatch(uint32_t row) const { return next_[row]; }
  size_t num_partitions() const { return part_count_; }

 private:
  size_t key_width_ = 1;
  const uint64_t* keys_ = nullptr;
  std::vector<uint32_t> slots_;  // row + 1; 0 = empty
  std::vector<uint32_t> next_;   // duplicate chain, ascending build row
  std::vector<uint32_t> tail_;   // chain tail, indexed by head row
  size_t part_count_ = 1;
  unsigned part_bits_ = 0;
  unsigned region_bits_ = 4;
  uint64_t region_mask_ = 15;
};

struct DimKey {
  size_t base_column;  ///< probe key, base-table-local
  size_t dim_column;   ///< build key, dimension-local
  DataType type;       ///< identical on both sides (enforced)
};

/// One build side (joined table) of the batch join.
struct BuildSide {
  const sql::BoundTable* bt = nullptr;
  size_t offset = 0;  ///< combined-layout offset
  size_t width = 0;
  std::vector<DimKey> keys;
  std::vector<const sql::BoundExpr*> residual;
  std::vector<uint8_t> needed;  ///< dim-local columns the plan touches

  // Build output: global-dictionary column copies of the needed columns
  // (VARCHAR values re-interned into one dictionary spanning all slices,
  // so codes compare globally), flat key words, and the hash table.
  std::vector<std::unique_ptr<Column>> cols;
  uint32_t num_rows = 0;
  std::vector<uint64_t> key_words;    ///< num_rows * keys.size()
  std::vector<uint8_t> insertable;    ///< non-NULL key rows
  std::vector<uint64_t> hashes;
  uint32_t insertable_rows = 0;
  JoinHashTable ht;
  BloomFilter bloom;          ///< over key hashes of insertable rows
  bool zone_bloom = false;    ///< single int-family key, inner: zone pruning
  std::vector<ColumnRange> sideways;  ///< min/max over base key columns
  /// Probe-code -> build-code+1 translation per VARCHAR key per base slice.
  std::vector<std::vector<std::vector<uint32_t>>> dict_maps;
};

bool IsIntFamily(DataType type) {
  return type == DataType::kInteger || type == DataType::kDate ||
         type == DataType::kTimestamp;
}

bool IntFamilyValue(DataType type, int64_t v, Value* out) {
  switch (type) {
    case DataType::kInteger:
      *out = Value::Integer(v);
      return true;
    case DataType::kDate:
      *out = Value::Date(static_cast<int32_t>(v));
      return true;
    case DataType::kTimestamp:
      *out = Value::Timestamp(v);
      return true;
    default:
      return false;
  }
}

bool IntFamilyRaw(const Value& v, int64_t* out) {
  if (v.is_integer()) {
    *out = v.AsInteger();
    return true;
  }
  if (v.is_date()) {
    *out = v.AsDate();
    return true;
  }
  if (v.is_timestamp()) {
    *out = v.AsTimestamp();
    return true;
  }
  return false;
}

/// Shape test: every table's scan predicate is exactly a conjunction of
/// column ranges, and every joined table's equi keys probe the base table
/// with identical, non-DOUBLE types on both sides (DOUBLE equality is
/// IEEE, not bit-pattern: -0.0 == 0.0). Fills key/residual metadata.
bool BatchJoinEligible(const sql::BoundSelect& plan,
                       std::vector<BuildSide>* dims) {
  if (plan.tables.size() < 2) return false;
  for (const sql::BoundTable& bt : plan.tables) {
    if (!IsExactScanPredicate(bt.scan_predicate.get())) return false;
  }
  const size_t base_width = plan.tables[0].info->schema.NumColumns();
  for (size_t t = 1; t < plan.tables.size(); ++t) {
    const sql::BoundTable& bt = plan.tables[t];
    BuildSide dim;
    dim.bt = &bt;
    dim.offset = bt.offset;
    dim.width = bt.info->schema.NumColumns();
    if (bt.join_on) {
      std::vector<exec::EquiKey> keys;
      exec::ExtractEquiKeys(*bt.join_on, bt.offset, bt.offset + dim.width,
                            &keys, &dim.residual);
      for (const exec::EquiKey& k : keys) {
        if (k.left_index >= base_width) return false;  // chained join key
        const DataType lt = plan.tables[0].info->schema.Column(k.left_index).type;
        const DataType rt =
            bt.info->schema.Column(k.right_index - bt.offset).type;
        if (lt != rt || lt == DataType::kDouble) return false;
        dim.keys.push_back({k.left_index, k.right_index - bt.offset, lt});
      }
    }
    dims->push_back(std::move(dim));
  }
  return true;
}

/// Whether the post-join aggregation can run inside the probe loop
/// (no residual WHERE / join conjuncts, every dimension keyed,
/// plain-column keys and arguments, no DISTINCT).
bool JoinAggregateMode(const sql::BoundSelect& plan,
                       const std::vector<BuildSide>& dims) {
  if (!plan.has_aggregation || plan.where || plan.distinct) return false;
  for (const BuildSide& dim : dims) {
    if (dim.keys.empty() || !dim.residual.empty()) return false;
  }
  for (const auto& key : plan.group_keys) {
    if (key->kind != sql::BoundExprKind::kColumn) return false;
  }
  for (const auto& agg : plan.aggregates) {
    if (agg.distinct) return false;
    if (agg.arg && agg.arg->kind != sql::BoundExprKind::kColumn) return false;
  }
  return true;
}

/// Scan one dimension into global columns (no Row materialization: raw
/// appends straight from the slice arrays, VARCHAR re-interned into the
/// build dictionary), then encode key words and build the hash table,
/// Bloom filter and sideways min/max ranges. The caller holds the table's
/// scan pin (taken before `bp` was compiled, held through the probe).
void BuildDim(const ColumnTable& table, const BatchScanPlan& bp, TxnId reader,
              Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
              const BatchOptions& batch, BuildSide* dim) {
  const Schema& schema = table.schema();
  dim->cols.resize(dim->width);
  for (size_t c = 0; c < dim->width; ++c) {
    if (dim->needed[c]) {
      dim->cols[c] = std::make_unique<Column>(schema.Column(c).type);
    }
  }

  const std::vector<Morsel> morsels = table.PlanMorsels(batch.morsel_size);
  TransactionManager::VisibilityChecker visibility(&tm, reader, snapshot);
  std::vector<uint32_t> sel;
  BatchScanStats stats;
  for (const Morsel& m : morsels) {
    table.ScanMorsel(
        m, bp.ranges, &bp.per_slice[m.slice], visibility, &sel, &stats,
        [&](const ColumnBatch& b) {
          // Ascending cursors over the (possibly encoded) source columns;
          // the build-side copies land in the dst columns' hot tails, so
          // later random access on them stays flat-array O(1).
          std::vector<ColumnCursor> src_curs;
          src_curs.reserve(dim->width);
          for (size_t c = 0; c < dim->width; ++c) {
            src_curs.emplace_back(*(*b.columns)[c]);
          }
          for (size_t k = 0; k < b.sel_count; ++k) {
            const size_t i = b.AbsoluteRow(k);
            for (size_t c = 0; c < dim->width; ++c) {
              Column* dst = dim->cols[c].get();
              if (dst == nullptr) continue;
              ColumnCursor& src = src_curs[c];
              if (src.IsNull(i)) {
                dst->AppendRawNull();
              } else {
                switch (src.type()) {
                  case DataType::kDouble:
                    dst->AppendRawDouble(src.Double(i));
                    break;
                  case DataType::kVarchar:
                    dst->AppendRawVarchar(src.column().DictEntry(src.Code(i)));
                    break;
                  default:
                    dst->AppendRawInt(src.Int(i));
                }
              }
            }
            ++dim->num_rows;
          }
        });
  }

  const size_t nk = dim->keys.size();
  if (nk == 0) return;
  dim->key_words.resize(static_cast<size_t>(dim->num_rows) * nk);
  dim->insertable.assign(dim->num_rows, 1);
  dim->hashes.resize(dim->num_rows);
  std::vector<int64_t> key_min(nk, 0), key_max(nk, 0);
  for (uint32_t r = 0; r < dim->num_rows; ++r) {
    for (size_t j = 0; j < nk; ++j) {
      const Column& col = *dim->cols[dim->keys[j].dim_column];
      uint64_t w = 0;
      if (col.IsNull(r)) {
        dim->insertable[r] = 0;  // NULL never equi-joins
      } else if (col.type() == DataType::kVarchar) {
        w = col.RawCode(r);
      } else {
        w = static_cast<uint64_t>(col.RawInt(r));
      }
      dim->key_words[static_cast<size_t>(r) * nk + j] = w;
    }
    dim->hashes[r] =
        HashKeyWords(&dim->key_words[static_cast<size_t>(r) * nk], nk);
    if (dim->insertable[r]) {
      for (size_t j = 0; j < nk; ++j) {
        const int64_t v = static_cast<int64_t>(
            dim->key_words[static_cast<size_t>(r) * nk + j]);
        if (dim->insertable_rows == 0) {
          key_min[j] = key_max[j] = v;
        } else {
          key_min[j] = std::min(key_min[j], v);
          key_max[j] = std::max(key_max[j], v);
        }
      }
      ++dim->insertable_rows;
    }
  }
  dim->ht.Build(dim->key_words, nk, dim->num_rows, dim->insertable,
                dim->hashes, pool);
  dim->bloom.Init(dim->insertable_rows);
  for (uint32_t r = 0; r < dim->num_rows; ++r) {
    if (dim->insertable[r]) dim->bloom.Add(dim->hashes[r]);
  }

  // Sideways information passing (inner dims only: pruning probe rows that
  // could only produce left-padded output would be wrong): min/max over
  // the build keys becomes extra zone-map ranges on the base key columns,
  // and a single int-family key additionally enables Bloom zone pruning.
  if (dim->bt->join_type == sql::JoinType::kInner &&
      dim->insertable_rows > 0) {
    for (size_t j = 0; j < nk; ++j) {
      Value lo, hi;
      if (IntFamilyValue(dim->keys[j].type, key_min[j], &lo) &&
          IntFamilyValue(dim->keys[j].type, key_max[j], &hi)) {
        dim->sideways.push_back(
            {dim->keys[j].base_column, sql::BinaryOp::kGtEq, lo});
        dim->sideways.push_back(
            {dim->keys[j].base_column, sql::BinaryOp::kLtEq, hi});
      }
    }
    dim->zone_bloom = nk == 1 && IsIntFamily(dim->keys[0].type);
  }
}

/// Resolution of a combined-layout column to its side.
struct ColRef {
  bool from_base = true;
  size_t col = 0;  ///< table-local column
  size_t dim = 0;  ///< dims index when !from_base
};

ColRef ResolveColumn(size_t combined_index, size_t base_width,
                     const std::vector<BuildSide>& dims) {
  if (combined_index < base_width) return {true, combined_index, 0};
  for (size_t d = dims.size(); d-- > 0;) {
    if (combined_index >= dims[d].offset) {
      return {false, combined_index - dims[d].offset, d};
    }
  }
  return {true, combined_index, 0};
}

/// Close one probe batch of the columnar materialize mode: gather the
/// layout's bare-column items at the recorded output rows — base columns
/// through the batch's cursors, dimension columns from the build copies
/// (kNoRow pads NULL) — and count the rows into `out`. Clears the
/// positions for the next batch.
void GatherJoinBatch(const InsertLayout& layout, size_t base_width,
                     const std::vector<BuildSide>& dims,
                     std::vector<ColumnCursor>& base_curs,
                     std::vector<size_t>* base_pos,
                     std::vector<std::vector<uint32_t>>* dim_pos,
                     ColumnarRows* out) {
  const size_t n = base_pos->size();
  for (size_t c = 0; c < layout.targets.size(); ++c) {
    const InsertLayout::Target& t = layout.targets[c];
    if (t.source != InsertLayout::Target::Source::kColumn) continue;
    const ColRef ref = ResolveColumn(t.column, base_width, dims);
    if (ref.from_base) {
      GatherCells(
          base_curs[ref.col], n, [&](size_t k) { return (*base_pos)[k]; },
          &out->columns[c]);
      continue;
    }
    const std::vector<uint32_t>& rows = (*dim_pos)[ref.dim];
    ColumnCursor cur(*dims[ref.dim].cols[ref.col]);
    GatherCells(
        cur, n,
        [&](size_t k) {
          return rows[k] == kNoRow ? kPadRow : static_cast<size_t>(rows[k]);
        },
        &out->columns[c]);
  }
  out->num_rows += n;
  base_pos->clear();
  for (auto& rows : *dim_pos) rows.clear();
}

/// How an aggregate consumes its argument (mirrors BatchAggregate).
enum class ArgMode { kRow, kCount, kInt64, kDouble, kValue };

/// Shared body of TryBatchJoin, TryBatchJoinPartial and TryBatchJoinInto.
/// Returns false when the plan is ineligible, or when `partial` is set and
/// the aggregation cannot run inside the probe. Otherwise fills `*partial`
/// (when non-null) with the merged, unfinalized probe partials,
/// `*columnar` (when `layout` is set; the plan is ColumnarInsertEligible)
/// with one batch per morsel in `layout`'s target columns, or `*result`
/// with the finished statement result.
Result<bool> RunBatchJoin(const sql::BoundSelect& plan,
                          const AccelTableResolver& resolver, TxnId reader,
                          Csn snapshot, const TransactionManager& tm,
                          ThreadPool* pool, MetricsRegistry* metrics,
                          TraceContext tc, const BatchOptions& batch,
                          ResultSet* result, AggPartial* partial,
                          const InsertLayout* layout = nullptr,
                          std::vector<ColumnarRows>* columnar = nullptr) {
  std::vector<BuildSide> dims;
  if (!BatchJoinEligible(plan, &dims)) return false;
  const bool aggregate_mode = JoinAggregateMode(plan, dims);
  if (partial != nullptr && !aggregate_mode) return false;

  IDAA_ASSIGN_OR_RETURN(const ColumnTable* base, resolver(plan.tables[0]));
  std::vector<const ColumnTable*> dim_tables(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    IDAA_ASSIGN_OR_RETURN(dim_tables[d], resolver(*dims[d].bt));
  }

  // Pin every involved table's physical layout before anything bakes in
  // slice-local state: compiled per-slice predicates and the probe-side
  // dictionary-code maps both hold dictionary codes that a Groom rebuild
  // re-interns. The pins are held through build and probe so the codes the
  // probe compares are the codes that were compiled. Deduplicated by table
  // because a self-join must not shared-lock the same mutex twice, and
  // taken in address order so that joins naming the same tables in
  // different orders share one lock order (no inversion against GROOM's
  // exclusive lock).
  std::vector<const ColumnTable*> pinned_tables = dim_tables;
  pinned_tables.push_back(base);
  std::sort(pinned_tables.begin(), pinned_tables.end(),
            std::less<const ColumnTable*>());
  pinned_tables.erase(std::unique(pinned_tables.begin(), pinned_tables.end()),
                      pinned_tables.end());
  std::vector<std::shared_lock<std::shared_mutex>> pins;
  for (const ColumnTable* t : pinned_tables) pins.push_back(t->PinForScan());

  const BatchScanPlan base_bp =
      PrepareBatchScan(*base, plan.tables[0].scan_predicate.get());
  std::vector<BatchScanPlan> dim_bps;
  dim_bps.reserve(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    dim_bps.push_back(
        PrepareBatchScan(*dim_tables[d], dims[d].bt->scan_predicate.get()));
  }

  const size_t base_width = plan.tables[0].info->schema.NumColumns();
  size_t combined_width = base_width;
  for (const BuildSide& dim : dims) {
    combined_width = std::max(combined_width, dim.offset + dim.width);
  }
  const std::vector<std::vector<uint8_t>> projections =
      ComputeProjections(plan);
  // Columns the materialize mode boxes into the combined row: every
  // projected column, or — writing into an INSERT target — only the inputs
  // of the residual conjuncts, the WHERE and the expression items (bare
  // select columns are gathered typed, after the probe of each batch).
  std::vector<uint8_t> row_cols(combined_width, 0);
  if (layout == nullptr) {
    for (size_t t = 0; t < plan.tables.size(); ++t) {
      const size_t width = plan.tables[t].info->schema.NumColumns();
      for (size_t c = 0; c < width; ++c) {
        row_cols[plan.tables[t].offset + c] = projections[t][c];
      }
    }
  } else {
    std::vector<const sql::BoundExpr*> filters = {plan.where.get()};
    for (const BuildSide& dim : dims) {
      filters.insert(filters.end(), dim.residual.begin(), dim.residual.end());
    }
    row_cols = ScratchColumns(*layout, combined_width, filters);
  }

  // ---- Build phase ------------------------------------------------------
  TraceSpan build_span(tc, "accel.batch_join_build");
  uint64_t build_rows = 0, partitions = 0, bloom_bits = 0;
  for (size_t d = 0; d < dims.size(); ++d) {
    dims[d].needed = projections[d + 1];
    BuildDim(*dim_tables[d], dim_bps[d], reader, snapshot, tm, pool, batch,
             &dims[d]);
    build_rows += dims[d].num_rows;
    if (!dims[d].keys.empty()) {
      partitions += dims[d].ht.num_partitions();
      bloom_bits += dims[d].bloom.num_bits();
    }
    // Probe-side dictionary codes are slice-local: translate each base
    // slice's codes into the build dictionary once, then probing compares
    // codes, never strings.
    dims[d].dict_maps.resize(dims[d].keys.size());
    for (size_t j = 0; j < dims[d].keys.size(); ++j) {
      if (dims[d].keys[j].type != DataType::kVarchar) continue;
      dims[d].dict_maps[j].resize(base->num_slices());
      for (size_t s = 0; s < base->num_slices(); ++s) {
        dims[d].dict_maps[j][s] = base->MapDictionaryCodes(
            s, dims[d].keys[j].base_column,
            *dims[d].cols[dims[d].keys[j].dim_column]);
      }
    }
  }
  build_span.Attr("dimensions", static_cast<uint64_t>(dims.size()));
  build_span.Attr("build_rows", build_rows);
  build_span.Attr("partitions", partitions);
  build_span.Attr("bloom_bits", bloom_bits);
  build_span.End();

  // An empty inner build side annihilates the whole join: skip the probe.
  bool empty_inner = false;
  for (const BuildSide& dim : dims) {
    if (dim.bt->join_type == sql::JoinType::kInner ||
        dim.bt->join_type == sql::JoinType::kCross) {
      if ((dim.keys.empty() ? dim.num_rows : dim.insertable_rows) == 0) {
        empty_inner = true;
      }
    }
  }

  // Aggregate-mode metadata: group-key sources (slice-qualified raw codes
  // for base-side VARCHAR keys, global codes for build-side keys) and
  // argument fast paths.
  std::vector<ColRef> key_refs(plan.group_keys.size());
  bool base_varchar_key = false;
  std::vector<ColRef> arg_refs(plan.aggregates.size());
  std::vector<ArgMode> modes(plan.aggregates.size(), ArgMode::kRow);
  if (aggregate_mode) {
    for (size_t g = 0; g < plan.group_keys.size(); ++g) {
      key_refs[g] = ResolveColumn(plan.group_keys[g]->index, base_width, dims);
      const Schema& schema = key_refs[g].from_base
                                 ? plan.tables[0].info->schema
                                 : dims[key_refs[g].dim].bt->info->schema;
      if (key_refs[g].from_base &&
          schema.Column(key_refs[g].col).type == DataType::kVarchar) {
        base_varchar_key = true;
      }
    }
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      const auto& agg = plan.aggregates[a];
      if (agg.func == sql::AggFunc::kCountStar) continue;
      arg_refs[a] = ResolveColumn(agg.arg->index, base_width, dims);
      const Schema& schema = arg_refs[a].from_base
                                 ? plan.tables[0].info->schema
                                 : dims[arg_refs[a].dim].bt->info->schema;
      if (agg.func == sql::AggFunc::kCount) {
        modes[a] = ArgMode::kCount;
      } else {
        switch (schema.Column(arg_refs[a].col).type) {
          case DataType::kInteger:
            modes[a] = ArgMode::kInt64;
            break;
          case DataType::kDouble:
            modes[a] = ArgMode::kDouble;
            break;
          default:
            modes[a] = ArgMode::kValue;
        }
      }
    }
  }
  const size_t key_base = base_varchar_key ? 1 : 0;

  // ---- Probe phase ------------------------------------------------------
  TraceSpan probe_span(tc, "accel.batch_join_probe");
  probe_span.Attr("mode", aggregate_mode ? "aggregate" : "materialize");

  // Sideways ranges extend zone-map pruning of the probe scan; the
  // compiled per-slice predicate still only covers the plan's own ranges.
  std::vector<ColumnRange> probe_ranges = base_bp.ranges;
  std::vector<const BuildSide*> zone_bloom_dims;
  for (const BuildSide& dim : dims) {
    probe_ranges.insert(probe_ranges.end(), dim.sideways.begin(),
                        dim.sideways.end());
    if (dim.zone_bloom) zone_bloom_dims.push_back(&dim);
  }
  std::atomic<uint64_t> bloom_pruned_zones{0};
  ColumnTable::ZoneFilter zone_filter = [&](const ZoneMap& zm, size_t zone) {
    for (const BuildSide* dim : zone_bloom_dims) {
      Value zmin, zmax;
      bool zone_has_null = false;
      if (!zm.ZoneStatsFor(zone, dim->keys[0].base_column, &zmin, &zmax,
                           &zone_has_null)) {
        continue;
      }
      if (zmin.is_null()) {  // all-NULL keys: inner equi never matches
        bloom_pruned_zones.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      int64_t lo, hi;
      if (!IntFamilyRaw(zmin, &lo) || !IntFamilyRaw(zmax, &hi)) continue;
      // Unsigned span: hi - lo on arbitrary int64 stats can exceed
      // INT64_MAX (signed overflow), and the offset loop sidesteps the
      // ++v overflow when hi == INT64_MAX.
      const uint64_t span =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (hi < lo || span > static_cast<uint64_t>(kZoneBloomSpanLimit)) {
        continue;
      }
      bool any = false;
      for (uint64_t off = 0; off <= span; ++off) {
        uint64_t w = static_cast<uint64_t>(lo) + off;
        if (dim->bloom.MayContain(HashKeyWords(&w, 1))) {
          any = true;
          break;
        }
      }
      if (!any) {
        bloom_pruned_zones.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    return true;
  };
  const ColumnTable::ZoneFilter* zone_filter_ptr =
      zone_bloom_dims.empty() ? nullptr : &zone_filter;

  const std::vector<Morsel> morsels =
      empty_inner ? std::vector<Morsel>() : base->PlanMorsels(batch.morsel_size);
  const size_t num_workers = MorselWorkerCount(pool, morsels.size());

  struct Worker {
    explicit Worker(TransactionManager::VisibilityChecker v)
        : visibility(std::move(v)) {}
    TransactionManager::VisibilityChecker visibility;
    std::vector<uint32_t> sel;
    BatchScanStats stats;
    Status status;
    uint64_t matches = 0;
    uint64_t bloom_rejected = 0;
    // Aggregate mode.
    std::unordered_map<std::vector<uint64_t>, size_t, RawKeyHash> index;
    AggPartial partial;
    std::vector<uint64_t> raw_key;
    // Scratch.
    std::vector<uint32_t> heads;
    std::vector<uint32_t> cur;
    std::vector<uint64_t> kw;
    Row row;
    // Columnar materialize mode: the current batch's output rows as base
    // row positions and per-dimension build rows (kNoRow = left padding).
    std::vector<size_t> base_pos;
    std::vector<std::vector<uint32_t>> dim_pos;
  };
  size_t max_keys = 1;
  for (const BuildSide& dim : dims) {
    max_keys = std::max(max_keys, dim.keys.size());
  }
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    Worker wk(TransactionManager::VisibilityChecker(&tm, reader, snapshot));
    wk.raw_key.resize(key_base + plan.group_keys.size() * 2);
    wk.heads.resize(dims.size());
    wk.cur.resize(dims.size());
    wk.kw.resize(max_keys);
    wk.row.resize(combined_width);
    wk.dim_pos.resize(dims.size());
    workers.push_back(std::move(wk));
  }
  std::vector<std::vector<Row>> morsel_rows(morsels.size());
  std::vector<ColumnarRows> morsel_cols(layout != nullptr ? morsels.size() : 0);
  for (ColumnarRows& out : morsel_cols) {
    out.columns.resize(layout->targets.size());
  }

  auto run = [&](size_t w, size_t mi) {
    Worker& wk = workers[w];
    if (!wk.status.ok()) return;
    const Morsel& m = morsels[mi];
    const BatchScanStats before = wk.stats;
    TraceSpan morsel_span(probe_span.context(), "accel.slice_scan");
    base->ScanMorsel(
        m, probe_ranges, &base_bp.per_slice[m.slice], wk.visibility, &wk.sel,
        &wk.stats,
        [&](const ColumnBatch& b) {
          if (!wk.status.ok()) return;
          const auto& columns = *b.columns;
          // One ascending cursor per base column: probe keys, group keys
          // and aggregate args all read the base side at monotonically
          // non-decreasing i, so encoded zones cost amortized O(1).
          std::vector<ColumnCursor> base_curs;
          base_curs.reserve(columns.size());
          for (const auto& col : columns) base_curs.emplace_back(*col);
          for (size_t k = 0; k < b.sel_count; ++k) {
            const size_t i = b.AbsoluteRow(k);
            // Probe every keyed dimension; an inner miss drops the row,
            // a left-outer miss marks the NULL-padded candidate.
            bool reject = false;
            for (size_t d = 0; d < dims.size() && !reject; ++d) {
              const BuildSide& dim = dims[d];
              const size_t nk = dim.keys.size();
              if (nk == 0) continue;
              bool miss = false;
              for (size_t j = 0; j < nk && !miss; ++j) {
                ColumnCursor& col = base_curs[dim.keys[j].base_column];
                if (col.IsNull(i)) {
                  miss = true;
                } else if (dim.keys[j].type == DataType::kVarchar) {
                  const uint32_t code = col.Code(i);
                  const auto& map = dim.dict_maps[j][m.slice];
                  if (code >= map.size() || map[code] == 0) {
                    miss = true;
                  } else {
                    wk.kw[j] = map[code] - 1;
                  }
                } else {
                  wk.kw[j] = static_cast<uint64_t>(col.Int(i));
                }
              }
              uint32_t head = kNoRow;
              if (!miss) {
                const uint64_t h = HashKeyWords(wk.kw.data(), nk);
                if (!dim.bloom.MayContain(h)) {
                  ++wk.bloom_rejected;
                } else {
                  head = dim.ht.Find(wk.kw.data(), h);
                }
              }
              if (head == kNoRow &&
                  dim.bt->join_type == sql::JoinType::kInner) {
                reject = true;
              }
              wk.heads[d] = head;
            }
            if (reject) continue;

            if (aggregate_mode) {
              // Odometer over the per-dimension duplicate chains; the last
              // dimension varies fastest (JoinIterator nesting order).
              for (size_t d = 0; d < dims.size(); ++d) wk.cur[d] = wk.heads[d];
              bool done = false;
              while (!done) {
                ++wk.matches;
                if (base_varchar_key) wk.raw_key[0] = m.slice;
                for (size_t g = 0; g < plan.group_keys.size(); ++g) {
                  uint64_t* nf = &wk.raw_key[key_base + 2 * g];
                  uint64_t* bits = nf + 1;
                  const ColRef& ref = key_refs[g];
                  if (ref.from_base) {
                    RawKeyOf(base_curs[ref.col], i, nf, bits);
                  } else if (wk.cur[ref.dim] == kNoRow) {
                    *nf = 1;
                    *bits = 0;
                  } else {
                    RawKeyOf(*dims[ref.dim].cols[ref.col], wk.cur[ref.dim], nf,
                             bits);
                  }
                }
                auto it = wk.index.find(wk.raw_key);
                size_t group;
                if (it == wk.index.end()) {
                  group = wk.partial.keys.size();
                  wk.index.emplace(wk.raw_key, group);
                  std::vector<Value> key_values;
                  key_values.reserve(plan.group_keys.size());
                  for (size_t g = 0; g < plan.group_keys.size(); ++g) {
                    const ColRef& ref = key_refs[g];
                    if (ref.from_base) {
                      key_values.push_back(columns[ref.col]->Get(i));
                    } else if (wk.cur[ref.dim] == kNoRow) {
                      key_values.push_back(Value::Null());
                    } else {
                      key_values.push_back(
                          dims[ref.dim].cols[ref.col]->Get(wk.cur[ref.dim]));
                    }
                  }
                  wk.partial.keys.push_back(std::move(key_values));
                  std::vector<sql::AggregateAccumulator> accs;
                  accs.reserve(plan.aggregates.size());
                  for (const auto& agg : plan.aggregates) accs.emplace_back(agg);
                  wk.partial.accumulators.push_back(std::move(accs));
                } else {
                  group = it->second;
                }
                auto& accs = wk.partial.accumulators[group];
                for (size_t a = 0; a < plan.aggregates.size(); ++a) {
                  if (modes[a] == ArgMode::kRow) {
                    accs[a].AccumulateRow();
                    continue;
                  }
                  const ColRef& ref = arg_refs[a];
                  if (ref.from_base) {
                    // Base-side argument at the (ascending) probe row:
                    // read through the cursor so encoded zones stay O(1).
                    ColumnCursor& cur = base_curs[ref.col];
                    const bool is_null = cur.IsNull(i);
                    switch (modes[a]) {
                      case ArgMode::kCount:
                        if (is_null) {
                          accs[a].AccumulateNull();
                        } else {
                          accs[a].AccumulateCountNonNull();
                        }
                        break;
                      case ArgMode::kInt64:
                        if (is_null) {
                          accs[a].AccumulateNull();
                        } else {
                          accs[a].AccumulateInt64(cur.Int(i));
                        }
                        break;
                      case ArgMode::kDouble:
                        if (is_null) {
                          accs[a].AccumulateNull();
                        } else {
                          accs[a].AccumulateDouble(cur.Double(i));
                        }
                        break;
                      default:
                        accs[a].Accumulate(is_null ? Value::Null()
                                                   : cur.Get(i));
                    }
                    continue;
                  }
                  // Dimension-side argument: the build copy lives in the
                  // dst column's hot tail, already flat-array access.
                  const Column* col;
                  size_t r;
                  bool padded = false;
                  if (wk.cur[ref.dim] == kNoRow) {
                    col = nullptr;
                    r = 0;
                    padded = true;
                  } else {
                    col = dims[ref.dim].cols[ref.col].get();
                    r = wk.cur[ref.dim];
                  }
                  const bool is_null = padded || col->IsNull(r);
                  switch (modes[a]) {
                    case ArgMode::kCount:
                      if (is_null) {
                        accs[a].AccumulateNull();
                      } else {
                        accs[a].AccumulateCountNonNull();
                      }
                      break;
                    case ArgMode::kInt64:
                      if (is_null) {
                        accs[a].AccumulateNull();
                      } else {
                        accs[a].AccumulateInt64(col->RawInt(r));
                      }
                      break;
                    case ArgMode::kDouble:
                      if (is_null) {
                        accs[a].AccumulateNull();
                      } else {
                        accs[a].AccumulateDouble(col->RawDouble(r));
                      }
                      break;
                    default:
                      accs[a].Accumulate(is_null ? Value::Null() : col->Get(r));
                  }
                }
                // Advance, last dimension fastest.
                size_t d = dims.size();
                while (true) {
                  if (d == 0) {
                    done = true;
                    break;
                  }
                  --d;
                  if (wk.cur[d] != kNoRow) {
                    const uint32_t nxt = dims[d].ht.NextMatch(wk.cur[d]);
                    if (nxt != kNoRow) {
                      wk.cur[d] = nxt;
                      break;
                    }
                  }
                  wk.cur[d] = wk.heads[d];
                }
              }
            } else {
              // Materialize mode: late-materialize survivors into combined
              // rows, replicating JoinIterator chaining exactly (residual
              // conjuncts per candidate, left-pad when none pass, WHERE on
              // the full combined row). Writing into an INSERT target, each
              // survivor instead records its source rows and appends its
              // expression items.
              Row& row = wk.row;
              for (size_t c = 0; c < base_width; ++c) {
                if (row_cols[c]) row[c] = base_curs[c].Get(i);
              }
              std::function<void(size_t)> expand = [&](size_t d) {
                if (!wk.status.ok()) return;
                if (d == dims.size()) {
                  ++wk.matches;
                  if (plan.where) {
                    auto pass = sql::EvalPredicate(*plan.where, row);
                    if (!pass.ok()) {
                      wk.status = pass.status();
                      return;
                    }
                    if (!*pass) return;
                  }
                  if (layout == nullptr) {
                    morsel_rows[mi].push_back(row);
                    return;
                  }
                  wk.base_pos.push_back(i);
                  for (size_t dd = 0; dd < dims.size(); ++dd) {
                    wk.dim_pos[dd].push_back(wk.cur[dd]);
                  }
                  if (layout->has_exprs) {
                    wk.status = AppendExprCells(*layout, row, &morsel_cols[mi]);
                  }
                  return;
                }
                const BuildSide& dim = dims[d];
                const bool keyed = !dim.keys.empty();
                bool matched = false;
                uint32_t r = keyed ? wk.heads[d]
                                   : (dim.num_rows > 0 ? 0 : kNoRow);
                while (r != kNoRow && wk.status.ok()) {
                  for (size_t c = 0; c < dim.width; ++c) {
                    if (row_cols[dim.offset + c]) {
                      row[dim.offset + c] = dim.cols[c]->Get(r);
                    }
                  }
                  wk.cur[d] = r;
                  bool pass = true;
                  for (const sql::BoundExpr* pred : dim.residual) {
                    auto p = sql::EvalPredicate(*pred, row);
                    if (!p.ok()) {
                      wk.status = p.status();
                      return;
                    }
                    if (!*p) {
                      pass = false;
                      break;
                    }
                  }
                  if (pass) {
                    matched = true;
                    expand(d + 1);
                  }
                  r = keyed ? dim.ht.NextMatch(r)
                            : (r + 1 < dim.num_rows ? r + 1 : kNoRow);
                }
                if (!matched && dim.bt->join_type == sql::JoinType::kLeft) {
                  for (size_t c = 0; c < dim.width; ++c) {
                    if (row_cols[dim.offset + c]) {
                      row[dim.offset + c] = Value::Null();
                    }
                  }
                  wk.cur[d] = kNoRow;
                  expand(d + 1);
                }
              };
              expand(0);
              if (!wk.status.ok()) return;
            }
          }
          if (layout != nullptr) {
            GatherJoinBatch(*layout, base_width, dims, base_curs,
                            &wk.base_pos, &wk.dim_pos, &morsel_cols[mi]);
          }
        },
        zone_filter_ptr);
    RecordMorselSpan(morsel_span, m, before, wk.stats);
  };
  if (pool != nullptr && morsels.size() > 1) {
    pool->ParallelForDynamic(morsels.size(), num_workers, run);
  } else {
    for (size_t mi = 0; mi < morsels.size(); ++mi) run(0, mi);
  }

  BatchScanStats total;
  uint64_t total_matches = 0, total_bloom_rejected = 0;
  std::vector<AggPartial> partials;
  partials.reserve(workers.size());
  for (Worker& wk : workers) {
    IDAA_RETURN_IF_ERROR(wk.status);
    total.Merge(wk.stats);
    total_matches += wk.matches;
    total_bloom_rejected += wk.bloom_rejected;
    partials.push_back(std::move(wk.partial));
  }
  AddScanMetrics(metrics, total);
  RecordBatchAttrs(probe_span, total);
  if (empty_inner) probe_span.Attr("short_circuit", "empty_build");
  probe_span.Attr("matches", total_matches);
  probe_span.Attr("bloom_rejected_rows", total_bloom_rejected);
  probe_span.Attr("bloom_pruned_zones",
                  bloom_pruned_zones.load(std::memory_order_relaxed));
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  total.rows_selected > 0
                      ? static_cast<double>(total_matches) / total.rows_selected
                      : 0.0);
    probe_span.Attr("match_selectivity", buf);
  }
  probe_span.End();

  TraceSpan merge_span(tc, "accel.coordinator_merge");
  if (aggregate_mode) {
    IDAA_ASSIGN_OR_RETURN(AggPartial merged, MergeAggPartialsRaw(&partials));
    merge_span.Attr("groups", static_cast<uint64_t>(merged.keys.size()));
    if (partial != nullptr) {
      *partial = std::move(merged);
      return true;
    }
    IDAA_ASSIGN_OR_RETURN(std::vector<Row> post,
                          FinalizeAggPartial(plan, std::move(merged)));
    IDAA_ASSIGN_OR_RETURN(*result, exec::FinalizeSelect(plan, std::move(post)));
    return true;
  }
  if (layout != nullptr) {
    uint64_t rows = 0;
    for (ColumnarRows& out : morsel_cols) {
      FinishColumnar(*layout, out.num_rows, &out);
      rows += out.num_rows;
      columnar->push_back(std::move(out));
    }
    merge_span.Attr("rows", rows);
    return true;
  }
  std::vector<Row> combined;
  size_t total_rows = 0;
  for (const auto& rows : morsel_rows) total_rows += rows.size();
  combined.reserve(total_rows);
  for (auto& rows : morsel_rows) {
    combined.insert(combined.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  merge_span.Attr("rows", static_cast<uint64_t>(combined.size()));
  IDAA_ASSIGN_OR_RETURN(*result, exec::FinishSelect(plan, std::move(combined)));
  return true;
}

}  // namespace

Result<std::optional<ResultSet>> TryBatchJoin(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc, const BatchOptions& batch) {
  ResultSet result;
  IDAA_ASSIGN_OR_RETURN(bool done,
                        RunBatchJoin(plan, resolver, reader, snapshot, tm,
                                     pool, metrics, tc, batch, &result,
                                     nullptr));
  if (!done) return std::optional<ResultSet>();
  return std::optional<ResultSet>(std::move(result));
}

Result<std::optional<AggPartial>> TryBatchJoinPartial(
    const sql::BoundSelect& plan, const AccelTableResolver& resolver,
    TxnId reader, Csn snapshot, const TransactionManager& tm, ThreadPool* pool,
    MetricsRegistry* metrics, TraceContext tc, const BatchOptions& batch) {
  AggPartial partial;
  IDAA_ASSIGN_OR_RETURN(bool done,
                        RunBatchJoin(plan, resolver, reader, snapshot, tm,
                                     pool, metrics, tc, batch, nullptr,
                                     &partial));
  if (!done) return std::optional<AggPartial>();
  return std::optional<AggPartial>(std::move(partial));
}

Result<std::optional<std::vector<ColumnarRows>>> TryBatchJoinInto(
    const sql::BoundSelect& plan, const InsertLayout& layout,
    const AccelTableResolver& resolver, TxnId reader, Csn snapshot,
    const TransactionManager& tm, ThreadPool* pool, MetricsRegistry* metrics,
    TraceContext tc, const BatchOptions& batch) {
  std::vector<ColumnarRows> batches;
  IDAA_ASSIGN_OR_RETURN(bool done,
                        RunBatchJoin(plan, resolver, reader, snapshot, tm,
                                     pool, metrics, tc, batch, nullptr,
                                     nullptr, &layout, &batches));
  if (!done) return std::optional<std::vector<ColumnarRows>>();
  return std::optional<std::vector<ColumnarRows>>(std::move(batches));
}

}  // namespace idaa::accel
