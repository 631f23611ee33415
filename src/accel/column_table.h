// ColumnTable: one accelerator-resident table — hash-distributed across
// data slices, columnar within each slice, versioned with per-row
// createxid/deletexid transaction ids exactly like Netezza's storage model.
// Visibility is decided by TransactionManager::IsVisible, which implements
// the paper's requirement: snapshot isolation for other transactions plus
// read-your-own-uncommitted-writes for the DB2 transaction that issued the
// statement.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "accel/batch.h"
#include "accel/column.h"
#include "accel/columnar_insert.h"
#include "accel/zone_map.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"
#include "sql/binder.h"
#include "txn/transaction_manager.h"

namespace idaa::accel {

/// Tuning knobs of the simulated appliance.
struct AcceleratorOptions {
  size_t num_slices = 4;      ///< parallel data slices (SPU equivalents)
  size_t zone_size = 1024;    ///< rows per zone-map extent
  bool enable_zone_maps = true;
  size_t num_threads = 4;     ///< worker threads for slice parallelism
  size_t morsel_size = kDefaultMorselSize;  ///< rows per scan morsel
  /// Per-zone compressed encodings (RLE / FOR-bitpack / null bitmaps),
  /// applied by GROOM to full zones while the hot tail stays uncompressed.
  /// Logical results are identical either way; when off, future GROOMs
  /// stop compacting (and rebuilds decompact, since rebuilt slices start
  /// raw).
  bool enable_encoding = true;
};

/// Result of a groom (space reclamation) pass.
struct GroomStats {
  size_t rows_examined = 0;
  size_t rows_reclaimed = 0;
  size_t zones_compacted = 0;  ///< zones newly encoded by this pass
};

/// Table-wide encoding summary (EXPLAIN attrs, compression bench).
struct TableEncodingStats {
  ColumnEncodingStats columns;  ///< summed over slices × columns
  size_t hot_rows = 0;          ///< row versions still in the raw hot tail
  uint64_t compaction_epoch = 0;
};

class ColumnTable {
 public:
  ColumnTable(Schema schema, std::optional<size_t> distribution_column,
              const AcceleratorOptions& options);

  const Schema& schema() const { return schema_; }
  size_t num_slices() const { return slices_.size(); }

  /// Append rows with createxid = txn (uncommitted until the transaction
  /// manager publishes the commit).
  Status Insert(const std::vector<Row>& rows, TxnId txn);

  /// Columnar bulk append of `batches`, in order: same transactional
  /// semantics and identical stored state as Insert() of the equivalent
  /// rows, but values move straight from the staged column vectors into
  /// the column arrays — no Row materialization or per-cell Value boxing on
  /// the hot path. Every batch is validated (ValidateColumnar) before any
  /// row is appended, so a failed call appends nothing.
  Status InsertColumnar(std::span<const ColumnarRows> batches, TxnId txn);
  Status InsertColumnar(const ColumnarRows& rows, TxnId txn) {
    return InsertColumnar(std::span<const ColumnarRows>(&rows, 1), txn);
  }

  /// Mark all rows visible to `txn` that satisfy `predicate` (nullable) as
  /// deleted by `txn`. Snapshot-isolation first-writer-wins: deleting a row
  /// already deleted by a concurrent or newer-committed transaction fails
  /// with kConflict.
  Result<size_t> DeleteWhere(const sql::BoundExpr* predicate, TxnId txn,
                             Csn snapshot, const TransactionManager& tm);

  /// Delete the first row visible to `txn` whose values equal `image`
  /// (storage equality; NULL matches NULL). Used by replication apply,
  /// where full-row images identify rows content-wise. Returns whether a
  /// row was found.
  Result<bool> DeleteOneMatching(const Row& image, TxnId txn, Csn snapshot,
                                 const TransactionManager& tm);

  /// Update = delete old version + insert new version in one pass.
  Result<size_t> UpdateWhere(
      const std::vector<std::pair<size_t, const sql::BoundExpr*>>& assignments,
      const sql::BoundExpr* predicate, TxnId txn, Csn snapshot,
      const TransactionManager& tm);

  /// Rows visible to (reader, snapshot) across all slices (no predicate).
  Result<size_t> CountVisible(TxnId reader, Csn snapshot,
                              const TransactionManager& tm) const;

  // ---- Morsel-driven scan interface -------------------------------------

  const AcceleratorOptions& options() const { return options_; }

  /// Pin the physical layout for a multi-acquisition scan: while held,
  /// Groom cannot rebuild slices (which would shift row indexes), but
  /// writers still append and mark deletes freely. Scans that release and
  /// re-take the data lock between morsels must hold a pin for their whole
  /// duration. Lock order: groom pin before the data lock, always.
  std::shared_lock<std::shared_mutex> PinForScan() const {
    return std::shared_lock<std::shared_mutex>(groom_mu_);
  }

  /// Split every slice's current rows into zone-aligned morsels of about
  /// `morsel_size` rows, in slice order (so morsel-order concatenation
  /// equals slice-order concatenation). Rows appended after planning are
  /// not covered — they postdate the scan snapshot.
  std::vector<Morsel> PlanMorsels(size_t morsel_size) const;

  /// Compile `ranges` against one slice's dictionaries (codes are
  /// slice-local).
  BatchPredicate CompilePredicateForSlice(
      size_t slice_index, const std::vector<ColumnRange>& ranges) const;

  /// Scan one morsel: bulk visibility over createxid/deletexid, zone-map
  /// pruning, compiled predicate column-at-a-time, then hand the surviving
  /// selection to `consumer` as a ColumnBatch. The data lock is held only
  /// for the duration of this call (callers hold a PinForScan across the
  /// whole morsel loop); `sel` is caller-owned scratch so workers reuse
  /// the allocation across morsels.
  using BatchConsumer = std::function<void(const ColumnBatch& batch)>;
  /// `zone_filter` (optional) is an extra zone-granular pruning hook
  /// consulted after the range-based zone-map check: return false to skip
  /// the zone (sideways information passing, e.g. join-key Bloom filters).
  /// It must be conservative — pruning a zone that could match is a
  /// correctness bug, keeping one that cannot is only a missed skip.
  using ZoneFilter = std::function<bool(const ZoneMap& zone_map, size_t zone)>;
  void ScanMorsel(const Morsel& morsel, const std::vector<ColumnRange>& ranges,
                  const BatchPredicate* predicate,
                  const TransactionManager::VisibilityChecker& visibility,
                  std::vector<uint32_t>* sel, BatchScanStats* stats,
                  const BatchConsumer& consumer,
                  const ZoneFilter* zone_filter = nullptr) const;

  /// Translate the slice-local dictionary codes of VARCHAR `column` in
  /// slice `slice_index` into 1-based codes of `target` (0 = the string
  /// does not occur in `target`). Used by the batch join to compare
  /// dictionary codes instead of strings across tables.
  std::vector<uint32_t> MapDictionaryCodes(size_t slice_index, size_t column,
                                           const Column& target) const;

  /// Reclaim rows whose deletion committed at csn <= horizon and rows
  /// created by aborted transactions; clears aborted deletexids. When
  /// encoding is enabled, every full zone of the surviving data is then
  /// compacted into its per-zone encoding (chosen from zone stats) — the
  /// hot tail past the last full zone stays uncompressed, and zone-map
  /// extrema are observed from the pre-encoding raw values during the
  /// rebuild so pruning bounds stay exact.
  GroomStats Groom(Csn horizon, const TransactionManager& tm);

  /// Runtime toggle for GROOM-time compaction (mirrors the table-level
  /// effect of AcceleratorOptions::enable_encoding). Takes effect at the
  /// next Groom; already-encoded zones keep decoding transparently.
  void SetEncodingEnabled(bool enabled) {
    encoding_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool encoding_enabled() const {
    return encoding_enabled_.load(std::memory_order_relaxed);
  }

  /// Bumped by every Groom pass that newly encodes at least one zone:
  /// cached results computed against the pre-compaction layout are
  /// invalidated on the bump (physical layout changed; logical content did
  /// not, but row order within rebuilt slices may have).
  uint64_t compaction_epoch() const {
    return compaction_epoch_.load(std::memory_order_acquire);
  }

  TableEncodingStats EncodingStats() const;

  /// Total stored row versions (live + not yet groomed).
  size_t NumVersions() const;

  /// Physical-layout fingerprint of one slice: every stored row version in
  /// storage order, values rendered with NULLs marked, independent of
  /// transaction ids. Two tables loaded with the same data are physically
  /// identical iff all slice fingerprints match — the loader's
  /// bit-identical-across-worker-counts tests assert exactly this.
  std::string SliceContentString(size_t slice_index) const;

  /// Approximate compressed bytes across all slices.
  size_t ByteSize() const;

 private:
  struct Slice {
    std::vector<std::unique_ptr<Column>> columns;
    std::vector<TxnId> createxid;
    std::vector<TxnId> deletexid;
    ZoneMap zone_map;

    Slice(const Schema& schema, size_t zone_size);
    size_t NumRows() const { return createxid.size(); }
    /// Pre-size all per-row arrays for `n` total rows (bulk ingest).
    void Reserve(size_t n);
    Status Append(const Row& row, TxnId txn);
    Row MaterializeRow(size_t i) const;
  };

  size_t SliceFor(const Row& row);

  Schema schema_;
  std::optional<size_t> distribution_column_;
  AcceleratorOptions options_;
  // Two-level locking: mu_ protects all per-slice data and is held only
  // briefly (per zone / per morsel) by scans so writers interleave;
  // groom_mu_ is taken shared by scans for their whole duration (PinForScan)
  // and unique by Groom, whose slice rebuilds shift row indexes. Order:
  // groom_mu_ then mu_.
  mutable std::shared_mutex groom_mu_;
  mutable std::shared_mutex mu_;
  std::vector<Slice> slices_;
  size_t round_robin_next_ = 0;
  std::atomic<bool> encoding_enabled_{true};
  std::atomic<uint64_t> compaction_epoch_{0};
};

}  // namespace idaa::accel
