// RowStore: the DB2-side storage engine. A classic slotted row layout is
// simulated as an RID-addressed vector of tuples per table. Reads under
// cursor stability see the latest committed state (the engine layer holds
// locks; the store itself is versioning-free, unlike the accelerator).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"

namespace idaa::db2 {

/// One stored tuple.
struct StoredRow {
  uint64_t rid = 0;
  Row values;
  bool deleted = false;  ///< tombstone; RIDs stay stable
};

/// Storage for one table. If the first column is a NOT NULL INTEGER, a
/// hash index on it is maintained automatically (the implicit primary-key
/// index that gives DB2 its OLTP point-lookup strength).
class StoredTable {
 public:
  explicit StoredTable(Schema schema) : schema_(std::move(schema)) {
    has_index_ = schema_.NumColumns() > 0 &&
                 schema_.Column(0).type == DataType::kInteger &&
                 !schema_.Column(0).nullable;
  }

  const Schema& schema() const { return schema_; }

  bool has_index() const { return has_index_; }

  /// RIDs of live rows whose first column equals `key` (empty if no index
  /// or no match).
  std::vector<uint64_t> IndexLookup(const Value& key) const;

  /// Append a row, returns its RID. Row must match the schema.
  Result<uint64_t> Insert(Row row);

  /// Re-insert a row under a previously assigned RID (undo of delete).
  Status Undelete(uint64_t rid);

  /// Overwrite the values of a live row.
  Status Update(uint64_t rid, Row row);

  /// Tombstone a live row.
  Status Delete(uint64_t rid);

  /// Fetch a live row.
  Result<Row> Get(uint64_t rid) const;

  /// All live rows (with RIDs). The caller owns the copy — a statement-level
  /// stable scan under the table's S lock.
  std::vector<StoredRow> ScanLive() const;

  /// The live rows `keep` accepts, tested in place so only they are
  /// copied (searched UPDATE/DELETE). `*examined` receives the number of
  /// live rows tested; the first error `keep` returns ends the scan.
  Result<std::vector<StoredRow>> ScanLiveWhere(
      const std::function<Result<bool>(const Row&)>& keep,
      size_t* examined) const;

  size_t NumLiveRows() const;
  size_t NumSlots() const { return rows_.size(); }

 private:
  Result<size_t> SlotOf(uint64_t rid) const;
  void IndexErase(int64_t key, uint64_t rid);

  Schema schema_;
  uint64_t next_rid_ = 1;
  std::vector<StoredRow> rows_;
  bool has_index_ = false;
  std::unordered_multimap<int64_t, uint64_t> index_;  // col0 value -> rid
};

/// All DB2-resident tables, keyed by catalog table id.
class RowStore {
 public:
  Status CreateTable(uint64_t table_id, const Schema& schema);
  Status DropTable(uint64_t table_id);
  Result<StoredTable*> GetTable(uint64_t table_id);
  Result<const StoredTable*> GetTable(uint64_t table_id) const;
  bool HasTable(uint64_t table_id) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<StoredTable>> tables_;
};

}  // namespace idaa::db2
