#include "db2/row_store.h"

namespace idaa::db2 {

Result<uint64_t> StoredTable::Insert(Row row) {
  IDAA_RETURN_IF_ERROR(schema_.ValidateRow(row));
  StoredRow stored;
  stored.rid = next_rid_++;
  stored.values = std::move(row);
  if (has_index_) {
    index_.emplace(stored.values[0].AsInteger(), stored.rid);
  }
  rows_.push_back(std::move(stored));
  return rows_.back().rid;
}

std::vector<uint64_t> StoredTable::IndexLookup(const Value& key) const {
  std::vector<uint64_t> rids;
  if (!has_index_ || key.is_null()) return rids;
  auto as_int = key.CastTo(DataType::kInteger);
  if (!as_int.ok()) return rids;
  auto [begin, end] = index_.equal_range(as_int->AsInteger());
  for (auto it = begin; it != end; ++it) {
    size_t slot = static_cast<size_t>(it->second - 1);
    if (!rows_[slot].deleted) rids.push_back(it->second);
  }
  return rids;
}

void StoredTable::IndexErase(int64_t key, uint64_t rid) {
  auto [begin, end] = index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      index_.erase(it);
      return;
    }
  }
}

Result<size_t> StoredTable::SlotOf(uint64_t rid) const {
  // RIDs are dense and start at 1; the slot index is rid-1.
  if (rid == 0 || rid > rows_.size() || rows_[rid - 1].rid != rid) {
    return Status::NotFound("RID not found: " + std::to_string(rid));
  }
  return static_cast<size_t>(rid - 1);
}

Status StoredTable::Undelete(uint64_t rid) {
  IDAA_ASSIGN_OR_RETURN(size_t slot, SlotOf(rid));
  rows_[slot].deleted = false;
  return Status::OK();
}

Status StoredTable::Update(uint64_t rid, Row row) {
  IDAA_RETURN_IF_ERROR(schema_.ValidateRow(row));
  IDAA_ASSIGN_OR_RETURN(size_t slot, SlotOf(rid));
  if (rows_[slot].deleted) {
    return Status::NotFound("row was deleted: " + std::to_string(rid));
  }
  if (has_index_) {
    int64_t old_key = rows_[slot].values[0].AsInteger();
    int64_t new_key = row[0].AsInteger();
    if (old_key != new_key) {
      IndexErase(old_key, rid);
      index_.emplace(new_key, rid);
    }
  }
  rows_[slot].values = std::move(row);
  return Status::OK();
}

Status StoredTable::Delete(uint64_t rid) {
  IDAA_ASSIGN_OR_RETURN(size_t slot, SlotOf(rid));
  if (rows_[slot].deleted) {
    return Status::NotFound("row already deleted: " + std::to_string(rid));
  }
  rows_[slot].deleted = true;
  return Status::OK();
}

Result<Row> StoredTable::Get(uint64_t rid) const {
  IDAA_ASSIGN_OR_RETURN(size_t slot, SlotOf(rid));
  if (rows_[slot].deleted) {
    return Status::NotFound("row was deleted: " + std::to_string(rid));
  }
  return rows_[slot].values;
}

std::vector<StoredRow> StoredTable::ScanLive() const {
  std::vector<StoredRow> out;
  out.reserve(rows_.size());
  for (const StoredRow& r : rows_) {
    if (!r.deleted) out.push_back(r);
  }
  return out;
}

Result<std::vector<StoredRow>> StoredTable::ScanLiveWhere(
    const std::function<Result<bool>(const Row&)>& keep,
    size_t* examined) const {
  std::vector<StoredRow> out;
  *examined = 0;
  for (const StoredRow& r : rows_) {
    if (r.deleted) continue;
    ++*examined;
    IDAA_ASSIGN_OR_RETURN(bool pass, keep(r.values));
    if (pass) out.push_back(r);
  }
  return out;
}

size_t StoredTable::NumLiveRows() const {
  size_t count = 0;
  for (const StoredRow& r : rows_) {
    if (!r.deleted) ++count;
  }
  return count;
}

Status RowStore::CreateTable(uint64_t table_id, const Schema& schema) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(table_id)) {
    return Status::AlreadyExists("table id already exists: " +
                                 std::to_string(table_id));
  }
  tables_[table_id] = std::make_unique<StoredTable>(schema);
  return Status::OK();
}

Status RowStore::DropTable(uint64_t table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tables_.erase(table_id)) {
    return Status::NotFound("table id not found: " + std::to_string(table_id));
  }
  return Status::OK();
}

Result<StoredTable*> RowStore::GetTable(uint64_t table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound("table id not found: " + std::to_string(table_id));
  }
  return it->second.get();
}

Result<const StoredTable*> RowStore::GetTable(uint64_t table_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound("table id not found: " + std::to_string(table_id));
  }
  return const_cast<const StoredTable*>(it->second.get());
}

bool RowStore::HasTable(uint64_t table_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(table_id) > 0;
}

}  // namespace idaa::db2
