#include "analytics/operator.h"

#include "common/string_util.h"

namespace idaa::analytics {

Result<ParamMap> ParseParams(const std::vector<Value>& args) {
  ParamMap out;
  for (const Value& arg : args) {
    if (!arg.is_varchar()) {
      return Status::InvalidArgument(
          "analytics procedures take 'key=value' string arguments, got: " +
          arg.ToString());
    }
    const std::string& text = arg.AsVarchar();
    size_t eq = text.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed parameter (expected key=value): " +
                                     text);
    }
    out[ToLower(Trim(text.substr(0, eq)))] = Trim(text.substr(eq + 1));
  }
  return out;
}

Result<std::string> GetParam(const ParamMap& params, const std::string& key) {
  auto it = params.find(key);
  if (it == params.end()) {
    return Status::InvalidArgument("missing required parameter: " + key);
  }
  return it->second;
}

std::string GetParamOr(const ParamMap& params, const std::string& key,
                       const std::string& fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

Result<int64_t> GetIntParam(const ParamMap& params, const std::string& key,
                            int64_t fallback) {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    return static_cast<int64_t>(std::stoll(it->second));
  } catch (...) {
    return Status::InvalidArgument("parameter " + key +
                                   " is not an integer: " + it->second);
  }
}

Result<double> GetDoubleParam(const ParamMap& params, const std::string& key,
                              double fallback) {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return Status::InvalidArgument("parameter " + key +
                                   " is not a number: " + it->second);
  }
}

Result<Schema> AnalyticsContext::TableSchema(const std::string& name) const {
  IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(name));
  return info->schema;
}

Status AnalyticsContext::CreateAot(const std::string& name,
                                   const Schema& schema) {
  TableInfo info;
  info.name = name;
  info.schema = schema;
  info.kind = TableKind::kAcceleratorOnly;
  info.accelerator_name = accelerator_->name();
  IDAA_ASSIGN_OR_RETURN(uint64_t id, catalog_->CreateTable(info));
  (void)id;
  IDAA_ASSIGN_OR_RETURN(const TableInfo* stored, catalog_->GetTable(name));
  Status status = accelerator_->AddTable(*stored);
  if (!status.ok()) {
    (void)catalog_->DropTable(name);
    return status;
  }
  created_tables_.push_back(stored->name);
  return Status::OK();
}

Status AnalyticsContext::RecreateAot(const std::string& name,
                                     const Schema& schema) {
  if (catalog_->HasTable(name)) {
    IDAA_ASSIGN_OR_RETURN(const TableInfo* info, catalog_->GetTable(name));
    if (info->kind != TableKind::kAcceleratorOnly) {
      return Status::InvalidArgument("output table " + info->name +
                                     " exists and is not accelerator-only");
    }
    IDAA_RETURN_IF_ERROR(accelerator_->RemoveTable(name));
    IDAA_RETURN_IF_ERROR(catalog_->DropTable(name));
  }
  return CreateAot(name, schema);
}

Status AnalyticsContext::AppendRows(const std::string& name,
                                    const std::vector<Row>& rows) {
  return accelerator_->LoadRows(name, rows, txn_->id());
}

Status AnalyticsContext::AppendColumnar(const std::string& name,
                                        const accel::ColumnarRows& rows) {
  return accelerator_->LoadColumnar(name, rows, txn_->id());
}

Result<std::vector<size_t>> ResolveColumns(const Schema& schema,
                                           const std::string& comma_list) {
  std::vector<size_t> out;
  for (const std::string& raw : Split(comma_list, ',')) {
    std::string name = Trim(raw);
    if (name.empty()) continue;
    IDAA_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    out.push_back(idx);
  }
  if (out.empty()) {
    return Status::InvalidArgument("empty column list: '" + comma_list + "'");
  }
  return out;
}

Status CheckNumericColumns(const Schema& schema,
                           const std::vector<size_t>& columns) {
  for (size_t c : columns) {
    if (schema.Column(c).type == DataType::kVarchar) {
      return Status::InvalidArgument("column " + schema.Column(c).name +
                                     " is not numeric");
    }
  }
  return Status::OK();
}

}  // namespace idaa::analytics
