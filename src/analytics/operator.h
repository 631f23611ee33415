// In-database analytics framework (paper §3): arbitrary analytics operators
// are deployed on the accelerator and invoked through DB2 CALL statements.
// DB2 keeps governance: the caller needs EXECUTE on the procedure and
// SELECT on the operator's input tables; everything is audited. Operators
// read accelerator-resident tables (replicas or AOTs) and materialize their
// results as new AOTs — so multi-stage mining pipelines never leave the
// accelerator.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/trace.h"
#include "txn/transaction_manager.h"

namespace idaa::analytics {

class AnalyticsInput;

/// Operator parameters, parsed from CALL arguments of the form 'key=value'.
using ParamMap = std::map<std::string, std::string>;

/// Parse CALL argument values ('key=value' strings) into a ParamMap.
Result<ParamMap> ParseParams(const std::vector<Value>& args);

/// Typed parameter accessors (kNotFound when absent and no default given).
Result<std::string> GetParam(const ParamMap& params, const std::string& key);
std::string GetParamOr(const ParamMap& params, const std::string& key,
                       const std::string& fallback);
Result<int64_t> GetIntParam(const ParamMap& params, const std::string& key,
                            int64_t fallback);
Result<double> GetDoubleParam(const ParamMap& params, const std::string& key,
                              double fallback);

/// Execution environment handed to an operator: accelerator-side reads and
/// AOT materialization, all inside the caller's DB2 transaction context.
class AnalyticsContext {
 public:
  AnalyticsContext(Catalog* catalog, accel::Accelerator* accelerator,
                   TransactionManager* tm, Transaction* txn,
                   MetricsRegistry* metrics)
      : catalog_(catalog), accelerator_(accelerator), tm_(tm), txn_(txn),
        metrics_(metrics) {}

  Catalog* catalog() { return catalog_; }
  accel::Accelerator* accelerator() { return accelerator_; }
  Transaction* txn() { return txn_; }
  MetricsRegistry* metrics() { return metrics_; }

  /// Open an accelerator-resident table as a pinned, morsel-parallel batch
  /// input (see AnalyticsInput) — the operators' only way to read their
  /// input. Errors if the table is not on the accelerator. The input holds
  /// the table's scan pin until destroyed, so GROOM cannot reclaim rows
  /// mid-model-fit; operators must release the input before recreating an
  /// AOT of the same name.
  Result<std::unique_ptr<AnalyticsInput>> OpenInput(const std::string& name);

  /// Trace context the hosting CALL threads through the operator; spans
  /// created under it appear in EXPLAIN ANALYZE with per-morsel timings.
  void set_trace(TraceContext tc) { trace_ = tc; }
  TraceContext trace() const { return trace_; }

  ThreadPool* thread_pool() { return accelerator_->thread_pool(); }

  /// Schema of a table.
  Result<Schema> TableSchema(const std::string& name) const;

  /// Create an output AOT (catalog proxy + accelerator storage). The name
  /// is recorded in created_tables() so the caller can grant privileges.
  Status CreateAot(const std::string& name, const Schema& schema);

  /// Append rows to an accelerator table under the current transaction.
  Status AppendRows(const std::string& name, const std::vector<Row>& rows);

  /// Columnar fast path for large outputs: appends staged
  /// column vectors without materializing Row/Value objects. Stored state
  /// is identical to AppendRows of the equivalent rows.
  Status AppendColumnar(const std::string& name,
                        const accel::ColumnarRows& rows);

  /// Drop-and-recreate helper for idempotent operator reruns.
  Status RecreateAot(const std::string& name, const Schema& schema);

  const std::vector<std::string>& created_tables() const {
    return created_tables_;
  }

 private:
  Catalog* catalog_;
  accel::Accelerator* accelerator_;
  TransactionManager* tm_;
  Transaction* txn_;
  MetricsRegistry* metrics_;
  std::vector<std::string> created_tables_;
  TraceContext trace_;
};

/// Base class of deployable analytics operators.
class AnalyticsOperator {
 public:
  virtual ~AnalyticsOperator() = default;

  /// Procedure name (without the IDAA. prefix), e.g. "KMEANS".
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Tables the operator will read for these parameters — the governance
  /// layer checks SELECT on each before Run() is allowed.
  virtual Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const = 0;

  /// Execute; returns a summary result set (model metrics etc.). Output
  /// data tables are materialized as AOTs via the context.
  virtual Result<ResultSet> Run(AnalyticsContext& ctx,
                                const ParamMap& params) = 0;
};

// -- shared helpers for the concrete operators ------------------------------

/// Resolve comma-separated column names against a schema.
Result<std::vector<size_t>> ResolveColumns(const Schema& schema,
                                           const std::string& comma_list);

/// kInvalidArgument "column X is not numeric" when a selected column is
/// VARCHAR. Operators check their feature columns with it before any
/// chunk work, so no kernel ever meets a non-numeric value.
Status CheckNumericColumns(const Schema& schema,
                           const std::vector<size_t>& columns);

}  // namespace idaa::analytics
