#include "idaa/connection.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "common/string_util.h"
#include "federation/router.h"
#include "idaa/system.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace idaa {

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

Status PreparedStatement::Bind(std::vector<Value> params) {
  if (conn_ == nullptr) {
    return Status::InvalidArgument("prepared statement is not initialized");
  }
  size_t expected = num_params();
  if (params.size() != expected) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(expected) +
        " parameter markers but " + std::to_string(params.size()) +
        " values were bound");
  }
  params_ = std::move(params);
  bound_ = true;
  return Status::OK();
}

Result<federation::StatementResult> PreparedStatement::Execute(
    const federation::ExecOptions& opts) {
  if (conn_ == nullptr) {
    return Status::InvalidArgument("prepared statement is not initialized");
  }
  if (num_params() > 0 && !bound_) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(num_params()) +
        " parameter markers; call Bind() before Execute()");
  }
  uint64_t boundary_bytes = 0;
  IDAA_ASSIGN_OR_RETURN(federation::ExecResult result,
                        conn_->ExecutePrepared(*this, opts, &boundary_bytes));
  return Connection::ToStatementResult(std::move(result), boundary_bytes);
}

Result<federation::StatementResult> PreparedStatement::Execute(
    std::vector<Value> params, const federation::ExecOptions& opts) {
  IDAA_RETURN_IF_ERROR(Bind(std::move(params)));
  return Execute(opts);
}

// ---------------------------------------------------------------------------
// Connection: lifecycle + transaction control
// ---------------------------------------------------------------------------

Connection::Connection(IdaaSystem* system, federation::Session session)
    : system_(system), session_(std::move(session)) {}

Connection::~Connection() {
  if (txn_ != nullptr && txn_->IsActive()) {
    (void)system_->txn_manager().Abort(txn_);
    system_->db2().lock_manager().ReleaseAll(txn_->id());
  }
}

Status Connection::Begin() {
  if (explicit_txn_) {
    return Status::InvalidArgument("transaction already open");
  }
  txn_ = system_->txn_manager().Begin();
  explicit_txn_ = true;
  pending_invalidations_.clear();
  return Status::OK();
}

Status Connection::Commit() {
  if (!explicit_txn_) {
    return Status::InvalidArgument("no open transaction");
  }
  Transaction* txn = txn_;
  txn_ = nullptr;
  explicit_txn_ = false;
  Status status = system_->txn_manager().Commit(txn);
  system_->db2().lock_manager().ReleaseAll(txn->id());
  if (status.ok() && !pending_invalidations_.empty()) {
    system_->wlm().result_cache().InvalidateTables(pending_invalidations_);
  }
  pending_invalidations_.clear();
  return status;
}

Status Connection::Rollback() {
  if (!explicit_txn_) {
    return Status::InvalidArgument("no open transaction");
  }
  Transaction* txn = txn_;
  txn_ = nullptr;
  explicit_txn_ = false;
  pending_invalidations_.clear();
  Status status = system_->txn_manager().Abort(txn);
  system_->db2().lock_manager().ReleaseAll(txn->id());
  return status;
}

void Connection::EndAutoTxn(Transaction* txn, bool success) {
  if (success) {
    (void)system_->txn_manager().Commit(txn);
  } else {
    (void)system_->txn_manager().Abort(txn);
  }
  system_->db2().lock_manager().ReleaseAll(txn->id());
}

Result<federation::ExecResult> Connection::ExecuteParsed(
    const sql::Statement& stmt, const federation::Session& session,
    TraceContext tc) {
  if (explicit_txn_) {
    return system_->federation().Execute(stmt, session, txn_, tc);
  }
  Transaction* txn = system_->txn_manager().Begin();
  auto result = system_->federation().Execute(stmt, session, txn, tc);
  EndAutoTxn(txn, result.ok());
  return result;
}

std::optional<Result<federation::ExecResult>> Connection::TryControlStatement(
    const std::string& sql) {
  std::string trimmed = ToUpper(Trim(sql));
  if (!trimmed.empty() && trimmed.back() == ';') {
    trimmed = Trim(trimmed.substr(0, trimmed.size() - 1));
  }
  auto done = [](std::string detail) {
    federation::ExecResult out;
    out.detail = std::move(detail);
    return Result<federation::ExecResult>(std::move(out));
  };
  if (trimmed == "BEGIN" || trimmed == "BEGIN TRANSACTION") {
    Status st = Begin();
    if (!st.ok()) return Result<federation::ExecResult>(st);
    return done("transaction started");
  }
  if (trimmed == "COMMIT") {
    Status st = Commit();
    if (!st.ok()) return Result<federation::ExecResult>(st);
    return done("committed");
  }
  if (trimmed == "ROLLBACK") {
    Status st = Rollback();
    if (!st.ok()) return Result<federation::ExecResult>(st);
    return done("rolled back");
  }
  // SET CURRENT QUERY ACCELERATION =
  //   NONE | ENABLE | ENABLE WITH FAILBACK | ELIGIBLE | ALL
  // (DB2's special register; session-local, so handled here).
  const std::string kPrefix = "SET CURRENT QUERY ACCELERATION";
  if (StartsWith(trimmed, kPrefix)) {
    std::string rest = Trim(trimmed.substr(kPrefix.size()));
    if (!rest.empty() && rest[0] == '=') rest = Trim(rest.substr(1));
    federation::AccelerationMode mode;
    if (rest == "NONE") {
      mode = federation::AccelerationMode::kNone;
    } else if (rest == "ENABLE WITH FAILBACK") {
      mode = federation::AccelerationMode::kEnableWithFailback;
    } else if (rest == "ENABLE") {
      mode = federation::AccelerationMode::kEnable;
    } else if (rest == "ELIGIBLE") {
      mode = federation::AccelerationMode::kEligible;
    } else if (rest == "ALL") {
      mode = federation::AccelerationMode::kAll;
    } else {
      return Result<federation::ExecResult>(Status::SyntaxError(
          "expected NONE, ENABLE, ENABLE WITH FAILBACK, ELIGIBLE or ALL, "
          "got: '" + rest + "'"));
    }
    session_.acceleration = mode;
    return done(std::string("CURRENT QUERY ACCELERATION = ") + rest);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Workload-management helpers
// ---------------------------------------------------------------------------

std::vector<std::string> Connection::WrittenTables(const sql::Statement& stmt) {
  switch (stmt.kind()) {
    case sql::StatementKind::kInsert:
      return {Catalog::NormalizeName(
          static_cast<const sql::InsertStatement&>(stmt).table_name)};
    case sql::StatementKind::kExplain: {
      // EXPLAIN ANALYZE INSERT ... SELECT really inserts.
      const auto& explain = static_cast<const sql::ExplainStatement&>(stmt);
      if (explain.insert) return WrittenTables(*explain.insert);
      return {};
    }
    case sql::StatementKind::kUpdate:
      return {Catalog::NormalizeName(
          static_cast<const sql::UpdateStatement&>(stmt).table_name)};
    case sql::StatementKind::kDelete:
      return {Catalog::NormalizeName(
          static_cast<const sql::DeleteStatement&>(stmt).table_name)};
    case sql::StatementKind::kCreateTable:
      return {Catalog::NormalizeName(
          static_cast<const sql::CreateTableStatement&>(stmt).table_name)};
    case sql::StatementKind::kDropTable:
      return {Catalog::NormalizeName(
          static_cast<const sql::DropTableStatement&>(stmt).table_name)};
    default:
      return {};
  }
}

federation::Priority Connection::ClassifyPriority(
    const sql::Statement& stmt, const federation::ExecOptions& opts) const {
  if (opts.priority) return *opts.priority;
  // Two classes: long analytics behind short OLTP. SELECT shapes reuse the
  // router's offload heuristic; CALL (analytics operators, admin
  // procedures) is batch; DML and everything else is interactive.
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return federation::Router::LooksAnalytical(
                 static_cast<const sql::SelectStatement&>(stmt))
                 ? federation::Priority::kBatch
                 : federation::Priority::kInteractive;
    case sql::StatementKind::kExplain: {
      const auto& explain = static_cast<const sql::ExplainStatement&>(stmt);
      return explain.select && federation::Router::LooksAnalytical(
                                   *explain.select)
                 ? federation::Priority::kBatch
                 : federation::Priority::kInteractive;
    }
    case sql::StatementKind::kCall:
      return federation::Priority::kBatch;
    default:
      return federation::Priority::kInteractive;
  }
}

std::optional<Result<federation::ExecResult>>
Connection::TryServeFromResultCache(const ResolvedStatement& resolved,
                                    const federation::Session& session) {
  if (resolved.result_key.empty()) return std::nullopt;
  auto& cache = system_->wlm().result_cache();
  auto served = cache.Lookup(resolved.result_key);
  if (!served) return std::nullopt;
  // Governance is evaluated at serve time (not captured at store time):
  // a REVOKE between store and hit must still deny, and every access is
  // audited like an executed statement.
  const std::vector<std::string>& tables =
      resolved.plan ? resolved.plan->tables
                    : sql::ReferencedTables(*resolved.stmt);
  for (const std::string& table : tables) {
    Status check = system_->authorization().Check(
        session.user, table, governance::Privilege::kSelect);
    system_->audit().Record(session.user, "SELECT (result cache)", table,
                            check.ok(), check.ok() ? "" : check.message());
    if (!check.ok()) return Result<federation::ExecResult>(check);
  }
  federation::ExecResult out;
  out.result_set = std::move(served->rows);
  out.executed_on = served->routed_to;
  out.detail = "result cache hit";
  return Result<federation::ExecResult>(std::move(out));
}

federation::StatementResult Connection::ToStatementResult(
    federation::ExecResult result, uint64_t boundary_bytes) {
  federation::StatementResult out;
  out.rows = std::move(result.result_set);
  out.rows_affected = result.affected_rows;
  out.routed_to = result.executed_on;
  out.boundary_bytes = boundary_bytes;
  out.retries = result.retries;
  out.failed_back = result.failed_back;
  out.detail = std::move(result.detail);
  out.plan_cache = std::move(result.plan_cache);
  out.result_cache = std::move(result.result_cache);
  out.queued_us = result.queued_us;
  out.tenant = std::move(result.tenant);
  out.slot = result.slot;
  return out;
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

namespace {

// Statement text following the EXPLAIN ANALYZE prefix. Normalizing this
// yields the exact cache key a bare execution of the inner SELECT uses;
// re-rendering the AST via ToSql() would not (it adds grouping parentheses,
// which are tokens and therefore change the normalized key).
std::string_view ExplainedStatementText(std::string_view sql) {
  auto skip_ws = [](std::string_view& s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
      s.remove_prefix(1);
    }
  };
  auto skip_word = [](std::string_view& s, std::string_view word) {
    if (s.size() < word.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(s[i])) != word[i]) {
        return false;
      }
    }
    s.remove_prefix(word.size());
    return true;
  };
  std::string_view rest = sql;
  skip_ws(rest);
  if (!skip_word(rest, "EXPLAIN")) return sql;
  skip_ws(rest);
  if (!skip_word(rest, "ANALYZE")) return sql;
  skip_ws(rest);
  return rest;
}

}  // namespace

Result<federation::ExecResult> Connection::ExecuteResolved(
    ResolvedStatement resolved, const std::string& sql_text,
    const federation::Session& session, const federation::ExecOptions& opts,
    uint64_t* boundary_bytes) {
  auto& wlm = system_->wlm();
  const sql::Statement& stmt = *resolved.stmt;
  const bool is_select = stmt.kind() == sql::StatementKind::kSelect;

  // Result-cache key: only for auto-commit SELECTs that went through the
  // normalizer (the key carries the acceleration mode — it changes routing,
  // errors, and therefore observable results).
  if (is_select && resolved.plan && !explicit_txn_ && wlm.enabled() &&
      opts.use_result_cache) {
    resolved.result_key = federation::ResultCache::MakeKey(
        resolved.plan->key, resolved.params, session.acceleration);
  }

  const uint64_t start_ns = TraceNowNs();
  if (auto cached = TryServeFromResultCache(resolved, session)) {
    if (cached->ok()) {
      federation::ExecResult& out = **cached;
      out.plan_cache = resolved.plan_state;
      out.result_cache = "hit";
      out.tenant = session.tenant_id;
      system_->histograms()
          .GetOrCreate(std::string(histo::kSqlLatencyPrefix) +
                       sql::StatementKindToString(stmt.kind()))
          .Record((TraceNowNs() - start_ns) / 1000);
    }
    return std::move(*cached);
  }

  // Admission: statements inside an explicit transaction bypass the queue —
  // they may already hold row locks, and parking them behind a slot held by
  // a lock-waiter would deadlock the pool.
  federation::AdmissionController::Ticket ticket;
  bool admitted = false;
  if (wlm.enabled() && !explicit_txn_) {
    auto grant = wlm.admission().Admit(session.tenant_id,
                                       ClassifyPriority(stmt, opts),
                                       session.deadline_us);
    if (!grant.ok()) return grant.status();
    ticket = std::move(*grant);
    admitted = true;
  }

  // Generation snapshot must precede execution (the statement's MVCC
  // snapshot is taken inside): a commit that lands in between bumps the
  // generation and the store is dropped instead of caching stale rows.
  std::vector<uint64_t> generations;
  if (!resolved.result_key.empty()) {
    generations = wlm.result_cache().SnapshotGenerations(resolved.plan->tables);
  }

  QueryTrace trace;
  TraceSpan root(&trace, "statement");
  root.Attr("plan_cache", resolved.plan_state);
  root.Attr("tenant", session.tenant_id);
  if (admitted) {
    root.Attr("queued_us", ticket.queued_us);
    root.Attr("slot", ticket.slot);
  }
  auto result = ExecuteParsed(stmt, session, root.context());
  if (admitted) wlm.admission().Release(ticket);

  const char* result_cache_state =
      resolved.result_key.empty() ? "bypass" : "miss";
  if (result.ok()) {
    root.Attr("rows", static_cast<uint64_t>(result->result_set.NumRows()));
    root.Attr("affected", static_cast<uint64_t>(result->affected_rows));
    if (!resolved.result_key.empty()) {
      if (wlm.result_cache().Store(resolved.result_key, resolved.plan->tables,
                                   generations, result->result_set,
                                   result->executed_on, result->detail)) {
        result_cache_state = "store";
      }
    }
    // Precise eviction for front-door writes: auto-commit statements evict
    // now (EndAutoTxn already committed); statements inside an explicit
    // transaction defer to Commit(). CALL procedures (GROOM, ADD/LOAD
    // tables, analytics operators) mutate state outside the statement's
    // AST, so they clear conservatively.
    if (stmt.kind() == sql::StatementKind::kCall) {
      if (wlm.enabled()) wlm.result_cache().Clear();
    } else {
      std::vector<std::string> written = WrittenTables(stmt);
      if (!written.empty()) {
        if (explicit_txn_) {
          for (auto& t : written) {
            if (std::find(pending_invalidations_.begin(),
                          pending_invalidations_.end(),
                          t) == pending_invalidations_.end()) {
              pending_invalidations_.push_back(std::move(t));
            }
          }
        } else {
          wlm.result_cache().InvalidateTables(written);
        }
      }
    }
  }
  root.Attr("result_cache", result_cache_state);
  root.End();
  if (boundary_bytes != nullptr) *boundary_bytes = trace.boundary_bytes();
  const uint64_t duration_us = (TraceNowNs() - start_ns) / 1000;
  system_->histograms()
      .GetOrCreate(std::string(histo::kSqlLatencyPrefix) +
                   sql::StatementKindToString(stmt.kind()))
      .Record(duration_us);
  if (system_->slow_query_log().enabled()) {
    system_->slow_query_log().MaybeRecord(sql_text, duration_us,
                                          trace.boundary_bytes(),
                                          trace.Render());
  }
  if (result.ok()) {
    result->plan_cache = resolved.plan_state;
    result->result_cache = result_cache_state;
    result->tenant = session.tenant_id;
    if (admitted) {
      result->queued_us = ticket.queued_us;
      result->slot = ticket.slot;
    }
    // EXPLAIN ANALYZE renders its stage report from a fresh inner trace;
    // append the WLM decisions as an extra report row so they are visible
    // exactly where the ISSUE wants them.
    if (stmt.kind() == sql::StatementKind::kExplain &&
        static_cast<const sql::ExplainStatement&>(stmt).analyze &&
        result->result_set.schema().columns().size() == 3) {
      // EXPLAIN statements never take a result key themselves, so probe the
      // cache with the key a bare run of the inner SELECT would use — the
      // report shows the statement's real cache fate, not the EXPLAIN's.
      // Peek keeps hit/miss counters and LRU order untouched.
      std::string inner_cache_state = "bypass";
      if (wlm.enabled() && !explicit_txn_ && opts.use_result_cache) {
        auto norm = sql::NormalizeForCache(
            std::string(ExplainedStatementText(sql_text)),
            /*parameterize_literals=*/true);
        if (norm.ok() && norm->cacheable && !norm->has_explicit_params) {
          inner_cache_state =
              wlm.result_cache().Peek(federation::ResultCache::MakeKey(
                  norm->key, norm->params, session.acceleration))
                  ? "hit"
                  : "miss";
        }
      }
      result->result_set.Append(
          {Value::Varchar("wlm"), Value::Integer(result->queued_us),
           Value::Varchar("plan_cache=" + std::string(resolved.plan_state) +
                          " result_cache=" + inner_cache_state +
                          " tenant=" + session.tenant_id +
                          " slot=" + std::to_string(result->slot) +
                          " queued_us=" +
                          std::to_string(result->queued_us))});
    }
  }
  return result;
}

Result<federation::ExecResult> Connection::ExecuteCore(
    const std::string& sql, const federation::ExecOptions& opts,
    uint64_t* boundary_bytes) {
  if (auto control = TryControlStatement(sql)) {
    return std::move(*control);
  }
  federation::Session session = session_;
  if (opts.acceleration) session.acceleration = *opts.acceleration;
  if (opts.deadline_us != 0) session.deadline_us = opts.deadline_us;
  if (!opts.tenant_id.empty()) session.tenant_id = opts.tenant_id;

  ResolvedStatement resolved;
  sql::NormalizedStatement norm;
  if (opts.use_plan_cache) {
    auto normalized = sql::NormalizeForCache(sql, /*parameterize_literals=*/true);
    // Tokenizer errors fall through: ParseStatement reports them properly.
    if (normalized.ok()) norm = std::move(*normalized);
    if (norm.has_explicit_params) {
      return Status::InvalidArgument(
          "statement contains '?' parameter markers; use Connection::Prepare "
          "and Bind to execute it");
    }
  }
  if (norm.cacheable) {
    auto& plan_cache = system_->plan_cache();
    if (auto plan = plan_cache.Get(norm.key)) {
      auto instantiated = plan->Instantiate(norm.params);
      if (instantiated.ok()) {
        resolved.stmt = std::move(*instantiated);
        resolved.plan = std::move(plan);
        resolved.plan_state = "hit";
        system_->metrics().Increment(metric::kPlanCacheHits);
      }
    }
    if (!resolved.stmt) {
      IDAA_ASSIGN_OR_RETURN(resolved.stmt, sql::ParseStatement(sql));
      system_->metrics().Increment(metric::kPlanCacheMisses);
      resolved.plan_state = "bypass";
      // Build the shared template: parameterize a clone, then cross-check
      // the AST-collected values against the token-collected ones. Any
      // mismatch means the two walks disagree on this shape — don't cache.
      if (sql::StatementPtr tmpl = sql::CloneStatement(*resolved.stmt)) {
        std::vector<Value> ast_params;
        size_t n = sql::ParameterizeStatement(*tmpl, &ast_params);
        bool match =
            n == norm.params.size() && ast_params.size() == norm.params.size();
        for (size_t i = 0; match && i < ast_params.size(); ++i) {
          match = ast_params[i] == norm.params[i];
        }
        if (match) {
          auto plan = std::make_shared<sql::CachedPlan>();
          plan->key = norm.key;
          plan->template_stmt = std::move(tmpl);
          plan->num_params = n;
          plan->stmt_kind = resolved.stmt->kind();
          plan->tables = sql::ReferencedTables(*resolved.stmt);
          plan_cache.Put(plan);
          resolved.plan = std::move(plan);
          resolved.plan_state = "miss";
        }
      }
    }
    resolved.params = std::move(norm.params);
  } else {
    IDAA_ASSIGN_OR_RETURN(resolved.stmt, sql::ParseStatement(sql));
  }
  return ExecuteResolved(std::move(resolved), sql, session, opts,
                         boundary_bytes);
}

Result<federation::ExecResult> Connection::ExecutePrepared(
    const PreparedStatement& prepared, const federation::ExecOptions& opts,
    uint64_t* boundary_bytes) {
  if (!prepared.plan_) {
    // Statement kind outside the plan cache: re-execute from text.
    return ExecuteCore(prepared.sql_, opts, boundary_bytes);
  }
  federation::Session session = session_;
  if (opts.acceleration) session.acceleration = *opts.acceleration;
  if (opts.deadline_us != 0) session.deadline_us = opts.deadline_us;
  if (!opts.tenant_id.empty()) session.tenant_id = opts.tenant_id;

  ResolvedStatement resolved;
  IDAA_ASSIGN_OR_RETURN(resolved.stmt,
                        prepared.plan_->Instantiate(prepared.params_));
  resolved.plan = prepared.plan_;
  resolved.plan_state = "hit";
  resolved.params = prepared.params_;
  system_->metrics().Increment(metric::kPlanCacheHits);
  return ExecuteResolved(std::move(resolved), prepared.sql_, session, opts,
                         boundary_bytes);
}

Result<PreparedStatement> Connection::Prepare(const std::string& sql) {
  PreparedStatement prepared;
  prepared.conn_ = this;
  prepared.sql_ = sql;
  IDAA_ASSIGN_OR_RETURN(
      sql::NormalizedStatement norm,
      sql::NormalizeForCache(sql, /*parameterize_literals=*/false));
  if (!norm.cacheable) {
    // DDL / CALL / EXPLAIN / control statements: valid to prepare, but they
    // re-parse per Execute (no template path for those kinds).
    return prepared;
  }
  auto& plan_cache = system_->plan_cache();
  std::shared_ptr<const sql::CachedPlan> plan = plan_cache.Get(norm.key);
  if (plan == nullptr) {
    IDAA_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
    system_->metrics().Increment(metric::kPlanCacheMisses);
    auto built = std::make_shared<sql::CachedPlan>();
    built->key = norm.key;
    built->num_params = sql::CountParams(*stmt);
    built->stmt_kind = stmt->kind();
    built->tables = sql::ReferencedTables(*stmt);
    built->template_stmt = std::move(stmt);
    plan_cache.Put(built);
    plan = std::move(built);
  } else {
    system_->metrics().Increment(metric::kPlanCacheHits);
  }
  prepared.plan_ = std::move(plan);
  prepared.bound_ = prepared.plan_->num_params == 0;
  return prepared;
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

Result<federation::StatementResult> Connection::Execute(
    const std::string& sql, const federation::ExecOptions& opts) {
  uint64_t boundary_bytes = 0;
  IDAA_ASSIGN_OR_RETURN(federation::ExecResult result,
                        ExecuteCore(sql, opts, &boundary_bytes));
  return ToStatementResult(std::move(result), boundary_bytes);
}

Result<ResultSet> Connection::Query(const std::string& sql) {
  IDAA_ASSIGN_OR_RETURN(federation::ExecResult result,
                        ExecuteCore(sql, {}, nullptr));
  return result.result_set;
}

analytics::SqlExecutor Connection::MakeSqlExecutor() {
  return [this](const std::string& sql) -> Result<analytics::StageResult> {
    IDAA_ASSIGN_OR_RETURN(federation::ExecResult result,
                          ExecuteCore(sql, {}, nullptr));
    analytics::StageResult stage;
    stage.affected_rows = result.affected_rows != 0
                              ? result.affected_rows
                              : result.result_set.NumRows();
    stage.on_accelerator =
        result.executed_on == federation::Target::kAccelerator;
    stage.detail = result.detail;
    return stage;
  };
}

}  // namespace idaa
