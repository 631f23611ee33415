#include "analytics/apriori.h"

#include <algorithm>
#include <cmath>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"
#include "common/string_util.h"

namespace idaa::analytics {

std::vector<FrequentItemset> RunApriori(
    const std::vector<std::set<std::string>>& transactions,
    double min_support, size_t max_size, ThreadPool* pool) {
  std::vector<FrequentItemset> result;
  if (transactions.empty()) return result;
  const double n = static_cast<double>(transactions.size());
  const size_t min_count =
      static_cast<size_t>(std::ceil(min_support * n));

  // L1: frequent single items.
  std::map<std::string, size_t> item_counts;
  for (const auto& txn : transactions) {
    for (const auto& item : txn) ++item_counts[item];
  }
  std::vector<std::vector<std::string>> current;  // frequent (k)-itemsets
  for (const auto& [item, count] : item_counts) {
    if (count >= min_count && min_count > 0) {
      current.push_back({item});
      result.push_back({{item}, static_cast<double>(count) / n});
    }
  }

  // Iteratively join L(k) with itself into candidates C(k+1), count, prune.
  for (size_t k = 2; k <= max_size && current.size() >= 2; ++k) {
    std::set<std::vector<std::string>> candidates;
    for (size_t i = 0; i < current.size(); ++i) {
      for (size_t j = i + 1; j < current.size(); ++j) {
        // Join when the first k-2 items agree (classic prefix join).
        bool joinable = true;
        for (size_t p = 0; p + 1 < current[i].size(); ++p) {
          if (current[i][p] != current[j][p]) {
            joinable = false;
            break;
          }
        }
        if (!joinable) continue;
        std::vector<std::string> candidate = current[i];
        candidate.push_back(current[j].back());
        std::sort(candidate.begin(), candidate.end());
        candidate.erase(std::unique(candidate.begin(), candidate.end()),
                        candidate.end());
        if (candidate.size() == k) candidates.insert(std::move(candidate));
      }
    }
    // Support counting is the hot loop: one independent task per candidate.
    // Integer counts iterated in candidate (sorted-set) order make the
    // parallel result exactly the serial one.
    std::vector<std::vector<std::string>> ordered(candidates.begin(),
                                                  candidates.end());
    std::vector<size_t> counts_per_candidate(ordered.size(), 0);
    auto count_candidate = [&](size_t c) {
      size_t count = 0;
      for (const auto& txn : transactions) {
        bool contains = true;
        for (const auto& item : ordered[c]) {
          if (!txn.count(item)) {
            contains = false;
            break;
          }
        }
        if (contains) ++count;
      }
      counts_per_candidate[c] = count;
    };
    if (pool != nullptr && ordered.size() > 1) {
      pool->ParallelForDynamic(
          ordered.size(), std::min(pool->num_threads(), ordered.size()),
          [&](size_t, size_t c) { count_candidate(c); });
    } else {
      for (size_t c = 0; c < ordered.size(); ++c) count_candidate(c);
    }
    std::vector<std::vector<std::string>> next;
    for (size_t c = 0; c < ordered.size(); ++c) {
      if (counts_per_candidate[c] >= min_count && min_count > 0) {
        next.push_back(ordered[c]);
        result.push_back(
            {ordered[c], static_cast<double>(counts_per_candidate[c]) / n});
      }
    }
    current = std::move(next);
  }
  return result;
}

namespace {

class AprioriOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "APRIORI"; }
  std::string description() const override {
    return "frequent itemset mining (Apriori)";
  }

  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(std::string tid_name,
                          GetParam(params, "tid_column"));
    IDAA_ASSIGN_OR_RETURN(std::string item_name,
                          GetParam(params, "item_column"));
    IDAA_ASSIGN_OR_RETURN(double min_support,
                          GetDoubleParam(params, "min_support", 0.1));
    IDAA_ASSIGN_OR_RETURN(int64_t max_size, GetIntParam(params, "max_size", 3));

    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));
    IDAA_ASSIGN_OR_RETURN(size_t tid_col, in_schema.ColumnIndex(tid_name));
    IDAA_ASSIGN_OR_RETURN(size_t item_col, in_schema.ColumnIndex(item_name));

    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    // Grouping into per-tid item sets is set-union, so the per-morsel
    // partial maps merged in ascending morsel order give the same map for
    // any thread count. Tids and items are keyed by storage equality (DOUBLE
    // tids 1000001 and 1000002 are two transactions) and items are named by
    // their exact rendering.
    std::map<Value, std::set<Value>> grouped;
    std::vector<std::map<Value, std::set<Value>>> partials(in->num_morsels());
    in->Scan(
        [&](size_t, size_t mi, const accel::ColumnBatch& batch) {
          auto& part = partials[mi];
          const accel::Column& tid = *(*batch.columns)[tid_col];
          const accel::Column& item = *(*batch.columns)[item_col];
          for (size_t k = 0; k < batch.sel_count; ++k) {
            const size_t i = batch.AbsoluteRow(k);
            if (tid.IsNull(i) || item.IsNull(i)) continue;
            part[tid.Get(i)].insert(item.Get(i));
          }
        },
        ctx.trace(), "analytics.apriori.group");
    for (auto& part : partials) {
      for (auto& [tid, items] : part) {
        grouped[tid].insert(items.begin(), items.end());
      }
    }
    std::vector<std::set<std::string>> transactions;
    transactions.reserve(grouped.size());
    for (const auto& [tid, items] : grouped) {
      std::set<std::string> names;
      for (const Value& item : items) names.insert(item.ToExactString());
      transactions.push_back(std::move(names));
    }

    std::vector<FrequentItemset> itemsets;
    {
      TraceSpan mine(ctx.trace(), "analytics.apriori.mine");
      mine.Attr("transactions", static_cast<uint64_t>(transactions.size()));
      itemsets = RunApriori(transactions, min_support,
                            static_cast<size_t>(max_size), in->pool());
    }
    in.reset();  // release the scan pin before materializing output AOTs

    std::string output = GetParamOr(params, "output", "");
    if (!output.empty()) {
      Schema out_schema({{"ITEMSET", DataType::kVarchar, false},
                         {"SIZE", DataType::kInteger, false},
                         {"SUPPORT", DataType::kDouble, false}});
      IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, out_schema));
      std::vector<Row> out_rows;
      for (const auto& itemset : itemsets) {
        out_rows.push_back(
            {Value::Varchar(Join(itemset.items, ",")),
             Value::Integer(static_cast<int64_t>(itemset.items.size())),
             Value::Double(itemset.support)});
      }
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(output, out_rows));
    }

    std::map<size_t, size_t> per_size;
    for (const auto& itemset : itemsets) ++per_size[itemset.items.size()];
    ResultSet summary{Schema({{"SIZE", DataType::kInteger, false},
                              {"ITEMSETS", DataType::kInteger, false}})};
    for (const auto& [size, count] : per_size) {
      summary.Append({Value::Integer(static_cast<int64_t>(size)),
                      Value::Integer(static_cast<int64_t>(count))});
    }
    return summary;
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeAprioriOperator() {
  return std::make_unique<AprioriOperator>();
}

}  // namespace idaa::analytics
