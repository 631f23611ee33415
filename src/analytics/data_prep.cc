#include "analytics/data_prep.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "analytics/batch_input.h"
#include "analytics/parallel.h"
#include "common/string_util.h"

namespace idaa::analytics {

namespace {

/// Common scaffolding: read the input morsel-parallel (with the scan pin
/// held until the transform is done), hand it to a transform, write the
/// produced rows into a fresh output AOT.
class TableToTableOperator : public AnalyticsOperator {
 public:
  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(std::string output, GetParam(params, "output"));
    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));

    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    // Columnar-capable transforms read the input as flat column vectors;
    // everyone else (and any input with a non-columnar type) gets rows.
    std::vector<Row> rows;
    accel::ColumnarRows in_columnar;
    bool have_columnar = false;
    if (WantsColumnarInput()) {
      auto gathered = in->GatherColumnar(ctx.trace());
      if (gathered.ok()) {
        in_columnar = std::move(*gathered);
        have_columnar = true;
      }
    }
    if (!have_columnar) rows = in->GatherRows(ctx.trace());
    const size_t in_count = have_columnar ? in_columnar.num_rows : rows.size();

    Schema out_schema;
    std::vector<Row> out_rows;
    accel::ColumnarRows out_columnar;
    std::optional<Result<ResultSet>> summary;
    {
      TraceSpan span(ctx.trace(),
                     "analytics." + ToLower(name()) + ".transform");
      span.Attr("rows", static_cast<uint64_t>(in_count));
      span.Attr("partial_merges", static_cast<uint64_t>(NumChunks(in_count)));
      summary = Transform(ctx, params, in_schema, rows, in->pool(),
                          &out_schema, &out_rows, &out_columnar,
                          have_columnar ? &in_columnar : nullptr);
    }
    if (!summary->ok()) return summary->status();
    in.reset();  // release the scan pin before materializing the output AOT

    IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, out_schema));
    if (!out_columnar.columns.empty()) {
      IDAA_RETURN_IF_ERROR(ctx.AppendColumnar(output, out_columnar));
    } else {
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(output, out_rows));
    }
    return std::move(*summary);
  }

 protected:
  /// Produce output schema + rows and a summary result set. Transforms
  /// run their passes with ParallelChunks on `pool` (serially when null),
  /// keep per-chunk partial states and merge them in ascending chunk order,
  /// so the result is identical for any thread count. A transform may stage
  /// its output in `out_columnar` instead of `out_rows` (stored state is
  /// identical to the equivalent rows); when `out_columnar` has columns,
  /// Run appends it via the columnar path. When the transform opted into
  /// columnar input (WantsColumnarInput) and the gather succeeded,
  /// `in_columnar` is non-null and `rows` is empty; both carry the rows in
  /// the same order. Transforms validate column types before any chunk
  /// work, so no chunk ever meets a value it cannot convert.
  virtual Result<ResultSet> Transform(AnalyticsContext& ctx,
                                      const ParamMap& params,
                                      const Schema& in_schema,
                                      const std::vector<Row>& rows,
                                      ThreadPool* pool, Schema* out_schema,
                                      std::vector<Row>* out_rows,
                                      accel::ColumnarRows* out_columnar,
                                      accel::ColumnarRows* in_columnar) = 0;

  /// Opt-in to a columnar input gather (taken when every input column has
  /// a ColumnarRows representation). An opting-in transform handles both
  /// input arms with the same results and errors.
  virtual bool WantsColumnarInput() const { return false; }

  static ResultSet SummaryRow(std::vector<std::string> names,
                              std::vector<Value> values) {
    std::vector<ColumnDef> cols;
    for (size_t i = 0; i < names.size(); ++i) {
      DataType type = DataType::kVarchar;
      if (values[i].is_integer()) type = DataType::kInteger;
      if (values[i].is_double()) type = DataType::kDouble;
      cols.push_back({names[i], type, true});
    }
    ResultSet out{Schema(std::move(cols))};
    out.Append(std::move(values));
    return out;
  }

  /// Non-null, non-VARCHAR values always convert; transforms reject
  /// VARCHAR selections before any chunk work, so this never fails inside
  /// a chunk task.
  static double MustDouble(const Value& v) {
    auto d = v.ToDouble();
    return d.ok() ? *d : 0.0;
  }
};

// ---------------------------------------------------------------------------

class NormalizeOperator : public TableToTableOperator {
 public:
  std::string name() const override { return "NORMALIZE"; }
  std::string description() const override {
    return "z-score or min-max scaling of numeric columns";
  }

 protected:
  bool WantsColumnarInput() const override { return true; }

  Result<ResultSet> Transform(AnalyticsContext&, const ParamMap& params,
                              const Schema& in_schema,
                              const std::vector<Row>& rows, ThreadPool* pool,
                              Schema* out_schema,
                              std::vector<Row>* out_rows,
                              accel::ColumnarRows* out_columnar,
                              accel::ColumnarRows* in_columnar) override {
    IDAA_ASSIGN_OR_RETURN(std::string columns_list,
                          GetParam(params, "columns"));
    IDAA_ASSIGN_OR_RETURN(std::vector<size_t> columns,
                          ResolveColumns(in_schema, columns_list));
    std::string method = ToLower(GetParamOr(params, "method", "zscore"));
    if (method != "zscore" && method != "minmax") {
      return Status::InvalidArgument("unknown normalization method: " + method);
    }
    for (size_t c : columns) {
      if (!IsNumeric(in_schema.Column(c).type)) {
        return Status::InvalidArgument("column " + in_schema.Column(c).name +
                                       " is not numeric");
      }
    }

    // Column statistics: per-chunk min/max/sum/sum-sq partials merged in
    // ascending chunk order.
    struct Stats {
      double sum = 0, sum_sq = 0, min = 0, max = 0;
      size_t n = 0;
    };
    std::map<size_t, Stats> stats;
    for (size_t c : columns) stats[c] = Stats{};
    const size_t n =
        in_columnar != nullptr ? in_columnar->num_rows : rows.size();
    std::vector<std::vector<Stats>> partials(
        NumChunks(n), std::vector<Stats>(columns.size()));
    auto observe = [](Stats& s, double d) {
      if (s.n == 0) {
        s.min = d;
        s.max = d;
      }
      s.min = std::min(s.min, d);
      s.max = std::max(s.max, d);
      s.sum += d;
      s.sum_sq += d * d;
      ++s.n;
    };
    if (in_columnar != nullptr) {
      // Flat-vector accumulation: per column, rows ascend within each
      // fixed chunk exactly as in the row arm, so partials are
      // bit-identical to it.
      ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
        std::vector<Stats>& part = partials[chunk];
        for (size_t j = 0; j < columns.size(); ++j) {
          const accel::ColumnarRows::Col& col =
              in_columnar->columns[columns[j]];
          const bool dbl =
              in_schema.Column(columns[j]).type == DataType::kDouble;
          for (size_t r = begin; r < end; ++r) {
            if (!col.nulls.empty() && col.nulls[r]) continue;
            observe(part[j],
                    dbl ? col.doubles[r] : static_cast<double>(col.ints[r]));
          }
        }
      });
    } else {
      ParallelChunks(pool, n, [&](size_t chunk, size_t begin, size_t end) {
        std::vector<Stats>& part = partials[chunk];
        for (size_t r = begin; r < end; ++r) {
          for (size_t j = 0; j < columns.size(); ++j) {
            const Value& v = rows[r][columns[j]];
            if (v.is_null()) continue;
            observe(part[j], MustDouble(v));
          }
        }
      });
    }
    for (const std::vector<Stats>& part : partials) {
      for (size_t j = 0; j < columns.size(); ++j) {
        if (part[j].n == 0) continue;
        Stats& s = stats[columns[j]];
        if (s.n == 0) {
          s.min = part[j].min;
          s.max = part[j].max;
        }
        s.min = std::min(s.min, part[j].min);
        s.max = std::max(s.max, part[j].max);
        s.sum += part[j].sum;
        s.sum_sq += part[j].sum_sq;
        s.n += part[j].n;
      }
    }

    // Output schema: normalized columns become DOUBLE, everything else kept.
    std::vector<ColumnDef> out_cols = in_schema.columns();
    for (size_t c : columns) out_cols[c].type = DataType::kDouble;
    *out_schema = Schema(std::move(out_cols));

    // Each output row depends only on its input row and the final stats, so
    // the chunked rewrite is exact (not just epsilon) per stats value.
    auto scale = [&](const Stats& s, double d) {
      if (method == "zscore") {
        double mean = s.n ? s.sum / s.n : 0.0;
        double var = s.n ? s.sum_sq / s.n - mean * mean : 0.0;
        double sd = var > 0 ? std::sqrt(var) : 1.0;
        return (d - mean) / sd;
      }
      double span = s.max - s.min;
      return span > 0 ? (d - s.min) / span : 0.0;
    };
    // Stage the output column-major when every output column has a
    // columnar-insert representation — values go straight from the chunk
    // workers into flat typed vectors, no per-row Row/Value boxing.
    bool columnar_ok = true;
    for (const ColumnDef& def : out_schema->columns()) {
      if (def.type != DataType::kDouble && def.type != DataType::kInteger &&
          def.type != DataType::kVarchar) {
        columnar_ok = false;
      }
    }
    if (in_columnar != nullptr) {
      // Columnar in, columnar out: pass-through columns move wholesale;
      // normalized columns are rescaled flat-vector to flat-vector.
      const size_t ncols = out_schema->NumColumns();
      std::vector<uint8_t> is_norm(ncols, 0);
      for (size_t c : columns) is_norm[c] = 1;
      out_columnar->num_rows = n;
      out_columnar->columns.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        if (!is_norm[c]) {
          out_columnar->columns[c] = std::move(in_columnar->columns[c]);
          continue;
        }
        accel::ColumnarRows::Col& dst = out_columnar->columns[c];
        dst.nulls = in_columnar->columns[c].nulls;
        dst.doubles.resize(n);
      }
      ParallelChunks(pool, n, [&](size_t, size_t begin, size_t end) {
        for (size_t c : columns) {
          const accel::ColumnarRows::Col& src = in_columnar->columns[c];
          accel::ColumnarRows::Col& dst = out_columnar->columns[c];
          const bool dbl = in_schema.Column(c).type == DataType::kDouble;
          for (size_t r = begin; r < end; ++r) {
            if (!src.nulls.empty() && src.nulls[r]) continue;
            dst.doubles[r] = scale(
                stats.at(c),
                dbl ? src.doubles[r] : static_cast<double>(src.ints[r]));
          }
        }
      });
    } else if (columnar_ok) {
      const size_t ncols = out_schema->NumColumns();
      std::vector<uint8_t> is_norm(ncols, 0);
      for (size_t c : columns) is_norm[c] = 1;
      out_columnar->num_rows = rows.size();
      out_columnar->columns.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        accel::ColumnarRows::Col& col = out_columnar->columns[c];
        col.nulls.assign(rows.size(), 0);
        switch (out_schema->Column(c).type) {
          case DataType::kDouble:
            col.doubles.resize(rows.size());
            break;
          case DataType::kInteger:
            col.ints.resize(rows.size());
            break;
          default:
            col.strings.resize(rows.size());
        }
      }
      // Chunks write disjoint index ranges of each staged vector.
      ParallelChunks(pool, rows.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < ncols; ++c) {
            const Value& v = rows[r][c];
            accel::ColumnarRows::Col& col = out_columnar->columns[c];
            if (v.is_null()) {
              col.nulls[r] = 1;
              continue;
            }
            if (is_norm[c]) {
              col.doubles[r] = scale(stats.at(c), MustDouble(v));
              continue;
            }
            switch (out_schema->Column(c).type) {
              case DataType::kDouble:
                col.doubles[r] = v.AsDouble();
                break;
              case DataType::kInteger:
                col.ints[r] = v.AsInteger();
                break;
              default:
                col.strings[r] = v.AsVarchar();
            }
          }
        }
      });
    } else {
      out_rows->assign(rows.size(), Row());
      ParallelChunks(pool, rows.size(),
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t r = begin; r < end; ++r) {
                         Row out = rows[r];
                         for (size_t c : columns) {
                           if (out[c].is_null()) continue;
                           out[c] = Value::Double(
                               scale(stats.at(c), MustDouble(out[c])));
                         }
                         (*out_rows)[r] = std::move(out);
                       }
                     });
    }
    return SummaryRow({"ROWS", "COLUMNS", "METHOD"},
                      {Value::Integer(static_cast<int64_t>(n)),
                       Value::Integer(static_cast<int64_t>(columns.size())),
                       Value::Varchar(method)});
  }
};

// ---------------------------------------------------------------------------

class DiscretizeOperator : public TableToTableOperator {
 public:
  std::string name() const override { return "DISCRETIZE"; }
  std::string description() const override {
    return "equal-width binning of a numeric column";
  }

 protected:
  Result<ResultSet> Transform(AnalyticsContext&, const ParamMap& params,
                              const Schema& in_schema,
                              const std::vector<Row>& rows, ThreadPool* pool,
                              Schema* out_schema,
                              std::vector<Row>* out_rows,
                              accel::ColumnarRows* /*out_columnar*/,
                              accel::ColumnarRows* /*in_columnar*/) override {
    IDAA_ASSIGN_OR_RETURN(std::string column, GetParam(params, "column"));
    IDAA_ASSIGN_OR_RETURN(size_t col, in_schema.ColumnIndex(column));
    IDAA_ASSIGN_OR_RETURN(int64_t bins, GetIntParam(params, "bins", 10));
    if (bins < 1) return Status::InvalidArgument("bins must be >= 1");
    IDAA_RETURN_IF_ERROR(CheckNumericColumns(in_schema, {col}));

    // Min/max: per-chunk partials merge exactly (comparisons commute), so
    // the range and every bin are independent of the chunking.
    double lo = 0, hi = 0;
    bool first = true;
    struct Range {
      double lo = 0, hi = 0;
      bool any = false;
    };
    std::vector<Range> partials(NumChunks(rows.size()));
    ParallelChunks(pool, rows.size(),
                   [&](size_t chunk, size_t begin, size_t end) {
                     Range& part = partials[chunk];
                     for (size_t r = begin; r < end; ++r) {
                       if (rows[r][col].is_null()) continue;
                       double d = MustDouble(rows[r][col]);
                       if (!part.any) {
                         part.lo = part.hi = d;
                         part.any = true;
                       }
                       part.lo = std::min(part.lo, d);
                       part.hi = std::max(part.hi, d);
                     }
                   });
    for (const auto& part : partials) {
      if (!part.any) continue;
      if (first) {
        lo = part.lo;
        hi = part.hi;
        first = false;
      }
      lo = std::min(lo, part.lo);
      hi = std::max(hi, part.hi);
    }
    double width = (hi - lo) / static_cast<double>(bins);
    if (width <= 0) width = 1.0;

    std::vector<ColumnDef> out_cols = in_schema.columns();
    out_cols.push_back(
        {Catalog::NormalizeName(column) + "_BIN", DataType::kInteger, true});
    *out_schema = Schema(std::move(out_cols));

    auto bin_of = [&](double d) {
      int64_t bin = static_cast<int64_t>((d - lo) / width);
      return std::clamp<int64_t>(bin, 0, bins - 1);
    };
    out_rows->assign(rows.size(), Row());
    ParallelChunks(pool, rows.size(), [&](size_t, size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        Row out = rows[r];
        if (rows[r][col].is_null()) {
          out.push_back(Value::Null());
        } else {
          out.push_back(Value::Integer(bin_of(MustDouble(rows[r][col]))));
        }
        (*out_rows)[r] = std::move(out);
      }
    });
    return SummaryRow(
        {"ROWS", "BINS", "LOW", "HIGH"},
        {Value::Integer(static_cast<int64_t>(out_rows->size())),
         Value::Integer(bins), Value::Double(lo), Value::Double(hi)});
  }
};

// ---------------------------------------------------------------------------

class ImputeOperator : public TableToTableOperator {
 public:
  std::string name() const override { return "IMPUTE"; }
  std::string description() const override {
    return "replace NULLs with column mean (numeric) or mode (varchar)";
  }

 protected:
  Result<ResultSet> Transform(AnalyticsContext&, const ParamMap& params,
                              const Schema& in_schema,
                              const std::vector<Row>& rows, ThreadPool* pool,
                              Schema* out_schema,
                              std::vector<Row>* out_rows,
                              accel::ColumnarRows* /*out_columnar*/,
                              accel::ColumnarRows* /*in_columnar*/) override {
    IDAA_ASSIGN_OR_RETURN(std::string columns_list,
                          GetParam(params, "columns"));
    IDAA_ASSIGN_OR_RETURN(std::vector<size_t> columns,
                          ResolveColumns(in_schema, columns_list));

    // Replacement values: VARCHAR mode counts are additive, so the chunked
    // merge is exact; numeric means merge per-chunk sums in ascending chunk
    // order (identical across thread counts).
    std::map<size_t, Value> replacement;
    for (size_t c : columns) {
      const ColumnDef& def = in_schema.Column(c);
      if (def.type == DataType::kVarchar) {
        std::map<std::string, size_t> counts;
        std::vector<std::map<std::string, size_t>> partials(
            NumChunks(rows.size()));
        ParallelChunks(pool, rows.size(),
                       [&](size_t chunk, size_t begin, size_t end) {
                         auto& part = partials[chunk];
                         for (size_t r = begin; r < end; ++r) {
                           if (!rows[r][c].is_null()) {
                             ++part[rows[r][c].AsVarchar()];
                           }
                         }
                       });
        for (const auto& part : partials) {
          for (const auto& [value, count] : part) counts[value] += count;
        }
        std::string mode;
        size_t best = 0;
        for (const auto& [value, count] : counts) {
          if (count > best) {
            best = count;
            mode = value;
          }
        }
        replacement[c] = Value::Varchar(mode);
      } else {
        struct Partial {
          double sum = 0;
          size_t n = 0;
        };
        std::vector<Partial> partials(NumChunks(rows.size()));
        ParallelChunks(pool, rows.size(),
                       [&](size_t chunk, size_t begin, size_t end) {
                         Partial& part = partials[chunk];
                         for (size_t r = begin; r < end; ++r) {
                           if (rows[r][c].is_null()) continue;
                           part.sum += MustDouble(rows[r][c]);
                           ++part.n;
                         }
                       });
        double sum = 0;
        size_t n = 0;
        for (const Partial& part : partials) {
          sum += part.sum;
          n += part.n;
        }
        double mean = n ? sum / n : 0.0;
        Value v = Value::Double(mean);
        if (def.type != DataType::kDouble) {
          IDAA_ASSIGN_OR_RETURN(v, v.CastTo(def.type));
        }
        replacement[c] = v;
      }
    }

    *out_schema = in_schema;
    out_rows->assign(rows.size(), Row());
    std::vector<size_t> imputed_per_chunk(NumChunks(rows.size()), 0);
    ParallelChunks(pool, rows.size(),
                   [&](size_t chunk, size_t begin, size_t end) {
                     size_t count = 0;
                     for (size_t r = begin; r < end; ++r) {
                       Row out = rows[r];
                       for (size_t c : columns) {
                         if (out[c].is_null()) {
                           out[c] = replacement.at(c);
                           ++count;
                         }
                       }
                       (*out_rows)[r] = std::move(out);
                     }
                     imputed_per_chunk[chunk] = count;
                   });
    size_t imputed = 0;
    for (size_t count : imputed_per_chunk) imputed += count;
    return SummaryRow({"ROWS", "IMPUTED_VALUES"},
                      {Value::Integer(static_cast<int64_t>(out_rows->size())),
                       Value::Integer(static_cast<int64_t>(imputed))});
  }
};

// ---------------------------------------------------------------------------

class OneHotOperator : public TableToTableOperator {
 public:
  std::string name() const override { return "ONEHOT"; }
  std::string description() const override {
    return "expand a categorical column into 0/1 indicator columns";
  }

 protected:
  Result<ResultSet> Transform(AnalyticsContext&, const ParamMap& params,
                              const Schema& in_schema,
                              const std::vector<Row>& rows, ThreadPool* pool,
                              Schema* out_schema,
                              std::vector<Row>* out_rows,
                              accel::ColumnarRows* /*out_columnar*/,
                              accel::ColumnarRows* /*in_columnar*/) override {
    IDAA_ASSIGN_OR_RETURN(std::string column, GetParam(params, "column"));
    IDAA_ASSIGN_OR_RETURN(size_t col, in_schema.ColumnIndex(column));
    IDAA_ASSIGN_OR_RETURN(int64_t max_values,
                          GetIntParam(params, "max_values", 32));

    // Category discovery in first-appearance order. Per-chunk appearance
    // lists concatenated in ascending chunk order give the table-wide
    // first-appearance order exactly; the max_values check runs on the
    // merged set.
    // Categories are keyed by storage equality (DOUBLE 1000001 and 1000002
    // are two categories) and named by their exact rendering.
    std::map<Value, size_t> categories;  // value -> indicator index
    struct Partial {
      std::vector<Value> order;
      std::set<Value> seen;
    };
    std::vector<Partial> partials(NumChunks(rows.size()));
    ParallelChunks(pool, rows.size(),
                   [&](size_t chunk, size_t begin, size_t end) {
                     Partial& part = partials[chunk];
                     for (size_t r = begin; r < end; ++r) {
                       const Value& key = rows[r][col];
                       if (key.is_null()) continue;
                       if (part.seen.insert(key).second) {
                         part.order.push_back(key);
                       }
                     }
                   });
    for (const Partial& part : partials) {
      for (const Value& key : part.order) {
        if (!categories.count(key)) {
          if (static_cast<int64_t>(categories.size()) >= max_values) {
            return Status::InvalidArgument(
                "column has more than max_values distinct values");
          }
          categories.emplace(key, categories.size());
        }
      }
    }

    std::vector<ColumnDef> out_cols = in_schema.columns();
    std::vector<Value> ordered(categories.size());
    for (const auto& [value, idx] : categories) ordered[idx] = value;
    for (const Value& value : ordered) {
      std::string safe;
      for (char ch : value.ToExactString()) {
        safe += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
      }
      out_cols.push_back({Catalog::NormalizeName(column) + "_" + ToUpper(safe),
                          DataType::kInteger, true});
    }
    *out_schema = Schema(std::move(out_cols));

    auto expand = [&](const Row& row) {
      Row out = row;
      for (const Value& value : ordered) {
        out.push_back(Value::Integer(row[col] == value));
      }
      return out;
    };
    out_rows->assign(rows.size(), Row());
    ParallelChunks(pool, rows.size(), [&](size_t, size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) (*out_rows)[r] = expand(rows[r]);
    });
    return SummaryRow({"ROWS", "CATEGORIES"},
                      {Value::Integer(static_cast<int64_t>(out_rows->size())),
                       Value::Integer(static_cast<int64_t>(ordered.size()))});
  }
};

// ---------------------------------------------------------------------------

class SampleOperator : public TableToTableOperator {
 public:
  std::string name() const override { return "SAMPLE"; }
  std::string description() const override {
    return "Bernoulli row sampling";
  }

 protected:
  Result<ResultSet> Transform(AnalyticsContext&, const ParamMap& params,
                              const Schema& in_schema,
                              const std::vector<Row>& rows, ThreadPool* pool,
                              Schema* out_schema,
                              std::vector<Row>* out_rows,
                              accel::ColumnarRows* /*out_columnar*/,
                              accel::ColumnarRows* /*in_columnar*/) override {
    (void)pool;  // the seeded RNG stream is sequential by construction;
                 // the input gather is still morsel-parallel
    IDAA_ASSIGN_OR_RETURN(double fraction,
                          GetDoubleParam(params, "fraction", 0.1));
    IDAA_ASSIGN_OR_RETURN(int64_t seed, GetIntParam(params, "seed", 42));
    if (fraction < 0.0 || fraction > 1.0) {
      return Status::InvalidArgument("fraction must be in [0,1]");
    }
    *out_schema = in_schema;
    Rng rng(static_cast<uint64_t>(seed));
    for (const Row& row : rows) {
      if (rng.Bernoulli(fraction)) out_rows->push_back(row);
    }
    return SummaryRow({"INPUT_ROWS", "SAMPLED_ROWS"},
                      {Value::Integer(static_cast<int64_t>(rows.size())),
                       Value::Integer(static_cast<int64_t>(out_rows->size()))});
  }
};

// ---------------------------------------------------------------------------

class SummarizeOperator : public AnalyticsOperator {
 public:
  std::string name() const override { return "SUMMARIZE"; }
  std::string description() const override {
    return "per-column data audit: count, nulls, distinct, min/max, "
           "mean/stddev";
  }

  Result<std::vector<std::string>> InputTables(
      const ParamMap& params) const override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    return std::vector<std::string>{Catalog::NormalizeName(input)};
  }

  Result<ResultSet> Run(AnalyticsContext& ctx, const ParamMap& params) override {
    IDAA_ASSIGN_OR_RETURN(std::string input, GetParam(params, "input"));
    IDAA_ASSIGN_OR_RETURN(Schema in_schema, ctx.TableSchema(input));
    std::vector<size_t> columns;
    std::string columns_list = GetParamOr(params, "columns", "");
    if (columns_list.empty()) {
      for (size_t c = 0; c < in_schema.NumColumns(); ++c) columns.push_back(c);
    } else {
      IDAA_ASSIGN_OR_RETURN(columns, ResolveColumns(in_schema, columns_list));
    }

    IDAA_ASSIGN_OR_RETURN(std::unique_ptr<AnalyticsInput> in,
                          ctx.OpenInput(input));
    std::vector<Row> rows = in->GatherRows(ctx.trace());

    Schema out_schema({{"COLUMN", DataType::kVarchar, false},
                       {"TYPE", DataType::kVarchar, false},
                       {"N", DataType::kInteger, false},
                       {"NULLS", DataType::kInteger, false},
                       {"DISTINCT", DataType::kInteger, false},
                       {"MIN", DataType::kVarchar, true},
                       {"MAX", DataType::kVarchar, true},
                       {"MEAN", DataType::kDouble, true},
                       {"STDDEV", DataType::kDouble, true}});

    // One independent task per audited column; within a column the scan is
    // a row loop in table order, so the result is independent of the
    // thread count.
    std::vector<Row> out_rows(columns.size());
    auto audit = [&](size_t j) {
      size_t c = columns[j];
      const ColumnDef& def = in_schema.Column(c);
      size_t nulls = 0, n = 0;
      double sum = 0, sum_sq = 0;
      Value min_v, max_v;
      std::set<Value> distinct;  // storage equality, as COUNT(DISTINCT)
      bool numeric = IsNumeric(def.type);
      for (const Row& row : rows) {
        const Value& v = row[c];
        if (v.is_null()) {
          ++nulls;
          continue;
        }
        ++n;
        distinct.insert(v);
        if (min_v.is_null()) {
          min_v = v;
          max_v = v;
        } else {
          auto lo = v.Compare(min_v);
          if (lo.ok() && *lo < 0) min_v = v;
          auto hi = v.Compare(max_v);
          if (hi.ok() && *hi > 0) max_v = v;
        }
        if (numeric) {
          auto d = v.ToDouble();
          if (d.ok()) {
            sum += *d;
            sum_sq += *d * *d;
          }
        }
      }
      Value mean = Value::Null(), stddev = Value::Null();
      if (numeric && n > 0) {
        double mu = sum / static_cast<double>(n);
        double var = sum_sq / static_cast<double>(n) - mu * mu;
        mean = Value::Double(mu);
        stddev = Value::Double(std::sqrt(std::max(0.0, var)));
      }
      out_rows[j] =
          {Value::Varchar(def.name), Value::Varchar(DataTypeToString(def.type)),
           Value::Integer(static_cast<int64_t>(n)),
           Value::Integer(static_cast<int64_t>(nulls)),
           Value::Integer(static_cast<int64_t>(distinct.size())),
           min_v.is_null() ? Value::Null()
                           : Value::Varchar(min_v.ToExactString()),
           max_v.is_null() ? Value::Null()
                           : Value::Varchar(max_v.ToExactString()),
           mean, stddev};
    };
    {
      TraceSpan span(ctx.trace(), "analytics.summarize.audit");
      span.Attr("rows", static_cast<uint64_t>(rows.size()));
      ThreadPool* pool = in->pool();
      if (pool != nullptr && columns.size() > 1) {
        pool->ParallelForDynamic(
            columns.size(), std::min(pool->num_threads(), columns.size()),
            [&](size_t, size_t j) { audit(j); });
      } else {
        for (size_t j = 0; j < columns.size(); ++j) audit(j);
      }
    }
    in.reset();  // release the scan pin before materializing the output AOT

    std::string output = GetParamOr(params, "output", "");
    if (!output.empty()) {
      IDAA_RETURN_IF_ERROR(ctx.RecreateAot(output, out_schema));
      IDAA_RETURN_IF_ERROR(ctx.AppendRows(output, out_rows));
    }
    return ResultSet(out_schema, std::move(out_rows));
  }
};

}  // namespace

std::unique_ptr<AnalyticsOperator> MakeNormalizeOperator() {
  return std::make_unique<NormalizeOperator>();
}
std::unique_ptr<AnalyticsOperator> MakeDiscretizeOperator() {
  return std::make_unique<DiscretizeOperator>();
}
std::unique_ptr<AnalyticsOperator> MakeOneHotOperator() {
  return std::make_unique<OneHotOperator>();
}
std::unique_ptr<AnalyticsOperator> MakeImputeOperator() {
  return std::make_unique<ImputeOperator>();
}
std::unique_ptr<AnalyticsOperator> MakeSampleOperator() {
  return std::make_unique<SampleOperator>();
}
std::unique_ptr<AnalyticsOperator> MakeSummarizeOperator() {
  return std::make_unique<SummarizeOperator>();
}

}  // namespace idaa::analytics
