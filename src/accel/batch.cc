#include "accel/batch.h"

#include <limits>

namespace idaa::accel {

namespace {

// Canonical [lo, hi] interval form of a numeric compare: each of the five
// operators ExtractColumnRanges emits — and the fused BETWEEN shape — is an
// interval with per-bound strictness, so one predicate object serves the
// element loops and the run-at-a-time RLE kernel alike. NULLs are rejected
// before Pass() is consulted. Semantics match the raw-array loops this
// replaced: NaN fails every bound, and an unknown operator yields an empty
// interval (ExtractColumnRanges never produces one).
template <typename T>
struct Bounds {
  T lo;
  T hi;
  bool lo_strict = false;
  bool hi_strict = false;

  bool Pass(T v) const {
    return (lo_strict ? v > lo : v >= lo) && (hi_strict ? v < hi : v <= hi);
  }
};

template <typename T>
Bounds<T> MakeBounds(const CompiledCompare& cmp, T lit, T upper_lit, T min_v,
                     T max_v) {
  Bounds<T> b{min_v, max_v, false, false};
  auto apply = [&b](sql::BinaryOp op, T v) {
    switch (op) {
      case sql::BinaryOp::kEq:
        b.lo = v;
        b.hi = v;
        b.lo_strict = false;
        b.hi_strict = false;
        break;
      case sql::BinaryOp::kLt:
        b.hi = v;
        b.hi_strict = true;
        break;
      case sql::BinaryOp::kLtEq:
        b.hi = v;
        b.hi_strict = false;
        break;
      case sql::BinaryOp::kGt:
        b.lo = v;
        b.lo_strict = true;
        break;
      case sql::BinaryOp::kGtEq:
        b.lo = v;
        b.lo_strict = false;
        break;
      default:
        // Non-range operators never reach the batch path; make the
        // interval empty so behavior stays "drop everything".
        b.lo = v;
        b.hi = v;
        b.lo_strict = true;
        b.hi_strict = true;
        break;
    }
  };
  apply(cmp.op, lit);
  if (cmp.has_upper) apply(cmp.upper_op, upper_lit);
  return b;
}

// One adapter per CompiledCompare::Rep: how to read a value from each
// storage region (hot tail / plain zone / RLE run / FOR-packed element)
// and how to test it. kForDirect marks reps with a direct kernel on
// FOR-packed zones; the rest decode the zone into scratch (the generic
// fallback path, counted separately in BatchScanStats).
struct IntAdapter {
  static constexpr bool kForDirect = true;
  const int64_t* tail;
  Bounds<int64_t> b;
  bool Pass(int64_t v) const { return b.Pass(v); }
  int64_t Tail(size_t t) const { return tail[t]; }
  int64_t Plain(const EncodedZone& z, size_t off) const { return z.ints[off]; }
  int64_t Run(const EncodedZone& z, size_t r) const { return z.ints[r]; }
  int64_t For(const EncodedZone& z, size_t off) const {
    if (z.bit_width == 0) return z.for_base;
    return z.for_base + static_cast<int64_t>(ExtractPacked(z.packed.data(),
                                                           off, z.bit_width));
  }
  int64_t Decoded(int64_t v) const { return v; }
};

// Numeric cross-type comparison (int storage vs double literal). No direct
// kernel on FOR-packed zones: this is the deliberately-generic decode
// fallback shape, keeping that path exercised.
struct IntAsDoubleAdapter {
  static constexpr bool kForDirect = false;
  const int64_t* tail;
  Bounds<double> b;
  bool Pass(double v) const { return b.Pass(v); }
  double Tail(size_t t) const { return static_cast<double>(tail[t]); }
  double Plain(const EncodedZone& z, size_t off) const {
    return static_cast<double>(z.ints[off]);
  }
  double Run(const EncodedZone& z, size_t r) const {
    return static_cast<double>(z.ints[r]);
  }
  double For(const EncodedZone&, size_t) const { return 0; }  // fallback
  double Decoded(int64_t v) const { return static_cast<double>(v); }
};

struct DoubleAdapter {
  static constexpr bool kForDirect = true;  // doubles never FOR-pack
  const double* tail;
  Bounds<double> b;
  bool Pass(double v) const { return b.Pass(v); }
  double Tail(size_t t) const { return tail[t]; }
  double Plain(const EncodedZone& z, size_t off) const {
    return z.doubles[off];
  }
  double Run(const EncodedZone& z, size_t r) const { return z.doubles[r]; }
  double For(const EncodedZone&, size_t) const { return 0; }  // unreachable
  double Decoded(int64_t) const { return 0; }                 // unreachable
};

struct CodeEqAdapter {
  static constexpr bool kForDirect = true;
  const uint32_t* tail;
  uint32_t lit;
  bool Pass(uint32_t v) const { return v == lit; }
  uint32_t Tail(size_t t) const { return tail[t]; }
  uint32_t Plain(const EncodedZone& z, size_t off) const {
    return z.codes[off];
  }
  uint32_t Run(const EncodedZone& z, size_t r) const { return z.codes[r]; }
  uint32_t For(const EncodedZone& z, size_t off) const {
    if (z.bit_width == 0) return static_cast<uint32_t>(z.for_base);
    return static_cast<uint32_t>(
        z.for_base +
        static_cast<int64_t>(ExtractPacked(z.packed.data(), off,
                                           z.bit_width)));
  }
  uint32_t Decoded(int64_t v) const {  // unreachable
    return static_cast<uint32_t>(v);
  }
};

struct CodeTableAdapter {
  static constexpr bool kForDirect = true;
  const uint32_t* tail;
  const std::vector<uint8_t>* pass;
  bool Pass(uint32_t v) const { return v < pass->size() && (*pass)[v]; }
  uint32_t Tail(size_t t) const { return tail[t]; }
  uint32_t Plain(const EncodedZone& z, size_t off) const {
    return z.codes[off];
  }
  uint32_t Run(const EncodedZone& z, size_t r) const { return z.codes[r]; }
  uint32_t For(const EncodedZone& z, size_t off) const {
    if (z.bit_width == 0) return static_cast<uint32_t>(z.for_base);
    return static_cast<uint32_t>(
        z.for_base +
        static_cast<int64_t>(ExtractPacked(z.packed.data(), off,
                                           z.bit_width)));
  }
  uint32_t Decoded(int64_t v) const {  // unreachable
    return static_cast<uint32_t>(v);
  }
};

// Compact `sel` (ascending, morsel-relative offsets) in place to the rows
// passing one compare, dispatching per storage region: encoded zones get
// their per-encoding kernel — RLE evaluates once per run and replays the
// verdict across the run's selected rows — and the hot tail runs the flat
// loops. Returns the surviving count.
template <typename Adapter>
size_t FilterColumn(const Column& col, const Adapter& ad, size_t sel_base,
                    std::vector<uint32_t>& sel, BatchScanStats* stats,
                    std::vector<int64_t>& scratch,
                    std::vector<uint8_t>& scratch_nulls) {
  const size_t n = sel.size();
  const size_t er = col.encoded_rows();
  const size_t zsz = col.zone_size();
  const uint8_t* tail_nulls = col.TailNullsData();
  size_t kept = 0;
  size_t k = 0;
  while (k < n) {
    const size_t i0 = sel_base + sel[k];
    if (i0 >= er) {
      // Hot tail: covers the rest of the ascending selection.
      for (; k < n; ++k) {
        const uint32_t off = sel[k];
        const size_t t = sel_base + off - er;
        if (!tail_nulls[t] && ad.Pass(ad.Tail(t))) sel[kept++] = off;
      }
      break;
    }
    const size_t zi = i0 / zsz;
    const size_t zone_begin = zi * zsz;
    const size_t zone_end = zone_begin + zsz;
    size_t k2 = k;
    while (k2 < n && sel_base + sel[k2] < zone_end) ++k2;
    const EncodedZone& z = col.encoded_zone(zi);
    switch (z.encoding) {
      case ZoneEncoding::kPlain:
        if (stats) stats->rows_encoded_eval += k2 - k;
        for (; k < k2; ++k) {
          const uint32_t off = sel[k];
          const size_t zoff = sel_base + off - zone_begin;
          if (!BitmapGet(z.null_bits, zoff) && ad.Pass(ad.Plain(z, zoff))) {
            sel[kept++] = off;
          }
        }
        break;
      case ZoneEncoding::kRle: {
        if (stats) stats->rows_encoded_eval += k2 - k;
        size_t run = 0;
        size_t run_begin = 0;
        int verdict = -1;  // lazily evaluated per run
        for (; k < k2; ++k) {
          const uint32_t off = sel[k];
          const size_t zoff = sel_base + off - zone_begin;
          while (z.run_ends[run] <= zoff) {
            run_begin = z.run_ends[run];
            ++run;
            verdict = -1;
          }
          if (verdict < 0) {
            verdict = !BitmapGet(z.null_bits, run_begin) &&
                              ad.Pass(ad.Run(z, run))
                          ? 1
                          : 0;
          }
          if (verdict) sel[kept++] = off;
        }
        break;
      }
      case ZoneEncoding::kForPacked:
        if constexpr (Adapter::kForDirect) {
          if (stats) stats->rows_encoded_eval += k2 - k;
          for (; k < k2; ++k) {
            const uint32_t off = sel[k];
            const size_t zoff = sel_base + off - zone_begin;
            if (!BitmapGet(z.null_bits, zoff) && ad.Pass(ad.For(z, zoff))) {
              sel[kept++] = off;
            }
          }
        } else {
          // Decode fallback: no direct kernel for this predicate shape on
          // a FOR-packed zone; materialize the zone into scratch and run
          // the generic element loop.
          if (stats) stats->rows_decode_fallback += k2 - k;
          scratch.resize(zsz);
          scratch_nulls.resize(zsz);
          col.DecodeZoneInts(zi, scratch.data(), scratch_nulls.data());
          for (; k < k2; ++k) {
            const uint32_t off = sel[k];
            const size_t zoff = sel_base + off - zone_begin;
            if (!scratch_nulls[zoff] && ad.Pass(ad.Decoded(scratch[zoff]))) {
              sel[kept++] = off;
            }
          }
        }
        break;
    }
  }
  return kept;
}

// True when the op holds for a three-way comparison result `c`
// (c = compare(element, literal)).
bool OpHolds(sql::BinaryOp op, int c) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return c == 0;
    case sql::BinaryOp::kLt:
      return c < 0;
    case sql::BinaryOp::kLtEq:
      return c <= 0;
    case sql::BinaryOp::kGt:
      return c > 0;
    case sql::BinaryOp::kGtEq:
      return c >= 0;
    default:
      return false;
  }
}

}  // namespace

BatchPredicate CompileBatchPredicate(
    const std::vector<ColumnRange>& ranges,
    const std::vector<std::unique_ptr<Column>>& columns) {
  BatchPredicate out;
  for (const ColumnRange& r : ranges) {
    const Column& col = *columns[r.column];
    const Value& lit = r.literal;
    if (lit.is_null()) {
      // Value::Compare errors on NULL: no row can satisfy such a conjunct
      // (a NULL comparison is never TRUE in SQL either).
      out.never_matches = true;
      return out;
    }
    CompiledCompare cc;
    cc.column = r.column;
    cc.op = r.op;
    switch (col.type()) {
      case DataType::kBoolean:
        // Compare admits only boolean-vs-boolean here.
        if (!lit.is_boolean()) {
          out.never_matches = true;
          return out;
        }
        cc.rep = CompiledCompare::Rep::kInt;
        cc.int_literal = lit.AsBoolean() ? 1 : 0;
        break;
      case DataType::kInteger:
      case DataType::kDate:
      case DataType::kTimestamp: {
        if (lit.is_varchar() || lit.is_boolean()) {
          out.never_matches = true;
          return out;
        }
        if (col.type() == DataType::kInteger && lit.is_integer()) {
          // Same-kind integers take Value::Compare's exact path.
          cc.rep = CompiledCompare::Rep::kInt;
          cc.int_literal = lit.AsInteger();
        } else {
          // Numeric cross-type comparison goes through double, exactly as
          // Value::Compare does.
          auto d = lit.ToDouble();
          if (!d.ok()) {
            out.never_matches = true;
            return out;
          }
          cc.rep = CompiledCompare::Rep::kIntAsDouble;
          cc.double_literal = *d;
        }
        break;
      }
      case DataType::kDouble: {
        if (lit.is_varchar() || lit.is_boolean()) {
          out.never_matches = true;
          return out;
        }
        auto d = lit.ToDouble();
        if (!d.ok()) {
          out.never_matches = true;
          return out;
        }
        cc.rep = CompiledCompare::Rep::kDouble;
        cc.double_literal = *d;
        break;
      }
      case DataType::kVarchar: {
        if (!lit.is_varchar()) {
          out.never_matches = true;
          return out;
        }
        if (r.op == sql::BinaryOp::kEq) {
          int64_t code = col.LookupCode(lit.AsVarchar());
          if (code < 0) {
            out.never_matches = true;
            return out;
          }
          cc.rep = CompiledCompare::Rep::kCode;
          cc.code_literal = static_cast<uint32_t>(code);
        } else {
          // Ordering on VARCHAR: evaluate the string comparison once per
          // dictionary entry instead of once per row.
          cc.rep = CompiledCompare::Rep::kCodeTable;
          cc.pass_table.resize(col.DictSize());
          for (uint32_t code = 0; code < cc.pass_table.size(); ++code) {
            int c = col.DictEntry(code).compare(lit.AsVarchar());
            cc.pass_table[code] = OpHolds(r.op, c < 0 ? -1 : (c > 0 ? 1 : 0));
          }
        }
        break;
      }
    }
    out.compares.push_back(std::move(cc));
  }
  // Fuse a lower and an upper bound on the same numeric column (the shape
  // BETWEEN produces) into one range compare so the scan makes a single
  // pass over the data instead of two.
  auto is_lower = [](sql::BinaryOp op) {
    return op == sql::BinaryOp::kGt || op == sql::BinaryOp::kGtEq;
  };
  auto is_upper = [](sql::BinaryOp op) {
    return op == sql::BinaryOp::kLt || op == sql::BinaryOp::kLtEq;
  };
  auto numeric = [](CompiledCompare::Rep rep) {
    return rep == CompiledCompare::Rep::kInt ||
           rep == CompiledCompare::Rep::kIntAsDouble ||
           rep == CompiledCompare::Rep::kDouble;
  };
  for (size_t i = 0; i < out.compares.size(); ++i) {
    CompiledCompare& a = out.compares[i];
    if (a.has_upper || !numeric(a.rep)) continue;
    if (!is_lower(a.op) && !is_upper(a.op)) continue;
    for (size_t j = i + 1; j < out.compares.size(); ++j) {
      CompiledCompare& b = out.compares[j];
      if (b.has_upper || b.column != a.column || b.rep != a.rep) continue;
      const bool a_lower = is_lower(a.op);
      if (a_lower ? !is_upper(b.op) : !is_lower(b.op)) continue;
      if (!a_lower) {
        // Normalize so `op` holds the lower bound.
        std::swap(a.op, b.op);
        std::swap(a.int_literal, b.int_literal);
        std::swap(a.double_literal, b.double_literal);
      }
      a.has_upper = true;
      a.upper_op = b.op;
      a.upper_int = b.int_literal;
      a.upper_double = b.double_literal;
      out.compares.erase(out.compares.begin() + j);
      break;
    }
  }
  return out;
}

void FilterVisibility(const TxnId* createxid, const TxnId* deletexid,
                      size_t range_begin, size_t range_end, size_t sel_base,
                      const TransactionManager::VisibilityChecker& visibility,
                      std::vector<uint32_t>* sel) {
  // Bulk loads leave long runs of identical (createxid, deletexid) pairs;
  // memoizing the previous pair turns the per-row hash-map probes inside
  // IsVisible into a pair of integer compares for those runs. IsVisible is
  // stable for a given pair within one checker (it caches per-xid verdicts),
  // so the memo cannot diverge from a direct call.
  const size_t old_size = sel->size();
  sel->resize(old_size + (range_end - range_begin));
  uint32_t* out = sel->data() + old_size;
  bool have_last = false;
  TxnId last_create = 0;
  TxnId last_delete = 0;
  bool last_visible = false;
  for (size_t i = range_begin; i < range_end; ++i) {
    const TxnId c = createxid[i];
    const TxnId d = deletexid[i];
    if (!have_last || c != last_create || d != last_delete) {
      last_visible = visibility.IsVisible(c, d);
      last_create = c;
      last_delete = d;
      have_last = true;
    }
    *out = static_cast<uint32_t>(i - sel_base);
    out += last_visible ? 1 : 0;
  }
  sel->resize(static_cast<size_t>(out - sel->data()));
}

void ApplyBatchPredicate(const BatchPredicate& predicate,
                         const std::vector<std::unique_ptr<Column>>& columns,
                         size_t sel_base, std::vector<uint32_t>* sel,
                         BatchScanStats* stats) {
  std::vector<int64_t> scratch;
  std::vector<uint8_t> scratch_nulls;
  for (const CompiledCompare& cmp : predicate.compares) {
    if (sel->empty()) return;
    const Column& col = *columns[cmp.column];
    size_t kept = 0;
    switch (cmp.rep) {
      case CompiledCompare::Rep::kInt: {
        IntAdapter ad{col.TailIntsData(),
                      MakeBounds<int64_t>(cmp, cmp.int_literal, cmp.upper_int,
                                          std::numeric_limits<int64_t>::min(),
                                          std::numeric_limits<int64_t>::max())};
        kept = FilterColumn(col, ad, sel_base, *sel, stats, scratch,
                            scratch_nulls);
        break;
      }
      case CompiledCompare::Rep::kIntAsDouble: {
        IntAsDoubleAdapter ad{
            col.TailIntsData(),
            MakeBounds<double>(cmp, cmp.double_literal, cmp.upper_double,
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity())};
        kept = FilterColumn(col, ad, sel_base, *sel, stats, scratch,
                            scratch_nulls);
        break;
      }
      case CompiledCompare::Rep::kDouble: {
        DoubleAdapter ad{
            col.TailDoublesData(),
            MakeBounds<double>(cmp, cmp.double_literal, cmp.upper_double,
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity())};
        kept = FilterColumn(col, ad, sel_base, *sel, stats, scratch,
                            scratch_nulls);
        break;
      }
      case CompiledCompare::Rep::kCode: {
        CodeEqAdapter ad{col.TailCodesData(), cmp.code_literal};
        kept = FilterColumn(col, ad, sel_base, *sel, stats, scratch,
                            scratch_nulls);
        break;
      }
      case CompiledCompare::Rep::kCodeTable: {
        CodeTableAdapter ad{col.TailCodesData(), &cmp.pass_table};
        kept = FilterColumn(col, ad, sel_base, *sel, stats, scratch,
                            scratch_nulls);
        break;
      }
    }
    sel->resize(kept);
  }
}

}  // namespace idaa::accel
