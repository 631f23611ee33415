#include "sql/expression_eval.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace idaa::sql {

namespace {

/// Three-valued logic truth value.
enum class Tri { kFalse, kTrue, kNull };

Tri ValueToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.is_boolean()) return v.AsBoolean() ? Tri::kTrue : Tri::kFalse;
  // Numeric non-zero is true (lenient, matches our CASE/predicate use).
  if (v.is_integer()) return v.AsInteger() != 0 ? Tri::kTrue : Tri::kFalse;
  return Tri::kTrue;
}

Result<Value> EvalArith(BinaryOp op, const Value& lhs, const Value& rhs) {
  // Integer-preserving arithmetic (DB2: INT op INT -> INT, incl. division).
  if (lhs.is_integer() && rhs.is_integer()) {
    int64_t a = lhs.AsInteger(), b = rhs.AsInteger();
    switch (op) {
      case BinaryOp::kAdd: return Value::Integer(a + b);
      case BinaryOp::kSub: return Value::Integer(a - b);
      case BinaryOp::kMul: return Value::Integer(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Integer(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Integer(a % b);
      default:
        break;
    }
  }
  // DATE +/- integer days.
  if (lhs.is_date() && rhs.is_integer()) {
    if (op == BinaryOp::kAdd) {
      return Value::Date(lhs.AsDate() + static_cast<int32_t>(rhs.AsInteger()));
    }
    if (op == BinaryOp::kSub) {
      return Value::Date(lhs.AsDate() - static_cast<int32_t>(rhs.AsInteger()));
    }
  }
  if (lhs.is_date() && rhs.is_date() && op == BinaryOp::kSub) {
    return Value::Integer(static_cast<int64_t>(lhs.AsDate()) - rhs.AsDate());
  }
  IDAA_ASSIGN_OR_RETURN(double a, lhs.ToDouble());
  IDAA_ASSIGN_OR_RETURN(double b, rhs.ToDouble());
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(a + b);
    case BinaryOp::kSub: return Value::Double(a - b);
    case BinaryOp::kMul: return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(std::fmod(a, b));
    default:
      return Status::Internal("EvalArith called with non-arithmetic op");
  }
}

Result<Value> EvalComparison(BinaryOp op, const Value& lhs, const Value& rhs) {
  IDAA_ASSIGN_OR_RETURN(int cmp, lhs.Compare(rhs));
  bool out = false;
  switch (op) {
    case BinaryOp::kEq: out = cmp == 0; break;
    case BinaryOp::kNotEq: out = cmp != 0; break;
    case BinaryOp::kLt: out = cmp < 0; break;
    case BinaryOp::kLtEq: out = cmp <= 0; break;
    case BinaryOp::kGt: out = cmp > 0; break;
    case BinaryOp::kGtEq: out = cmp >= 0; break;
    default:
      return Status::Internal("EvalComparison called with non-comparison op");
  }
  return Value::Boolean(out);
}

Result<Value> EvalFunction(const BoundExpr& expr,
                           const std::vector<Value>& args) {
  const std::string& fn = expr.function_name;
  auto require_args = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::SemanticError(fn + ": wrong argument count");
    }
    return Status::OK();
  };

  // NULL-tolerant functions first.
  if (fn == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (fn == "NULLIF") {
    IDAA_RETURN_IF_ERROR(require_args(2, 2));
    if (args[0].is_null()) return Value::Null();
    if (args[1].is_null()) return args[0];
    IDAA_ASSIGN_OR_RETURN(int cmp, args[0].Compare(args[1]));
    return cmp == 0 ? Value::Null() : args[0];
  }

  // Everything else: NULL in -> NULL out.
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();
  }

  if (fn == "ABS") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    if (args[0].is_integer()) return Value::Integer(std::llabs(args[0].AsInteger()));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    return Value::Double(std::fabs(d));
  }
  if (fn == "SIGN") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    return Value::Integer(d > 0 ? 1 : (d < 0 ? -1 : 0));
  }
  if (fn == "SQRT") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    if (d < 0) return Status::InvalidArgument("SQRT of negative value");
    return Value::Double(std::sqrt(d));
  }
  if (fn == "EXP") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    return Value::Double(std::exp(d));
  }
  if (fn == "LN" || fn == "LOG") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    if (d <= 0) return Status::InvalidArgument("LN of non-positive value");
    return Value::Double(std::log(d));
  }
  if (fn == "POWER" || fn == "POW") {
    IDAA_RETURN_IF_ERROR(require_args(2, 2));
    IDAA_ASSIGN_OR_RETURN(double a, args[0].ToDouble());
    IDAA_ASSIGN_OR_RETURN(double b, args[1].ToDouble());
    return Value::Double(std::pow(a, b));
  }
  if (fn == "FLOOR") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    if (args[0].is_integer()) return args[0];
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    return Value::Double(std::floor(d));
  }
  if (fn == "CEIL" || fn == "CEILING") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    if (args[0].is_integer()) return args[0];
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    return Value::Double(std::ceil(d));
  }
  if (fn == "ROUND") {
    IDAA_RETURN_IF_ERROR(require_args(1, 2));
    IDAA_ASSIGN_OR_RETURN(double d, args[0].ToDouble());
    double scale = 1.0;
    if (args.size() == 2) {
      IDAA_ASSIGN_OR_RETURN(double digits, args[1].ToDouble());
      scale = std::pow(10.0, digits);
    }
    double rounded = std::round(d * scale) / scale;
    if (args[0].is_integer() && args.size() == 1) {
      return Value::Integer(static_cast<int64_t>(rounded));
    }
    return Value::Double(rounded);
  }
  if (fn == "MOD") {
    IDAA_RETURN_IF_ERROR(require_args(2, 2));
    return EvalArith(BinaryOp::kMod, args[0], args[1]);
  }
  if (fn == "LEAST" || fn == "GREATEST") {
    if (args.empty()) return Status::SemanticError(fn + ": needs arguments");
    Value best = args[0];
    for (size_t i = 1; i < args.size(); ++i) {
      IDAA_ASSIGN_OR_RETURN(int cmp, args[i].Compare(best));
      if ((fn == "LEAST" && cmp < 0) || (fn == "GREATEST" && cmp > 0)) {
        best = args[i];
      }
    }
    return best;
  }
  if (fn == "UPPER" || fn == "UCASE") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    return Value::Varchar(ToUpper(args[0].ToString()));
  }
  if (fn == "LOWER" || fn == "LCASE") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    return Value::Varchar(ToLower(args[0].ToString()));
  }
  if (fn == "LENGTH") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    return Value::Integer(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (fn == "TRIM") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    return Value::Varchar(Trim(args[0].ToString()));
  }
  if (fn == "SUBSTR" || fn == "SUBSTRING") {
    IDAA_RETURN_IF_ERROR(require_args(2, 3));
    std::string s = args[0].ToString();
    IDAA_ASSIGN_OR_RETURN(double startd, args[1].ToDouble());
    int64_t start = static_cast<int64_t>(startd);  // 1-based
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size()) return Value::Varchar("");
    size_t from = static_cast<size_t>(start - 1);
    size_t len = s.size() - from;
    if (args.size() == 3) {
      IDAA_ASSIGN_OR_RETURN(double lend, args[2].ToDouble());
      if (lend < 0) return Status::InvalidArgument("SUBSTR: negative length");
      len = std::min(len, static_cast<size_t>(lend));
    }
    return Value::Varchar(s.substr(from, len));
  }
  if (fn == "CONCAT") {
    std::string out;
    for (const Value& v : args) out += v.ToString();
    return Value::Varchar(std::move(out));
  }
  if (fn == "REPLACE") {
    IDAA_RETURN_IF_ERROR(require_args(3, 3));
    std::string s = args[0].ToString();
    const std::string from = args[1].ToString();
    const std::string to = args[2].ToString();
    if (from.empty()) return Value::Varchar(std::move(s));
    std::string out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(from, pos);
      if (hit == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      out += s.substr(pos, hit - pos);
      out += to;
      pos = hit + from.size();
    }
    return Value::Varchar(std::move(out));
  }
  if (fn == "YEAR" || fn == "MONTH" || fn == "DAY") {
    IDAA_RETURN_IF_ERROR(require_args(1, 1));
    IDAA_ASSIGN_OR_RETURN(Value date, args[0].CastTo(DataType::kDate));
    std::string text = FormatDate(date.AsDate());  // YYYY-MM-DD
    if (fn == "YEAR") return Value::Integer(std::stoll(text.substr(0, 4)));
    if (fn == "MONTH") return Value::Integer(std::stoll(text.substr(5, 2)));
    return Value::Integer(std::stoll(text.substr(8, 2)));
  }
  return Status::SemanticError("unknown function: " + fn);
}

/// Two's-complement int64 addition, wrapping mod 2^64 on overflow — the
/// integer SUM's overflow result, which AccumulateInt64Run's folded
/// multiply-add reproduces. Adding in uint64_t keeps the wrap defined; a
/// signed `+=` that overflows is undefined behaviour.
int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace

Result<Value> EvalExpr(const BoundExpr& expr, const Row& row) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return expr.literal;
    case BoundExprKind::kColumn:
    case BoundExprKind::kSlotRef:
      if (expr.index >= row.size()) {
        return Status::Internal(StrFormat("column index %zu out of range %zu",
                                          expr.index, row.size()));
      }
      return row[expr.index];
    case BoundExprKind::kUnary: {
      IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row));
      if (expr.unary_op == UnaryOp::kNot) {
        Tri t = v.is_null() ? Tri::kNull : ValueToTri(v);
        if (t == Tri::kNull) return Value::Null();
        return Value::Boolean(t == Tri::kFalse);
      }
      if (v.is_null()) return Value::Null();
      if (v.is_integer()) return Value::Integer(-v.AsInteger());
      IDAA_ASSIGN_OR_RETURN(double d, v.ToDouble());
      return Value::Double(-d);
    }
    case BoundExprKind::kBinary: {
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        IDAA_ASSIGN_OR_RETURN(Value lv, EvalExpr(*expr.children[0], row));
        Tri lt = ValueToTri(lv);
        // Short-circuit where 3VL allows.
        if (expr.binary_op == BinaryOp::kAnd && lt == Tri::kFalse) {
          return Value::Boolean(false);
        }
        if (expr.binary_op == BinaryOp::kOr && lt == Tri::kTrue) {
          return Value::Boolean(true);
        }
        IDAA_ASSIGN_OR_RETURN(Value rv, EvalExpr(*expr.children[1], row));
        Tri rt = ValueToTri(rv);
        if (expr.binary_op == BinaryOp::kAnd) {
          if (lt == Tri::kTrue && rt == Tri::kTrue) return Value::Boolean(true);
          if (lt == Tri::kFalse || rt == Tri::kFalse) return Value::Boolean(false);
          return Value::Null();
        }
        if (lt == Tri::kTrue || rt == Tri::kTrue) return Value::Boolean(true);
        if (lt == Tri::kFalse && rt == Tri::kFalse) return Value::Boolean(false);
        return Value::Null();
      }
      IDAA_ASSIGN_OR_RETURN(Value lv, EvalExpr(*expr.children[0], row));
      IDAA_ASSIGN_OR_RETURN(Value rv, EvalExpr(*expr.children[1], row));
      if (lv.is_null() || rv.is_null()) return Value::Null();
      switch (expr.binary_op) {
        case BinaryOp::kConcatOp:
          return Value::Varchar(lv.ToString() + rv.ToString());
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return EvalComparison(expr.binary_op, lv, rv);
        default:
          return EvalArith(expr.binary_op, lv, rv);
      }
    }
    case BoundExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*child, row));
        args.push_back(std::move(v));
      }
      return EvalFunction(expr, args);
    }
    case BoundExprKind::kCase: {
      size_t pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        IDAA_ASSIGN_OR_RETURN(Value cond, EvalExpr(*expr.children[2 * i], row));
        if (ValueToTri(cond) == Tri::kTrue) {
          return EvalExpr(*expr.children[2 * i + 1], row);
        }
      }
      if (expr.has_else) return EvalExpr(*expr.children.back(), row);
      return Value::Null();
    }
    case BoundExprKind::kInList: {
      IDAA_ASSIGN_OR_RETURN(Value probe, EvalExpr(*expr.children[0], row));
      if (probe.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        IDAA_ASSIGN_OR_RETURN(Value item, EvalExpr(*expr.children[i], row));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        IDAA_ASSIGN_OR_RETURN(int cmp, probe.Compare(item));
        if (cmp == 0) return Value::Boolean(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Boolean(expr.negated);
    }
    case BoundExprKind::kBetween: {
      IDAA_ASSIGN_OR_RETURN(Value probe, EvalExpr(*expr.children[0], row));
      IDAA_ASSIGN_OR_RETURN(Value lo, EvalExpr(*expr.children[1], row));
      IDAA_ASSIGN_OR_RETURN(Value hi, EvalExpr(*expr.children[2], row));
      if (probe.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      IDAA_ASSIGN_OR_RETURN(int clo, probe.Compare(lo));
      IDAA_ASSIGN_OR_RETURN(int chi, probe.Compare(hi));
      bool in = clo >= 0 && chi <= 0;
      return Value::Boolean(expr.negated ? !in : in);
    }
    case BoundExprKind::kIsNull: {
      IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row));
      bool is_null = v.is_null();
      return Value::Boolean(expr.negated ? !is_null : is_null);
    }
    case BoundExprKind::kLike: {
      IDAA_ASSIGN_OR_RETURN(Value text, EvalExpr(*expr.children[0], row));
      IDAA_ASSIGN_OR_RETURN(Value pattern, EvalExpr(*expr.children[1], row));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      bool match = LikeMatch(text.ToString(), pattern.ToString());
      return Value::Boolean(expr.negated ? !match : match);
    }
    case BoundExprKind::kCast: {
      IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row));
      return v.CastTo(expr.cast_type);
    }
  }
  return Status::Internal("unhandled bound expression kind");
}

Result<bool> EvalPredicate(const BoundExpr& expr, const Row& row) {
  IDAA_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row));
  return ValueToTri(v) == Tri::kTrue;
}

AggregateAccumulator::AggregateAccumulator(const BoundAggregate& agg)
    : func_(agg.func), distinct_(agg.distinct), result_type_(agg.result_type) {}

void AggregateAccumulator::Accumulate(const Value& v) {
  ++row_count_;
  if (v.is_null()) return;
  if (distinct_) {
    for (const Value& s : seen_) {
      if (s == v) return;
    }
    seen_.push_back(v);
  }
  ++non_null_count_;
  if (min_.is_null()) {
    min_ = v;
    max_ = v;
  } else {
    auto cmp_min = v.Compare(min_);
    if (cmp_min.ok() && *cmp_min < 0) min_ = v;
    auto cmp_max = v.Compare(max_);
    if (cmp_max.ok() && *cmp_max > 0) max_ = v;
  }
  if (v.is_integer()) {
    int_sum_ = WrappingAdd(int_sum_, v.AsInteger());
    sum_ += static_cast<double>(v.AsInteger());
    sum_sq_ += static_cast<double>(v.AsInteger()) * v.AsInteger();
  } else {
    auto d = v.ToDouble();
    if (d.ok()) {
      int_exact_ = false;
      sum_ += *d;
      sum_sq_ += *d * *d;
    }
  }
}

void AggregateAccumulator::AccumulateInt64(int64_t v) {
  ++row_count_;
  ++non_null_count_;
  if (min_.is_null()) {
    min_ = Value::Integer(v);
    max_ = Value::Integer(v);
  } else {
    // The batch path feeds one column, so min_/max_ are integers too and
    // Value::Compare's exact integer path applies.
    if (v < min_.AsInteger()) min_ = Value::Integer(v);
    if (v > max_.AsInteger()) max_ = Value::Integer(v);
  }
  int_sum_ = WrappingAdd(int_sum_, v);
  sum_ += static_cast<double>(v);
  sum_sq_ += static_cast<double>(v) * v;
}

void AggregateAccumulator::AccumulateDouble(double v) {
  ++row_count_;
  ++non_null_count_;
  if (min_.is_null()) {
    min_ = Value::Double(v);
    max_ = Value::Double(v);
  } else {
    // NaN fails both comparisons, exactly like Value::Compare's
    // three-way result of 0.
    if (v < min_.AsDouble()) min_ = Value::Double(v);
    if (v > max_.AsDouble()) max_ = Value::Double(v);
  }
  int_exact_ = false;
  sum_ += v;
  sum_sq_ += v * v;
}

void AggregateAccumulator::AccumulateInt64Run(int64_t v, uint64_t n) {
  if (n == 0) return;
  row_count_ += n;
  non_null_count_ += n;
  if (min_.is_null()) {
    min_ = Value::Integer(v);
    max_ = Value::Integer(v);
  } else {
    if (v < min_.AsInteger()) min_ = Value::Integer(v);
    if (v > max_.AsInteger()) max_ = Value::Integer(v);
  }
  // n wrapping adds == one wrapping multiply-add (exact mod 2^64).
  int_sum_ = static_cast<int64_t>(static_cast<uint64_t>(int_sum_) +
                                  static_cast<uint64_t>(v) * n);
  // Finalize never reads sum_/sum_sq_ for MIN/MAX/COUNT, nor for an
  // integer-exact SUM; everywhere else float addition is order-dependent,
  // so replay the adds to stay bit-identical with the unfolded path.
  bool needs_sum =
      func_ == AggFunc::kAvg || func_ == AggFunc::kStddev ||
      func_ == AggFunc::kVariance ||
      (func_ == AggFunc::kSum && result_type_ != DataType::kInteger);
  if (needs_sum) {
    double d = static_cast<double>(v);
    if (func_ == AggFunc::kStddev || func_ == AggFunc::kVariance) {
      double sq = d * d;
      for (uint64_t i = 0; i < n; ++i) {
        sum_ += d;
        sum_sq_ += sq;
      }
    } else {
      for (uint64_t i = 0; i < n; ++i) sum_ += d;
    }
  }
}

void AggregateAccumulator::AccumulateDoubleRun(double v, uint64_t n) {
  if (n == 0) return;
  row_count_ += n;
  non_null_count_ += n;
  if (min_.is_null()) {
    min_ = Value::Double(v);
    max_ = Value::Double(v);
  } else {
    if (v < min_.AsDouble()) min_ = Value::Double(v);
    if (v > max_.AsDouble()) max_ = Value::Double(v);
  }
  int_exact_ = false;
  bool needs_sum = func_ == AggFunc::kSum || func_ == AggFunc::kAvg ||
                   func_ == AggFunc::kStddev || func_ == AggFunc::kVariance;
  if (needs_sum) {
    if (func_ == AggFunc::kStddev || func_ == AggFunc::kVariance) {
      double sq = v * v;
      for (uint64_t i = 0; i < n; ++i) {
        sum_ += v;
        sum_sq_ += sq;
      }
    } else {
      for (uint64_t i = 0; i < n; ++i) sum_ += v;
    }
  }
}

Status AggregateAccumulator::Merge(const AggregateAccumulator& other) {
  if (distinct_ || other.distinct_) {
    return Status::NotSupported("DISTINCT aggregates cannot be merged");
  }
  row_count_ += other.row_count_;
  non_null_count_ += other.non_null_count_;
  sum_ += other.sum_;
  int_sum_ = WrappingAdd(int_sum_, other.int_sum_);
  int_exact_ = int_exact_ && other.int_exact_;
  sum_sq_ += other.sum_sq_;
  if (min_.is_null()) {
    min_ = other.min_;
    max_ = other.max_;
  } else if (!other.min_.is_null()) {
    auto cmp_min = other.min_.Compare(min_);
    if (cmp_min.ok() && *cmp_min < 0) min_ = other.min_;
    auto cmp_max = other.max_.Compare(max_);
    if (cmp_max.ok() && *cmp_max > 0) max_ = other.max_;
  }
  return Status::OK();
}

Value AggregateAccumulator::Finalize() const {
  switch (func_) {
    case AggFunc::kCountStar:
      return Value::Integer(static_cast<int64_t>(row_count_));
    case AggFunc::kCount:
      return Value::Integer(static_cast<int64_t>(non_null_count_));
    case AggFunc::kSum:
      if (non_null_count_ == 0) return Value::Null();
      if (int_exact_ && result_type_ == DataType::kInteger) {
        return Value::Integer(int_sum_);
      }
      return Value::Double(sum_);
    case AggFunc::kAvg:
      if (non_null_count_ == 0) return Value::Null();
      return Value::Double(sum_ / static_cast<double>(non_null_count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
    case AggFunc::kVariance:
    case AggFunc::kStddev: {
      if (non_null_count_ == 0) return Value::Null();
      double n = static_cast<double>(non_null_count_);
      double mean = sum_ / n;
      double var = sum_sq_ / n - mean * mean;
      if (var < 0) var = 0;  // numeric noise
      return Value::Double(func_ == AggFunc::kVariance ? var : std::sqrt(var));
    }
  }
  return Value::Null();
}

}  // namespace idaa::sql
