// DataType and Value: the scalar type system shared by the DB2 row engine
// and the accelerator column engine.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace idaa {

/// SQL column types in the implemented subset.
enum class DataType : uint8_t {
  kBoolean = 0,
  kInteger,    ///< 64-bit signed integer (covers SMALLINT/INT/BIGINT).
  kDouble,     ///< 64-bit IEEE float (covers REAL/DOUBLE/DECFLOAT).
  kVarchar,    ///< Variable-length UTF-8 string.
  kDate,       ///< Days since 1970-01-01, stored as int32.
  kTimestamp,  ///< Microseconds since 1970-01-01T00:00:00Z, stored as int64.
};

/// "INTEGER", "VARCHAR", ... (SQL spelling).
const char* DataTypeToString(DataType type);

/// Parse a SQL type name ("INT", "BIGINT", "VARCHAR", "DOUBLE", ...).
Result<DataType> DataTypeFromString(const std::string& name);

/// True if the type is INTEGER, DOUBLE, DATE or TIMESTAMP (orderable numerics).
bool IsNumeric(DataType type);

/// A single SQL scalar value, possibly NULL. NULL values remember no type;
/// typing is carried by the enclosing Schema.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) { return Value(Payload(v)); }
  static Value Integer(int64_t v) { return Value(Payload(v)); }
  static Value Double(double v) { return Value(Payload(v)); }
  static Value Varchar(std::string v) { return Value(Payload(std::move(v))); }
  static Value Date(int32_t days) { return Value(Payload(DateRep{days})); }
  static Value Timestamp(int64_t micros) {
    return Value(Payload(TimestampRep{micros}));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_boolean() const { return std::holds_alternative<bool>(data_); }
  bool is_integer() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_varchar() const { return std::holds_alternative<std::string>(data_); }
  bool is_date() const { return std::holds_alternative<DateRep>(data_); }
  bool is_timestamp() const {
    return std::holds_alternative<TimestampRep>(data_);
  }

  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsInteger() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsVarchar() const { return std::get<std::string>(data_); }
  int32_t AsDate() const { return std::get<DateRep>(data_).days; }
  int64_t AsTimestamp() const { return std::get<TimestampRep>(data_).micros; }

  /// Numeric view: INTEGER/DOUBLE/DATE/TIMESTAMP/BOOLEAN as double.
  /// Returns error for VARCHAR/NULL.
  Result<double> ToDouble() const;

  /// The dynamic type of a non-null value; error for NULL.
  Result<DataType> Type() const;

  /// Lossless-where-possible coercion to `target`. INTEGER<->DOUBLE,
  /// anything->VARCHAR (formatting), VARCHAR->numeric (parsing). NULL stays
  /// NULL. Errors on non-convertible input.
  Result<Value> CastTo(DataType target) const;

  /// Three-valued-logic equality on the SQL level is handled by the
  /// expression evaluator; this operator is *storage* equality where
  /// NULL == NULL (used by containers/tests).
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total storage order: NULL first, then by type index, then by value
  /// (used for ORDER BY and zone maps; SQL comparisons use Compare()).
  bool operator<(const Value& other) const;

  /// SQL comparison of two non-null values of compatible types:
  /// -1, 0, +1. Error if either is NULL or types are incomparable.
  Result<int> Compare(const Value& other) const;

  /// Display string: "NULL", "42", "3.5", "'abc'"-less raw text. Doubles
  /// render with %.6g, so distinct doubles can share a display string.
  std::string ToString() const;

  /// ToString, except that doubles render with %.17g, which round-trips:
  /// distinct values of one type never share an exact string. For names
  /// and labels derived from data (APRIORI items, ONEHOT columns, class
  /// labels, SUMMARIZE extrema).
  std::string ToExactString() const;

  /// Approximate in-memory footprint in bytes; used for transfer metering.
  size_t ByteSize() const;

  /// Stable hash, for hash joins / group by / distribution. NULLs hash equal.
  size_t Hash() const;

 private:
  struct DateRep {
    int32_t days;
    bool operator==(const DateRep&) const = default;
    auto operator<=>(const DateRep&) const = default;
  };
  struct TimestampRep {
    int64_t micros;
    bool operator==(const TimestampRep&) const = default;
    auto operator<=>(const TimestampRep&) const = default;
  };
  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string, DateRep, TimestampRep>;

  explicit Value(Payload payload) : data_(std::move(payload)) {}

  Payload data_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Hash functor so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Parse "YYYY-MM-DD" into days since epoch.
Result<int32_t> ParseDate(const std::string& text);

/// Format days since epoch as "YYYY-MM-DD".
std::string FormatDate(int32_t days);

}  // namespace idaa
