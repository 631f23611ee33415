#include "common/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/string_util.h"

namespace idaa {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kBoolean:
      return "BOOLEAN";
    case DataType::kInteger:
      return "INTEGER";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kVarchar:
      return "VARCHAR";
    case DataType::kDate:
      return "DATE";
    case DataType::kTimestamp:
      return "TIMESTAMP";
  }
  return "UNKNOWN";
}

Result<DataType> DataTypeFromString(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "BOOLEAN" || upper == "BOOL") return DataType::kBoolean;
  if (upper == "INTEGER" || upper == "INT" || upper == "BIGINT" ||
      upper == "SMALLINT") {
    return DataType::kInteger;
  }
  if (upper == "DOUBLE" || upper == "FLOAT" || upper == "REAL" ||
      upper == "DECFLOAT") {
    return DataType::kDouble;
  }
  if (upper == "VARCHAR" || upper == "CHAR" || upper == "STRING" ||
      upper == "TEXT") {
    return DataType::kVarchar;
  }
  if (upper == "DATE") return DataType::kDate;
  if (upper == "TIMESTAMP") return DataType::kTimestamp;
  return Status::InvalidArgument("unknown data type: " + name);
}

bool IsNumeric(DataType type) {
  switch (type) {
    case DataType::kInteger:
    case DataType::kDouble:
    case DataType::kDate:
    case DataType::kTimestamp:
      return true;
    default:
      return false;
  }
}

Result<double> Value::ToDouble() const {
  if (is_integer()) return static_cast<double>(AsInteger());
  if (is_double()) return AsDouble();
  if (is_boolean()) return AsBoolean() ? 1.0 : 0.0;
  if (is_date()) return static_cast<double>(AsDate());
  if (is_timestamp()) return static_cast<double>(AsTimestamp());
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

Result<DataType> Value::Type() const {
  if (is_null()) return Status::InvalidArgument("NULL has no dynamic type");
  if (is_boolean()) return DataType::kBoolean;
  if (is_integer()) return DataType::kInteger;
  if (is_double()) return DataType::kDouble;
  if (is_varchar()) return DataType::kVarchar;
  if (is_date()) return DataType::kDate;
  return DataType::kTimestamp;
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  switch (target) {
    case DataType::kBoolean:
      if (is_boolean()) return *this;
      if (is_integer()) return Value::Boolean(AsInteger() != 0);
      break;
    case DataType::kInteger: {
      if (is_integer()) return *this;
      if (is_double()) {
        return Value::Integer(static_cast<int64_t>(std::llround(AsDouble())));
      }
      if (is_boolean()) return Value::Integer(AsBoolean() ? 1 : 0);
      if (is_date()) return Value::Integer(AsDate());
      if (is_timestamp()) return Value::Integer(AsTimestamp());
      if (is_varchar()) {
        const std::string& s = AsVarchar();
        int64_t out = 0;
        auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
        if (ec == std::errc() && ptr == s.data() + s.size()) {
          return Value::Integer(out);
        }
        return Status::InvalidArgument("cannot cast '" + s + "' to INTEGER");
      }
      break;
    }
    case DataType::kDouble: {
      if (is_double()) return *this;
      if (is_integer()) return Value::Double(static_cast<double>(AsInteger()));
      if (is_boolean()) return Value::Double(AsBoolean() ? 1.0 : 0.0);
      if (is_date()) return Value::Double(static_cast<double>(AsDate()));
      if (is_timestamp()) {
        return Value::Double(static_cast<double>(AsTimestamp()));
      }
      if (is_varchar()) {
        const std::string& s = AsVarchar();
        try {
          size_t pos = 0;
          double out = std::stod(s, &pos);
          if (pos == s.size()) return Value::Double(out);
        } catch (...) {
          // fall through to the error below
        }
        return Status::InvalidArgument("cannot cast '" + s + "' to DOUBLE");
      }
      break;
    }
    case DataType::kVarchar:
      if (is_varchar()) return *this;
      return Value::Varchar(ToString());
    case DataType::kDate: {
      if (is_date()) return *this;
      if (is_integer()) {
        return Value::Date(static_cast<int32_t>(AsInteger()));
      }
      if (is_varchar()) {
        IDAA_ASSIGN_OR_RETURN(int32_t days, ParseDate(AsVarchar()));
        return Value::Date(days);
      }
      if (is_timestamp()) {
        return Value::Date(static_cast<int32_t>(AsTimestamp() / 86'400'000'000LL));
      }
      break;
    }
    case DataType::kTimestamp:
      if (is_timestamp()) return *this;
      if (is_integer()) return Value::Timestamp(AsInteger());
      if (is_date()) {
        return Value::Timestamp(static_cast<int64_t>(AsDate()) *
                                86'400'000'000LL);
      }
      break;
  }
  return Status::InvalidArgument("cannot cast " + ToString() + " to " +
                                 DataTypeToString(target));
}

bool Value::operator<(const Value& other) const {
  if (data_.index() != other.data_.index()) {
    return data_.index() < other.data_.index();
  }
  return data_ < other.data_;
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("NULL is not comparable");
  }
  // Numeric cross-type comparison via double.
  if (!is_varchar() && !other.is_varchar() && !is_boolean() &&
      !other.is_boolean()) {
    // Exact path for same-kind integers to avoid double rounding.
    if (is_integer() && other.is_integer()) {
      int64_t a = AsInteger(), b = other.AsInteger();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    IDAA_ASSIGN_OR_RETURN(double a, ToDouble());
    IDAA_ASSIGN_OR_RETURN(double b, other.ToDouble());
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_varchar() && other.is_varchar()) {
    int c = AsVarchar().compare(other.AsVarchar());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_boolean() && other.is_boolean()) {
    int a = AsBoolean() ? 1 : 0, b = other.AsBoolean() ? 1 : 0;
    return a - b;
  }
  return Status::InvalidArgument("incomparable values: " + ToString() + " vs " +
                                 other.ToString());
}

std::string Value::ToExactString() const {
  if (!is_double()) return ToString();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", AsDouble());
  return buf;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_boolean()) return AsBoolean() ? "TRUE" : "FALSE";
  if (is_integer()) return std::to_string(AsInteger());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
    return buf;
  }
  if (is_varchar()) return AsVarchar();
  if (is_date()) return FormatDate(AsDate());
  return std::to_string(AsTimestamp());
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_boolean()) return 1;
  if (is_integer() || is_double() || is_timestamp()) return 8;
  if (is_date()) return 4;
  return AsVarchar().size() + 4;  // length prefix
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  std::hash<int64_t> hi;
  std::hash<double> hd;
  std::hash<std::string> hs;
  if (is_boolean()) return hi(AsBoolean() ? 1 : 0) ^ 0x1;
  if (is_integer()) return hi(AsInteger());
  if (is_double()) return hd(AsDouble());
  if (is_varchar()) return hs(AsVarchar());
  if (is_date()) return hi(AsDate()) ^ 0x5;
  return hi(AsTimestamp()) ^ 0x6;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

namespace {

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

}  // namespace

Result<int32_t> ParseDate(const std::string& text) {
  int year = 0, month = 0, day = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &year, &month, &day) != 3) {
    return Status::InvalidArgument("invalid date literal: '" + text +
                                   "' (expected YYYY-MM-DD)");
  }
  if (month < 1 || month > 12 || day < 1) {
    return Status::InvalidArgument("invalid date literal: '" + text + "'");
  }
  int max_day = kDaysInMonth[month - 1] + (month == 2 && IsLeapYear(year));
  if (day > max_day) {
    return Status::InvalidArgument("invalid date literal: '" + text + "'");
  }
  // Days since 1970-01-01 (valid for years >= 1 with the proleptic calendar).
  int64_t days = 0;
  if (year >= 1970) {
    for (int y = 1970; y < year; ++y) days += IsLeapYear(y) ? 366 : 365;
  } else {
    for (int y = year; y < 1970; ++y) days -= IsLeapYear(y) ? 366 : 365;
  }
  for (int m = 1; m < month; ++m) {
    days += kDaysInMonth[m - 1] + (m == 2 && IsLeapYear(year));
  }
  days += day - 1;
  return static_cast<int32_t>(days);
}

std::string FormatDate(int32_t days) {
  int year = 1970;
  int64_t remaining = days;
  while (remaining < 0) {
    --year;
    remaining += IsLeapYear(year) ? 366 : 365;
  }
  while (true) {
    int in_year = IsLeapYear(year) ? 366 : 365;
    if (remaining < in_year) break;
    remaining -= in_year;
    ++year;
  }
  int month = 1;
  while (true) {
    int in_month = kDaysInMonth[month - 1] + (month == 2 && IsLeapYear(year));
    if (remaining < in_month) break;
    remaining -= in_month;
    ++month;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month,
                static_cast<int>(remaining) + 1);
  return buf;
}

}  // namespace idaa
