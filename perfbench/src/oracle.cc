#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using idaa::Row;
using idaa::Value;

namespace {

bool IsNumeric(const Value& v) { return v.is_integer() || v.is_double(); }

double AsNumber(const Value& v) {
  return v.is_integer() ? static_cast<double>(v.AsInteger()) : v.AsDouble();
}

bool ValuesMatch(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    double x = AsNumber(a), y = AsNumber(b);
    if (x == y) return true;
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a == b;
}

// Sort key that keeps rows differing only by float rounding adjacent: doubles
// are rendered with 6 significant digits.
std::string SortKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (IsNumeric(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", AsNumber(v));
      key += buf;
    } else {
      key += v.ToString();
    }
    key += '\x1f';
  }
  return key;
}

std::string RenderRow(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

std::optional<std::string> CompareRows(std::vector<Row> got,
                                       std::vector<Row> want) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  auto sorted = [](const std::vector<Row>& rows) {
    std::vector<std::pair<std::string, size_t>> keyed;
    keyed.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      keyed.emplace_back(SortKey(rows[i]), i);
    }
    std::sort(keyed.begin(), keyed.end());
    return keyed;
  };
  auto g = sorted(got), w = sorted(want);
  for (size_t r = 0; r < got.size(); ++r) {
    const Row& a = got[g[r].second];
    const Row& b = want[w[r].second];
    bool same = a.size() == b.size();
    for (size_t c = 0; same && c < a.size(); ++c) {
      same = ValuesMatch(a[c], b[c]);
    }
    if (!same) return "row " + RenderRow(a) + " != expected " + RenderRow(b);
  }
  return std::nullopt;
}

std::optional<std::string> CompareResults(const idaa::ResultSet& got,
                                          const idaa::ResultSet& want) {
  return CompareRows(got.rows(), want.rows());
}

std::string ExactRender(const idaa::ResultSet& rs) {
  std::string out;
  for (const Row& row : rs.rows()) {
    for (const Value& v : row) {
      if (v.is_double()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
