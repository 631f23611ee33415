#include "gen.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using idaa::DataType;
using idaa::Row;
using idaa::Schema;
using idaa::Value;

namespace {

const char* const kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
const char* const kTiers[] = {"GOLD", "SILVER", "BRONZE", "BASIC"};
const char* const kChannels[] = {"WEB", "STORE", "PHONE"};

std::string Format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

// The fixed dashboard statements the `report` class re-issues.
const std::vector<std::string>& ReportStatements() {
  static const std::vector<std::string> kReports = {
      "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region "
      "ORDER BY region",
      "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c "
      "ON o.cust = c.cid GROUP BY c.tier ORDER BY c.tier",
      "SELECT COUNT(*), SUM(amount), MIN(qty), MAX(qty) FROM orders",
      "SELECT qty, COUNT(*) FROM orders WHERE region = 'NORTH' GROUP BY qty "
      "ORDER BY qty",
  };
  return kReports;
}

// Cent-exact amount in [0, 1000): identical text and value on both engines.
double Amount(uint64_t h) { return static_cast<double>(h % 100000) / 100.0; }

}  // namespace

const char* ClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kLookup: return "lookup";
    case StmtClass::kScan: return "scan";
    case StmtClass::kJoin: return "join";
    case StmtClass::kReport: return "report";
    case StmtClass::kTxn: return "txn";
    case StmtClass::kPipeline: return "pipeline";
  }
  return "?";
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t client) {
  return Mix64(Mix64(seed) ^ (0xC2B2AE3D27D4EB4FULL * (client + 1)));
}

// -- tables ------------------------------------------------------------------

Schema OrdersSchema() {
  return Schema({{"ID", DataType::kInteger, false},
                 {"CUST", DataType::kInteger, true},
                 {"AMOUNT", DataType::kDouble, true},
                 {"REGION", DataType::kVarchar, true},
                 {"QTY", DataType::kInteger, true}});
}

Schema CustomersSchema() {
  return Schema({{"CID", DataType::kInteger, false},
                 {"TIER", DataType::kVarchar, true},
                 {"SCORE", DataType::kDouble, true}});
}

std::string OrdersDdl(bool distribute_by_id) {
  return std::string("CREATE TABLE orders (id INT NOT NULL, cust INT, "
                     "amount DOUBLE, region VARCHAR, qty INT)") +
         (distribute_by_id ? " DISTRIBUTE BY (id)" : "");
}

std::string CustomersDdl() {
  return "CREATE TABLE customers (cid INT NOT NULL, tier VARCHAR, "
         "score DOUBLE)";
}

Row OrderRow(uint64_t seed, int64_t id, int64_t customers) {
  uint64_t h = Mix64(Mix64(seed ^ 0x0DE5) + static_cast<uint64_t>(id));
  uint64_t g = Mix64(h);
  return Row{Value::Integer(id),
             Value::Integer(static_cast<int64_t>(
                 h % static_cast<uint64_t>(customers))),
             Value::Double(Amount(g)), Value::Varchar(kRegions[(g >> 40) & 3]),
             Value::Integer(1 + static_cast<int64_t>((h >> 44) % 50))};
}

Row CustomerRow(uint64_t seed, int64_t cid) {
  uint64_t h = Mix64(Mix64(seed ^ 0xC057) + static_cast<uint64_t>(cid));
  return Row{Value::Integer(cid), Value::Varchar(kTiers[h & 3]),
             Value::Double(static_cast<double>((h >> 8) % 10000) / 100.0)};
}

// -- read clients -------------------------------------------------------------

ReadStream::ReadStream(uint64_t stream_seed, int64_t orders, int64_t customers,
                       std::vector<StmtClass> classes)
    : rng_(stream_seed), orders_(orders), customers_(customers),
      classes_(std::move(classes)) {}

ReadStmt ReadStream::Next() {
  if (pos_ == round_.size()) {
    round_ = classes_;
    for (size_t i = round_.size(); i > 1; --i) {  // Fisher-Yates
      int64_t j = rng_.Uniform(0, static_cast<int64_t>(i) - 1);
      std::swap(round_[i - 1], round_[j]);
    }
    pos_ = 0;
  }
  ReadStmt out;
  out.cls = round_[pos_++];
  out.sql = Make(out.cls);
  out.round_end = pos_ == round_.size();
  return out;
}

std::string ReadStream::Make(StmtClass cls) {
  switch (cls) {
    case StmtClass::kLookup: {
      if (rng_.Uniform(0, 1) == 0) {
        return Format("SELECT id, cust, amount, region, qty FROM orders "
                      "WHERE id = %lld",
                      static_cast<long long>(rng_.Uniform(0, orders_ - 1)));
      }
      long long lo = rng_.Uniform(0, orders_ - 1000);
      return Format("SELECT COUNT(*), SUM(amount), MAX(qty) FROM orders "
                    "WHERE id BETWEEN %lld AND %lld",
                    lo, lo + 999);
    }
    case StmtClass::kScan: {
      switch (rng_.Uniform(0, 2)) {
        case 0:
          return Format("SELECT COUNT(*), SUM(amount), AVG(qty) FROM orders "
                        "WHERE amount > %lld AND qty < %lld",
                        static_cast<long long>(rng_.Uniform(0, 900)),
                        static_cast<long long>(rng_.Uniform(5, 50)));
        case 1: {
          long long lo = rng_.Uniform(1, 40);
          return Format("SELECT region, COUNT(*), SUM(amount) FROM orders "
                        "WHERE qty BETWEEN %lld AND %lld GROUP BY region "
                        "ORDER BY region",
                        lo, lo + rng_.Uniform(0, 10));
        }
        default:
          return Format("SELECT qty, COUNT(*), MIN(amount), MAX(amount) "
                        "FROM orders WHERE cust < %lld GROUP BY qty "
                        "ORDER BY qty",
                        static_cast<long long>(rng_.Uniform(1, customers_)));
      }
    }
    case StmtClass::kJoin: {
      if (rng_.Uniform(0, 1) == 0) {
        return Format("SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
                      "JOIN customers c ON o.cust = c.cid WHERE c.score > %lld "
                      "GROUP BY c.tier ORDER BY c.tier",
                      static_cast<long long>(rng_.Uniform(0, 99)));
      }
      return Format("SELECT c.tier, COUNT(*), AVG(o.qty) FROM orders o "
                    "JOIN customers c ON o.cust = c.cid WHERE o.amount < %lld "
                    "GROUP BY c.tier ORDER BY c.tier",
                    static_cast<long long>(rng_.Uniform(1, 1000)));
    }
    case StmtClass::kReport: {
      const auto& reports = ReportStatements();
      return reports[rng_.Uniform(0, static_cast<int64_t>(reports.size()) - 1)];
    }
    default:
      return "";
  }
}

// -- order entry --------------------------------------------------------------

OrderEntryStream::OrderEntryStream(uint64_t stream_seed, int64_t orders,
                                   int64_t customers)
    : rng_(stream_seed), row_seed_(Mix64(stream_seed)), orders_(orders),
      customers_(customers), next_id_(orders) {}

OrderTxn OrderEntryStream::Next() {
  Row row = OrderRow(row_seed_, next_id_++, customers_);
  OrderTxn txn;
  txn.insert_sql = Format(
      "INSERT INTO orders VALUES (%lld, %lld, %.2f, '%s', %lld)",
      static_cast<long long>(row[0].AsInteger()),
      static_cast<long long>(row[1].AsInteger()), row[2].AsDouble(),
      row[3].ToString().c_str(), static_cast<long long>(row[4].AsInteger()));
  txn.update_sql = Format(
      "UPDATE orders SET amount = %.2f, qty = %lld WHERE id = %lld",
      Amount(rng_.Next()), static_cast<long long>(rng_.Uniform(1, 50)),
      static_cast<long long>(rng_.Uniform(0, orders_ - 1)));
  return txn;
}

// -- ELT ----------------------------------------------------------------------

Schema RawSchema() {
  return Schema({{"ID", DataType::kInteger, true},
                 {"CUST", DataType::kInteger, true},
                 {"AMOUNT", DataType::kDouble, true},
                 {"QTY", DataType::kInteger, true},
                 {"CHANNEL", DataType::kVarchar, true}});
}

Row RawRow(uint64_t seed, int64_t i, int64_t customers) {
  uint64_t h = Mix64(Mix64(seed ^ 0xE17) + static_cast<uint64_t>(i));
  uint64_t g = Mix64(h);
  return Row{Value::Integer(i),
             Value::Integer(static_cast<int64_t>(
                 h % static_cast<uint64_t>(customers))),
             Value::Double(Amount(g)),
             Value::Integer(1 + static_cast<int64_t>((h >> 44) % 50)),
             Value::Varchar(kChannels[(g >> 40) % 3])};
}

EltPlan MakeEltPlan(uint64_t seed) {
  StreamRng rng(StreamSeed(seed, kEltStream));
  EltPlan plan;
  plan.drop_sql = {"DROP TABLE elt_raw", "DROP TABLE elt_enriched",
                   "DROP TABLE elt_features"};
  plan.create_sql = {
      "CREATE TABLE elt_raw (id INT, cust INT, amount DOUBLE, qty INT, "
      "channel VARCHAR) IN ACCELERATOR",
      "CREATE TABLE elt_enriched (id INT, cust INT, amount DOUBLE, qty INT, "
      "revenue DOUBLE, tier VARCHAR) IN ACCELERATOR",
      "CREATE TABLE elt_features (cust INT, orders INT, spend DOUBLE, "
      "avg_qty DOUBLE) IN ACCELERATOR"};
  plan.load_table = "elt_raw";
  plan.stage_sql = {
      "INSERT INTO elt_enriched SELECT r.id, r.cust, r.amount, r.qty, "
      "r.amount * r.qty, c.tier FROM elt_raw r JOIN customers c "
      "ON r.cust = c.cid WHERE r.qty > 2",
      "INSERT INTO elt_features SELECT cust, COUNT(*), SUM(revenue), "
      "AVG(qty) FROM elt_enriched GROUP BY cust ORDER BY cust"};
  plan.analytics_sql = {
      {"NORMALIZE",
       "CALL IDAA.NORMALIZE('input=elt_features', 'output=elt_norm', "
       "'columns=spend,avg_qty')"},
      {"KMEANS",
       Format("CALL IDAA.KMEANS('input=elt_norm', 'output=elt_segments', "
              "'columns=spend,avg_qty', 'k=4', 'seed=%lld', "
              "'centroids_output=elt_centers')",
              static_cast<long long>(rng.Uniform(1, 1000)))},
      {"NAIVEBAYES",
       "CALL IDAA.NAIVEBAYES('input=elt_enriched', 'label=tier', "
       "'columns=amount,qty,revenue')"}};
  return plan;
}

}  // namespace perfbench
