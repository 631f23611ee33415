// Engine equivalence property tests: every query in the supported subset
// must return the same result from the DB2 volcano executor and from the
// accelerator's parallel columnar executor. The routing is flipped via the
// acceleration mode (NONE = DB2, ELIGIBLE = accelerator), exactly like the
// CURRENT QUERY ACCELERATION register in the product.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"

namespace idaa {
namespace {

/// Sorted row-text rendering for order-insensitive comparison. Doubles are
/// rounded to 9 significant digits: SUM/AVG over doubles legitimately
/// differ in the last bits between the two engines (different accumulation
/// order across data slices).
/// The equivalence runs re-execute the same SELECT with only the batch
/// path toggled; the result cache would serve the re-run from the first
/// execution and make the comparison vacuous, so it stays off here.
federation::ExecOptions NoResultCache() {
  federation::ExecOptions opts;
  opts.use_result_cache = false;
  return opts;
}

std::vector<std::string> Canonical(const ResultSet& rs, bool keep_order) {
  std::vector<std::string> lines;
  lines.reserve(rs.NumRows());
  for (const Row& row : rs.rows()) {
    std::string line;
    for (const Value& v : row) {
      if (v.is_double()) {
        line += StrFormat("%.9g", v.AsDouble());
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    lines.push_back(std::move(line));
  }
  if (!keep_order) std::sort(lines.begin(), lines.end());
  return lines;
}

class EquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new IdaaSystem();
    Seed(*system_);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static void Seed(IdaaSystem& system) {
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE orders (id INT NOT NULL, "
                                "cust INT, amount DOUBLE, region VARCHAR, "
                                "odate DATE)")
                    .ok());
    ASSERT_TRUE(system
                    .Execute("CREATE TABLE customers (cid INT NOT NULL, "
                                "name VARCHAR, tier VARCHAR)")
                    .ok());
    Rng rng(2016);
    const char* regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    const char* tiers[] = {"GOLD", "SILVER", "BRONZE"};
    for (int c = 0; c < 20; ++c) {
      std::string name = c % 7 == 0 ? "NULL" : "'cust_" + std::to_string(c) + "'";
      ASSERT_TRUE(system
                      .Execute(StrFormat(
                          "INSERT INTO customers VALUES (%d, %s, '%s')", c,
                          name.c_str(), tiers[c % 3]))
                      .ok());
    }
    for (int i = 0; i < 300; ++i) {
      int cust = static_cast<int>(rng.Uniform(0, 24));  // some dangling
      double amount = rng.UniformDouble(0, 1000);
      std::string amount_text =
          i % 11 == 0 ? "NULL" : StrFormat("%.2f", amount);
      ASSERT_TRUE(
          system
              .Execute(StrFormat(
                  "INSERT INTO orders VALUES (%d, %d, %s, '%s', DATE "
                  "'2016-0%d-1%d')",
                  i, cust, amount_text.c_str(),
                  regions[rng.Uniform(0, 3)],
                  static_cast<int>(rng.Uniform(1, 9)),
                  static_cast<int>(rng.Uniform(0, 8))))
              .ok());
    }
    ASSERT_TRUE(
        system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('orders')").ok());
    ASSERT_TRUE(
        system.Execute("CALL SYSPROC.ACCEL_ADD_TABLES('customers')").ok());
    auto flushed = system.replication().Flush();
    ASSERT_TRUE(flushed.ok());
  }

  /// Runs the query on both engines and expects identical results: DB2 is
  /// the oracle for the accelerator's single (morsel/batch) SELECT path.
  void ExpectEquivalent(const std::string& sql) {
    bool ordered = ToUpper(sql).find("ORDER BY") != std::string::npos;

    system_->SetAccelerationMode(federation::AccelerationMode::kNone);
    auto db2 = system_->Execute(sql, NoResultCache());
    ASSERT_TRUE(db2.ok()) << sql << "\nDB2: " << db2.status().ToString();
    EXPECT_EQ(db2->routed_to, federation::Target::kDb2) << sql;

    system_->SetAccelerationMode(federation::AccelerationMode::kEligible);
    auto accel = system_->Execute(sql, NoResultCache());
    ASSERT_TRUE(accel.ok()) << sql << "\nACCEL: " << accel.status().ToString();
    EXPECT_EQ(accel->routed_to, federation::Target::kAccelerator) << sql;

    EXPECT_EQ(Canonical(db2->rows, ordered),
              Canonical(accel->rows, ordered))
        << sql;
    EXPECT_EQ(db2->rows.schema().NumColumns(),
              accel->rows.schema().NumColumns());
  }

  static IdaaSystem* system_;
};

IdaaSystem* EquivalenceTest::system_ = nullptr;

class QueryEquivalence : public EquivalenceTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_P(QueryEquivalence, SameResultOnBothEngines) {
  ExpectEquivalent(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, QueryEquivalence,
    ::testing::Values(
        // scans + predicates
        "SELECT * FROM orders WHERE amount > 500",
        "SELECT id, amount FROM orders WHERE amount BETWEEN 100 AND 200",
        "SELECT id FROM orders WHERE region = 'NORTH' AND amount > 900",
        "SELECT id FROM orders WHERE region IN ('NORTH', 'SOUTH') AND id < 50",
        "SELECT id FROM orders WHERE amount IS NULL",
        "SELECT id FROM orders WHERE amount IS NOT NULL AND id % 10 = 3",
        "SELECT id FROM orders WHERE region LIKE 'N%'",
        "SELECT id FROM orders WHERE NOT (region = 'EAST' OR region = 'WEST')",
        "SELECT id FROM orders WHERE odate >= DATE '2016-05-01'",
        // expressions
        "SELECT id, amount * 1.1 AS gross, UPPER(region) FROM orders "
        "WHERE id < 20",
        "SELECT id, CASE WHEN amount > 500 THEN 'big' ELSE 'small' END "
        "FROM orders WHERE id < 30",
        "SELECT id, COALESCE(amount, 0.0) FROM orders WHERE id < 40",
        "SELECT CAST(amount AS INTEGER) FROM orders WHERE id < 25",
        // aggregation
        "SELECT COUNT(*) FROM orders",
        "SELECT COUNT(amount), SUM(amount), AVG(amount), MIN(amount), "
        "MAX(amount) FROM orders",
        "SELECT region, COUNT(*) AS n FROM orders GROUP BY region",
        "SELECT region, SUM(amount) FROM orders GROUP BY region "
        "HAVING SUM(amount) > 1000",
        "SELECT cust, COUNT(*) FROM orders GROUP BY cust",
        "SELECT region, id % 2, AVG(amount) FROM orders GROUP BY region, "
        "id % 2",
        "SELECT COUNT(DISTINCT region) FROM orders",
        "SELECT STDDEV(amount), VARIANCE(amount) FROM orders",
        // slice-aggregation stressors: NULLs in keys, expression keys,
        // ORDER BY + LIMIT after slice-side aggregation
        "SELECT name, COUNT(*) FROM customers GROUP BY name",
        "SELECT amount, COUNT(*) FROM orders GROUP BY amount",
        "SELECT cust % 5, COUNT(*) FROM orders GROUP BY cust % 5",
        "SELECT region, MIN(amount), MAX(amount) FROM orders "
        "GROUP BY region ORDER BY region LIMIT 2",
        "SELECT region, COUNT(*) FROM orders WHERE id BETWEEN 10 AND 250 "
        "GROUP BY region",
        "SELECT MIN(region), MAX(region) FROM orders",
        // distinct / order / limit
        "SELECT DISTINCT region FROM orders",
        "SELECT id, amount FROM orders ORDER BY amount DESC, id ASC LIMIT 10",
        "SELECT region, COUNT(*) FROM orders GROUP BY region ORDER BY 2 DESC",
        "SELECT id FROM orders ORDER BY id LIMIT 5",
        // joins
        "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust = c.cid "
        "WHERE o.amount > 800",
        "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
        "JOIN customers c ON o.cust = c.cid GROUP BY c.tier",
        "SELECT o.id FROM orders o LEFT JOIN customers c ON o.cust = c.cid "
        "WHERE c.cid IS NULL",
        "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
        "ON o.cust = c.cid AND c.tier = 'GOLD' WHERE o.id < 30",
        "SELECT COUNT(*) FROM orders o CROSS JOIN customers c "
        "WHERE o.id < 3 AND c.cid < 3",
        "SELECT o1.id, o2.id FROM orders o1 JOIN orders o2 "
        "ON o1.cust = o2.cust AND o1.id < o2.id WHERE o1.id < 10",
        // three-way join
        "SELECT c.tier, COUNT(*) FROM orders o "
        "JOIN customers c ON o.cust = c.cid "
        "JOIN orders o2 ON o2.id = o.id GROUP BY c.tier"));

// Randomized predicate fuzzing: DB2 and accelerator must agree on 60
// generated filters (exercises zone maps, vectorized scans and the
// residual step against DB2's row engine).
TEST_F(EquivalenceTest, RandomPredicateFuzz) {
  Rng rng(777);
  const char* regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  const char* cols[] = {"id", "cust", "amount"};
  const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
  for (int i = 0; i < 60; ++i) {
    std::string pred;
    int conjuncts = static_cast<int>(rng.Uniform(1, 3));
    for (int c = 0; c < conjuncts; ++c) {
      if (c > 0) pred += rng.Bernoulli(0.7) ? " AND " : " OR ";
      if (rng.Bernoulli(0.25)) {
        pred += StrFormat("region %s '%s'",
                          rng.Bernoulli(0.5) ? "=" : "<>",
                          regions[rng.Uniform(0, 3)]);
      } else {
        const char* col = cols[rng.Uniform(0, 2)];
        const char* op = ops[rng.Uniform(0, 5)];
        pred += StrFormat("%s %s %d", col, op,
                          static_cast<int>(rng.Uniform(-10, 900)));
      }
    }
    ExpectEquivalent("SELECT id, cust, amount, region FROM orders WHERE " +
                     pred);
  }
}

}  // namespace
}  // namespace idaa
