// Result comparison against the DB2 row engine, the reference oracle for
// every accelerator result.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/row.h"

namespace perfbench {

/// Compare two result sets as row multisets (row order is ignored; ORDER BY
/// outputs are also compared as multisets because ties may order either
/// way). Doubles match within a relative 1e-9, since the engines may sum in
/// different orders; every other value must be equal. Returns a description
/// of the first difference, or nullopt when they match.
std::optional<std::string> CompareResults(const idaa::ResultSet& got,
                                          const idaa::ResultSet& want);

/// Same comparison over bare row vectors (table contents).
std::optional<std::string> CompareRows(std::vector<idaa::Row> got,
                                       std::vector<idaa::Row> want);

/// Every value of the result rendered exactly (doubles with 17 significant
/// digits): equal strings mean bit-identical results.
std::string ExactRender(const idaa::ResultSet& rs);

}  // namespace perfbench
