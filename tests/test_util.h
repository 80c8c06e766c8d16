// Shared helpers for the rtic test suite.

#ifndef RTIC_TESTS_TEST_UTIL_H_
#define RTIC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/result.h"
#include "ra/relation.h"
#include "storage/database.h"
#include "storage/update_batch.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace rtic {
namespace testing {

/// ASSERT that a Status is OK, printing it otherwise.
#define RTIC_ASSERT_OK(expr)                                 \
  do {                                                       \
    ::rtic::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (0)

#define RTIC_EXPECT_OK(expr)                                 \
  do {                                                       \
    ::rtic::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                   \
  } while (0)

/// Unwraps a Result<T>, failing the test on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return T{};
  return std::move(result).value();
}

// -- value / tuple shorthand ------------------------------------------------

inline Value I(std::int64_t v) { return Value::Int64(v); }
inline Value D(double v) { return Value::Double(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value B(bool v) { return Value::Bool(v); }

inline Tuple T() { return Tuple{}; }
inline Tuple T(Value a) { return Tuple{std::move(a)}; }
inline Tuple T(Value a, Value b) { return Tuple{std::move(a), std::move(b)}; }
inline Tuple T(Value a, Value b, Value c) {
  return Tuple{std::move(a), std::move(b), std::move(c)};
}

/// Integer-typed schema with the given column names.
inline Schema IntSchema(std::vector<std::string> names) {
  std::vector<Column> cols;
  for (auto& n : names) cols.push_back(Column{std::move(n), ValueType::kInt64});
  return Schema(std::move(cols));
}

/// Integer-typed relation columns.
inline std::vector<Column> IntCols(std::vector<std::string> names) {
  std::vector<Column> cols;
  for (auto& n : names) cols.push_back(Column{std::move(n), ValueType::kInt64});
  return cols;
}

/// Builds a relation over int columns from rows of int64 literals.
inline Relation IntRelation(std::vector<std::string> names,
                            std::vector<std::vector<std::int64_t>> rows) {
  Relation rel(IntCols(std::move(names)));
  for (const auto& row : rows) {
    std::vector<Value> vals;
    for (std::int64_t v : row) vals.push_back(Value::Int64(v));
    rel.InsertUnchecked(Tuple(std::move(vals)));
  }
  return rel;
}

/// Every entry under `root`, by path relative to it: a file maps to its
/// bytes, a directory (path ending in '/') to "". Two equal snapshots mean
/// nothing under `root` was created, removed or rewritten.
inline std::map<std::string, std::string> DirSnapshot(const std::string& root) {
  std::map<std::string, std::string> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    const std::string rel =
        std::filesystem::relative(entry.path(), root).string();
    if (entry.is_directory()) {
      out[rel + "/"] = "";
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[rel] = bytes.str();
  }
  return out;
}

}  // namespace testing
}  // namespace rtic

#endif  // RTIC_TESTS_TEST_UTIL_H_
