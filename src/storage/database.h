// Database: a catalog of named tables — one logical database *state*.
// Histories are sequences of such states; Database is copyable so the naive
// engine can snapshot it.

#ifndef RTIC_STORAGE_DATABASE_H_
#define RTIC_STORAGE_DATABASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace rtic {

/// One database state: named tables plus schema catalog. Copy = deep
/// snapshot.
class Database {
 public:
  Database() : layout_id_(NextLayoutId()) {}
  Database(const Database& o)
      : tables_(o.tables_), layout_id_(NextLayoutId()) {}
  Database(Database&& o) noexcept
      : tables_(std::move(o.tables_)), layout_id_(NextLayoutId()) {
    o.layout_id_ = NextLayoutId();
  }
  Database& operator=(const Database& o) {
    tables_ = o.tables_;
    layout_id_ = NextLayoutId();
    return *this;
  }
  Database& operator=(Database&& o) noexcept {
    tables_ = std::move(o.tables_);
    layout_id_ = NextLayoutId();
    o.layout_id_ = NextLayoutId();
    return *this;
  }

  /// Process-unique identity of this object's table set: fresh on
  /// construction, copy, move and every CreateTable/DropTable. While it is
  /// unchanged, a Table pointer obtained from this object stays valid and
  /// still names the same table slot — the basis for callers that key
  /// cached results by table pointers without looking tables up again.
  std::uint64_t layout_id() const { return layout_id_; }

  /// Every table, by name (sorted iteration).
  const std::map<std::string, Table>& tables() const { return tables_; }

  /// Creates an empty table. Fails if the name already exists.
  Status CreateTable(const std::string& name, Schema schema);

  /// True iff a table with this name exists.
  bool HasTable(const std::string& name) const;

  /// Looks up a table; NotFound if absent.
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);

  /// Drops a table; NotFound if absent.
  Status DropTable(const std::string& name);

  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Total number of rows across all tables (storage-cost accounting).
  std::size_t TotalRows() const;

  /// All distinct values of the given type occurring anywhere in the
  /// database — the per-state active domain used by quantifier and negation
  /// semantics.
  std::vector<Value> ActiveDomain(ValueType type) const;

  bool operator==(const Database& o) const { return tables_ == o.tables_; }

  /// Multi-line debug dump of every table.
  std::string ToString() const;

 private:
  static std::uint64_t NextLayoutId();

  std::map<std::string, Table> tables_;
  std::uint64_t layout_id_ = 0;
};

}  // namespace rtic

#endif  // RTIC_STORAGE_DATABASE_H_
