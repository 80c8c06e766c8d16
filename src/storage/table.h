// Table: an in-memory relation under set semantics with schema enforcement.

#ifndef RTIC_STORAGE_TABLE_H_
#define RTIC_STORAGE_TABLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace rtic {

/// A named, typed relation. Set semantics: inserting an existing tuple or
/// erasing a missing one is a no-op (reported via the bool return).
///
/// Every Table carries a process-unique `id` and a `version` that bumps on
/// each content change; (id, version) identifies one exact table content,
/// which lets evaluator caches and the domain tracker skip work for tables
/// that have not changed since they last looked. A copy gets a fresh id
/// (it is a distinct object that will diverge) and no batch record; a move
/// keeps both.
///
/// ApplyBatch additionally records the rows one batch newly inserted and
/// the version it started from, so a domain tracker that absorbed the
/// pre-batch content can absorb just those rows (BatchInsertsSince).
class Table {
 public:
  Table() : id_(NextId()) {}
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)), id_(NextId()) {}

  Table(const Table& o)
      : name_(o.name_), schema_(o.schema_), rows_(o.rows_), id_(NextId()) {}
  Table& operator=(const Table& o) {
    name_ = o.name_;
    schema_ = o.schema_;
    rows_ = o.rows_;
    id_ = NextId();
    version_ = 0;
    batch_inserts_.clear();
    batch_version_ = kNoBatch;
    return *this;
  }
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Process-unique identity of this table object (fresh on copy).
  std::uint64_t id() const { return id_; }

  /// Bumped on every content change; (id, version) pins one exact content.
  std::uint64_t version() const { return version_; }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Inserts a tuple after type-checking it against the schema.
  /// Returns true if newly inserted, false if already present.
  Result<bool> Insert(Tuple tuple);

  /// Erases a tuple. Returns true if it was present.
  bool Erase(const Tuple& tuple);

  /// Membership test (exact match).
  bool Contains(const Tuple& tuple) const;

  /// Applies one batch's changes to this table: erases `deletes`, then
  /// inserts `inserts` (either may be null), and records the batch — its
  /// pre-batch version and the rows it newly inserted, in insert order.
  /// Fails on a schema-mismatched insert, leaving no batch record.
  Status ApplyBatch(const std::vector<Tuple>* deletes,
                    const std::vector<Tuple>* inserts);

  /// The rows the last ApplyBatch newly inserted, if that batch started at
  /// `version` and nothing has changed the table since; null otherwise
  /// (no batch yet, a later Insert/Erase/Clear, or a copy). Because the
  /// batch ran its deletes first, every row it inserted is still present,
  /// so the values of the content at `version` plus these rows cover the
  /// current content.
  const std::vector<Tuple>* BatchInsertsSince(std::uint64_t version) const {
    if (version != batch_base_version_ || version_ != batch_version_) {
      return nullptr;
    }
    return &batch_inserts_;
  }

  /// Removes all rows.
  void Clear() {
    if (!rows_.empty()) ++version_;
    rows_.clear();
  }

  /// Row iteration (unspecified order).
  const std::unordered_set<Tuple, TupleHash>& rows() const { return rows_; }

  bool operator==(const Table& o) const {
    return schema_ == o.schema_ && rows_ == o.rows_;
  }

  /// Multi-line debug dump: name, schema, rows in sorted order.
  std::string ToString() const;

 private:
  static std::uint64_t NextId();

  static constexpr std::uint64_t kNoBatch =
      std::numeric_limits<std::uint64_t>::max();

  std::string name_;
  Schema schema_;
  std::unordered_set<Tuple, TupleHash> rows_;
  std::uint64_t id_ = 0;
  std::uint64_t version_ = 0;
  // The last ApplyBatch: the version it started from, the version it left
  // (kNoBatch while none is recorded), and the rows it newly inserted.
  std::uint64_t batch_base_version_ = 0;
  std::uint64_t batch_version_ = kNoBatch;
  std::vector<Tuple> batch_inserts_;
};

}  // namespace rtic

#endif  // RTIC_STORAGE_TABLE_H_
