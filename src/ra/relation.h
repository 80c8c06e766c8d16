// Relation: an intermediate query result — named, typed columns plus a set of
// rows. Formula evaluation represents "the set of satisfying valuations" as a
// Relation whose columns are the formula's free variables.
//
// Zero-column relations encode booleans: the empty relation is FALSE and the
// relation containing the single empty tuple is TRUE. Closed formulas
// evaluate to one of these two.
//
// Copying a Relation allocates nothing. The column layout is immutable and
// shared, so a copy, and a result built over an operand's columns, bumps a
// refcount instead of copying the column list. Row storage is
// copy-on-write: copies share one row set until one of them is mutated.
// Join indexes built by GetIndex are cached on the shared row storage, so a
// relation that is repeatedly joined on the same key (auxiliary state across
// transitions) pays for the index once and maintains it incrementally on
// insert.

#ifndef RTIC_RA_RELATION_H_
#define RTIC_RA_RELATION_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace rtic {

/// Hash of the values of `t` at `positions`. This is the probe hash used on
/// both sides of an index lookup; Relation::Index buckets are keyed by it.
std::size_t HashTupleKey(const Tuple& t,
                         const std::vector<std::size_t>& positions);

/// Named-column row set under set semantics.
class Relation {
 public:
  /// Hash index over a subset of columns: key hash -> rows whose key columns
  /// hash to it. Buckets are keyed by hash only, so probes must verify key
  /// equality element-wise (collisions are possible).
  struct Index {
    std::vector<std::size_t> key;
    std::unordered_map<std::size_t, std::vector<const Tuple*>> buckets;
  };

  /// An immutable column list that relations share; null for zero
  /// columns.
  using Layout = std::shared_ptr<const std::vector<Column>>;

  /// Empty relation with no columns (boolean FALSE).
  Relation() = default;

  /// Empty relation with the given columns (allocates a new layout).
  explicit Relation(std::vector<Column> columns)
      : layout_(MakeLayout(std::move(columns))) {}

  /// Empty relation on an existing layout (allocates nothing).
  explicit Relation(Layout layout) : layout_(std::move(layout)) {}

  /// A layout holding `columns`; null when there are none.
  static Layout MakeLayout(std::vector<Column> columns);

  /// Validating factory: rejects duplicate column names.
  static Result<Relation> Make(std::vector<Column> columns);

  /// The zero-column TRUE relation (one empty tuple). Every TRUE shares one
  /// row set; copy-on-write detaches a copy that is mutated.
  static Relation True();

  /// The zero-column FALSE relation (no tuples).
  static Relation False() { return Relation(); }

  const std::vector<Column>& columns() const {
    return layout_ ? *layout_ : EmptyColumns();
  }
  const Layout& layout() const { return layout_; }
  std::size_t arity() const { return layout_ ? layout_->size() : 0; }

  /// Index of column `name`, or nullopt.
  std::optional<std::size_t> IndexOf(const std::string& name) const;

  /// Column names in order.
  std::vector<std::string> ColumnNames() const;

  std::size_t size() const { return rep_ ? rep_->rows.size() : 0; }
  bool empty() const { return !rep_ || rep_->rows.empty(); }

  /// For zero-column relations: boolean reading. For others: "non-empty".
  bool AsBool() const { return !empty(); }

  /// Adds a row after arity/type checking.
  Status Insert(Tuple row);

  /// Adds a row without checking (hot path; caller guarantees conformance).
  void InsertUnchecked(Tuple row);

  /// Removes a row if present; returns whether it was. Cached indexes are
  /// maintained incrementally (the erased row's pointer is dropped from its
  /// buckets), so long-lived relations mutated by insert/erase deltas — the
  /// incremental engine's published `current` relations — keep their join
  /// indexes hot instead of rebuilding them per transition.
  bool Erase(const Tuple& row);

  bool Contains(const Tuple& row) const {
    return rep_ && rep_->rows.find(row) != rep_->rows.end();
  }

  /// Identity of the shared row storage: two Relations with equal non-null
  /// identities hold the same row set (copy-on-write guarantees a shared
  /// Rep is never mutated in place). Holding a Relation copy pins the
  /// identity — the pointer cannot be reused while the copy is alive. Null
  /// for rowless relations.
  const void* RowIdentity() const { return rep_.get(); }

  const std::unordered_set<Tuple, TupleHash>& rows() const {
    return rep_ ? rep_->rows : EmptyRows();
  }

  /// Returns a relation sharing this relation's rows under different column
  /// labels. Caller guarantees per-position types are unchanged (rename /
  /// canonicalization only).
  Relation WithColumns(std::vector<Column> columns) const {
    Relation out(std::move(columns));
    out.rep_ = rep_;
    return out;
  }

  /// Same, under an existing layout: O(1), allocates nothing. Caller
  /// guarantees per-position types match.
  Relation WithLayout(const Layout& layout) const {
    Relation out(layout);
    out.rep_ = rep_;
    return out;
  }

  /// Lazily built, cached hash index on the given key column positions.
  /// Safe to call from multiple readers concurrently (the cache is guarded:
  /// monitors on different threads, such as the server's tenants, share the
  /// row storage of True()); must not race with inserts into the same row
  /// storage. The returned reference stays valid while any Relation sharing
  /// this row storage is alive; Tuple pointers in buckets point into the
  /// row set.
  const Index& GetIndex(const std::vector<std::size_t>& key) const;

  /// Rows in sorted order (deterministic output for tests and reports).
  std::vector<Tuple> SortedRows() const;

  /// Same columns (names, types, order) and same row set.
  bool operator==(const Relation& o) const;

  /// Multi-line debug dump with sorted rows.
  std::string ToString() const;

 private:
  struct Rep {
    std::unordered_set<Tuple, TupleHash> rows;
    mutable std::mutex mu;  // guards `indexes` (lazy build under readers)
    mutable std::vector<std::unique_ptr<Index>> indexes;
  };

  static const std::vector<Column>& EmptyColumns();
  static const std::unordered_set<Tuple, TupleHash>& EmptyRows();
  static const Index& EmptyIndex();

  /// Detaches from shared row storage before mutation (copy-on-write).
  Rep& MutableRep();

  Layout layout_;             // null => no columns
  std::shared_ptr<Rep> rep_;  // null => no rows
};

}  // namespace rtic

#endif  // RTIC_RA_RELATION_H_
