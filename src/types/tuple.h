// Tuple: an immutable row of Values, hashable for set-semantics tables.

#ifndef RTIC_TYPES_TUPLE_H_
#define RTIC_TYPES_TUPLE_H_

#include <atomic>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace rtic {

/// A row of values. Tables and relations store Tuples under set semantics;
/// equality/hash are element-wise and type-exact.
///
/// The payload is immutable and shared: copying a Tuple copies one
/// shared_ptr, and two copies of the same origin compare equal by pointer
/// without touching the Values. The element-wise hash is computed once per
/// payload and cached, so repeated hashing (index probes, set membership) is
/// a single atomic load. Rows are not interned: independently built equal
/// rows compare element-wise, and nothing keeps a row alive once the last
/// relation holding it lets go.
class Tuple {
 public:
  Tuple() : rep_(EmptyRep()) {}
  explicit Tuple(std::vector<Value> values)
      : rep_(std::make_shared<const Rep>(std::move(values))) {}
  Tuple(std::initializer_list<Value> values)
      : rep_(std::make_shared<const Rep>(std::vector<Value>(values))) {}

  std::size_t size() const { return rep_->values.size(); }
  bool empty() const { return rep_->values.empty(); }
  const Value& at(std::size_t i) const { return rep_->values[i]; }
  const std::vector<Value>& values() const { return rep_->values; }

  bool operator==(const Tuple& o) const {
    if (rep_ == o.rep_) return true;
    if (rep_->values.size() != o.rep_->values.size()) return false;
    // Cached hashes, when both are present, give a cheap negative check.
    std::size_t h1 = rep_->hash.load(std::memory_order_relaxed);
    if (h1 != 0) {
      std::size_t h2 = o.rep_->hash.load(std::memory_order_relaxed);
      if (h2 != 0 && h1 != h2) return false;
    }
    return rep_->values == o.rep_->values;
  }
  bool operator!=(const Tuple& o) const { return !(*this == o); }

  /// Lexicographic order (using Value's total order).
  bool operator<(const Tuple& o) const;

  /// Element-wise hash; computed on first use and cached in the shared
  /// payload (thread-safe: the recomputation is idempotent).
  std::size_t Hash() const;

  /// "(1, 'a', true)".
  std::string ToString() const;

  /// True iff arity and per-position types match `schema`.
  bool Matches(const Schema& schema) const;

 private:
  struct Rep {
    explicit Rep(std::vector<Value> v) : values(std::move(v)) {}
    std::vector<Value> values;
    // 0 = not yet computed; real hashes of 0 are biased to 1.
    mutable std::atomic<std::size_t> hash{0};
  };

  static const std::shared_ptr<const Rep>& EmptyRep();

  std::shared_ptr<const Rep> rep_;
};

/// std::hash adapter for unordered containers.
struct TupleHash {
  std::size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace rtic

#endif  // RTIC_TYPES_TUPLE_H_
