// DomainTracker: the cumulative active domain of a history — every value
// that has appeared in any monitored state so far, bucketed by type.
//
// Quantifiers and negation in constraint formulas range over this set (plus
// the formula's constants and the registered extra constants, which the
// evaluator reads from its context, never from a tracker). Using the
// *history's* domain rather than the current state's is essential: a
// temporal subformula's satisfaction relation may carry values that have
// since left the database (e.g. an old salary), and those valuations must
// still be able to falsify a constraint.
//
// The tracker grows with the history's data diversity, not its bounded
// encoding, so it is kept only where it can be read. For range-restricted
// constraints no evaluation reaches it (tl/domain_safety.h decides this
// statically), and their engines leave their trackers *unmaintained*: empty,
// absorbing nothing, checkpointed as an empty domain section. The naive
// engine, which stores the history anyway, and every constraint the analysis
// cannot clear keep a maintained tracker, so unsafe formulas still get
// well-defined, engine-independent semantics. An evaluation that reaches an
// unmaintained tracker fails with Status::Internal (fo/eval.h) rather than
// quantify over an empty domain.

#ifndef RTIC_STORAGE_DOMAIN_TRACKER_H_
#define RTIC_STORAGE_DOMAIN_TRACKER_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "storage/database.h"
#include "types/value.h"

namespace rtic {

/// Monotonically growing per-type value sets.
class DomainTracker {
 public:
  /// Whether Absorb and AbsorbValues add anything. Trackers start
  /// maintained; an unmaintained tracker is always empty.
  bool maintained() const { return maintained_; }

  /// Starts or stops maintaining the tracker. Stopping drops every tracked
  /// value. Starting begins from empty, so it is exact only before the
  /// first state of the history the tracker is meant to cover.
  void set_maintained(bool maintained);

  /// Adds every value occurring in `db`. Tables whose (id, version) pair is
  /// unchanged since a prior Absorb are skipped — their values are already
  /// tracked, and the domain only grows. A table whose last batch started
  /// at exactly the version absorbed last time contributes only the rows
  /// that batch inserted (Table::BatchInsertsSince), in insert order; every
  /// other table — first seen, copied or restored, or changed outside a
  /// batch — is scanned in full. Both give the same value set.
  void Absorb(const Database& db);

  /// Adds explicit values (formula constants, registered domain values).
  void AbsorbValues(const std::vector<Value>& values);

  /// All tracked values of `type`, sorted.
  std::vector<Value> Values(ValueType type) const;

  /// Every tracked value, sorted (checkpoint serialization).
  std::vector<Value> AllValues() const;

  /// Membership test.
  bool Contains(const Value& v) const;

  /// Total tracked values across all types.
  std::size_t size() const;

  /// The values in the order they were first absorbed. Because the domain
  /// only grows, `additions()[k..]` is exactly what joined after any earlier
  /// moment at which size() was k — the basis of delta checkpoints, which
  /// serialize only the values absorbed since the parent checkpoint.
  const std::vector<Value>& additions() const { return additions_; }

 private:
  void Add(const Value& v);

  bool maintained_ = true;
  std::set<Value> values_;
  std::vector<Value> additions_;  // values_ in first-absorption order
  // Last absorbed version per table id: the skip check for Absorb.
  std::unordered_map<std::uint64_t, std::uint64_t> absorbed_versions_;
};

}  // namespace rtic

#endif  // RTIC_STORAGE_DOMAIN_TRACKER_H_
