// Static analysis of constraint formulas:
//   * name resolution against a predicate catalog (arity + column types),
//   * variable type inference (every variable name has one type per
//     constraint; conflicts are errors),
//   * safety checks: `φ since ψ` requires free(φ) ⊆ free(ψ) so the
//     operator's auxiliary relation is well defined,
//   * range-restriction (safe-range) diagnostics: variables whose bindings
//     can only come from the active domain produce warnings, not errors —
//     evaluation falls back to active-domain semantics,
//   * constant collection (the formula's contribution to the active domain),
//   * whether any evaluation an engine makes can read the quantification
//     domain (tl/domain_safety.h).
//
// The Analysis object is keyed by node address, so it is valid only for the
// exact Formula tree that was analyzed (clones must be re-analyzed).

#ifndef RTIC_TL_ANALYZER_H_
#define RTIC_TL_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ra/relation.h"
#include "types/schema.h"
#include "tl/ast.h"

namespace rtic {
namespace tl {

/// Predicate name -> column schema, the database vocabulary a constraint may
/// mention.
using PredicateCatalog = std::map<std::string, Schema>;

/// Immutable result of analyzing one formula tree.
class Analysis {
 public:
  /// Sorted free-variable names of `node` (must belong to the analyzed tree).
  const std::vector<std::string>& FreeVars(const Formula& node) const;

  /// Free variables of `node` as typed columns, in sorted-name order — the
  /// column layout every evaluator uses for this node's satisfaction
  /// relation. Precomputed per node at analysis time (hot path: evaluators
  /// ask for this on every visit).
  const std::vector<Column>& ColumnsFor(const Formula& node) const;

  /// The same columns as a shared layout (null when there are none), so a
  /// relation built on them allocates no column list of its own.
  const Relation::Layout& LayoutFor(const Formula& node) const;

  /// The inferred type of every variable name in the constraint.
  const std::map<std::string, ValueType>& var_types() const {
    return var_types_;
  }

  /// All constants appearing in the formula (atoms and comparisons).
  const std::vector<Value>& constants() const { return constants_; }

  /// Non-fatal diagnostics (unused quantified variables, shadowing,
  /// non-range-restricted variables relying on active-domain semantics).
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// True iff the analyzed formula has no free variables.
  bool IsClosed(const Formula& root) const { return FreeVars(root).empty(); }

  /// True iff some evaluation an engine makes over the analyzed tree can
  /// read the quantification domain: its verdict, a temporal node's body, or
  /// its counterexamples (tl::ReadsDomain). When false, no engine needs a
  /// cumulative domain tracker for this tree.
  bool reads_domain() const { return reads_domain_; }

 private:
  friend Result<Analysis> Analyze(const Formula& root,
                                  const PredicateCatalog& catalog);

  std::map<const Formula*, std::vector<std::string>> free_vars_;
  std::map<const Formula*, Relation::Layout> layouts_;
  std::map<std::string, ValueType> var_types_;
  std::vector<Value> constants_;
  std::vector<std::string> warnings_;
  bool reads_domain_ = true;
};

/// Analyzes `root` against `catalog`. Errors (unknown predicate, arity or
/// type conflicts, uninferrable variable types, unsafe since) are returned
/// as InvalidArgument.
Result<Analysis> Analyze(const Formula& root, const PredicateCatalog& catalog);

}  // namespace tl
}  // namespace rtic

#endif  // RTIC_TL_ANALYZER_H_
