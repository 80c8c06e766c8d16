// First-order evaluator: computes, for a formula and one database state, the
// relation of satisfying valuations over the formula's free variables.
//
// Semantics: quantifiers and negation range over the *history's* active
// domain (DomainTracker: every value seen in any state so far, plus the
// formula's constants and registered extras). Temporal subformulas are
// opaque leaves resolved via a callback, which lets the same code serve
//   * the naive engine  (resolver recurses into the stored history), and
//   * the incremental engine (resolver reads bounded auxiliary relations).
//
// Evaluation strategy (the safe-range discipline): conjunctions evaluate
// their generator conjuncts (atoms, temporal leaves, disjunctions,
// existentials) as joins, then apply the remaining conjuncts — comparisons,
// negations, implications, universals — as satisfy/falsify *filters* over
// the already-bound rows (selections, semi-joins, anti-joins). A domain
// relation is materialized only when a formula is genuinely not
// range-restricted (tl::DomainSafety mirrors exactly where), so the common
// `forall x̄: antecedent implies consequent` constraints never enumerate any
// domain.

#ifndef RTIC_FO_EVAL_H_
#define RTIC_FO_EVAL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "fo/scan_cache.h"
#include "ra/relation.h"
#include "storage/database.h"
#include "storage/domain_tracker.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {
namespace fo {

/// Returns the *current* satisfaction relation of a temporal subformula.
/// The relation's columns must be exactly Analysis::ColumnsFor(node).
using TemporalResolver =
    std::function<Result<Relation>(const tl::Formula& node)>;

/// Reusable evaluation caches for an engine that evaluates the same formula
/// tree against an evolving history. Optional: evaluation without one is
/// identical, just slower. Not thread-safe; one scratch per engine.
///
/// Atom scans go through `scans`, a ScanCache (fo/scan_cache.h) that a
/// monitor shares among all of its engines, so a changed table is scanned
/// once per atom shape per monitor, not once per atom per engine. A scratch
/// starts with a private cache of its own.
///
/// Everything here is sized by the formula tree, the current state and the
/// active domain, never by the number of states: an atom's rows are kept
/// only in its cache slot, which the next scan of a changed table replaces.
/// Rows are not interned across transitions, because a row is rebuilt only
/// when its table changes, and a pool that remembered every row would grow
/// with the history.
struct EvalScratch {
  EvalScratch() = default;
  /// Releases the cache slots the atom plans are bound to.
  ~EvalScratch();
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

  /// Evaluates atoms through `cache` from now on (releasing the slots of
  /// the plans bound so far, which rebind on their next scan).
  void UseScanCache(std::shared_ptr<ScanCache> cache);

  /// Where atom scans are kept.
  std::shared_ptr<ScanCache> scans = std::make_shared<ScanCache>();

  /// One atom's binding, keyed by the formula node (valid for the lifetime
  /// of the engine's formula tree): its slot in `scans`, and the columns
  /// its result carries.
  struct AtomPlan {
    ScanCache::SlotId slot = 0;
    Relation::Layout layout;
  };
  std::map<const tl::Formula*, AtomPlan> atom_plans;

  /// Per-type active-domain values, valid while `domain_version` equals the
  /// tracker's additions() count.
  std::uint64_t domain_version = std::numeric_limits<std::uint64_t>::max();
  std::map<ValueType, std::vector<Value>> domain_values;

  /// Materialized single-column domain relations, one per value type, under
  /// the same version discipline as `domain_values`. Consumers relabel the
  /// column via Relation::WithColumns (shares the row storage), so a domain
  /// extension costs O(1) instead of re-materializing every value.
  std::map<ValueType, Relation> domain_relations;

  /// What evaluations read since the caller last cleared these: the table
  /// of every atom scanned (scan-cache hits included), every temporal leaf
  /// resolved (repeats possible in both), and whether the quantification
  /// domain was consulted. That is everything an evaluation depends on, so
  /// a caller that clears them first can key the result by them.
  std::vector<const Table*> scanned_tables;
  std::vector<const tl::Formula*> resolved_leaves;
  bool domain_consulted = false;

  /// Clears the read record above.
  void ClearReads() {
    scanned_tables.clear();
    resolved_leaves.clear();
    domain_consulted = false;
  }

  /// Call after restoring engine state from a checkpoint: the restored
  /// tracker can reuse a version number for different contents. Plans and
  /// the scan cache are content-addressed and stay valid.
  void InvalidateDomain() {
    domain_version = std::numeric_limits<std::uint64_t>::max();
    domain_values.clear();
    domain_relations.clear();
  }
};

/// Everything an evaluation needs besides the formula itself.
struct EvalContext {
  /// The database state to evaluate against.
  const Database* db = nullptr;

  /// Analysis of the exact formula tree being evaluated.
  const tl::Analysis* analysis = nullptr;

  /// Resolver for temporal leaves; may be null if the formula is
  /// temporal-free.
  TemporalResolver resolver;

  /// The history's cumulative active domain. May be null, in which case the
  /// current state's values are used (adequate only for safe formulas or
  /// single-state evaluation). If the tracker is not maintained
  /// (DomainTracker::maintained()), an evaluation that reaches the domain
  /// fails with Status::Internal instead of quantifying over it.
  const DomainTracker* domain = nullptr;

  /// Additional constants contributing to the active domain. May be null.
  const std::vector<Value>* extra_constants = nullptr;

  /// Optional reusable caches (see EvalScratch). May be null.
  EvalScratch* scratch = nullptr;
};

/// Evaluates `formula` under `ctx`. The result's columns are
/// ctx.analysis->ColumnsFor(formula) (sorted free variables); a closed
/// formula yields a zero-column boolean relation.
Result<Relation> Evaluate(const tl::Formula& formula, const EvalContext& ctx);

/// Evaluates the FALSIFICATION set of `formula`: the valuations over its
/// free variables making it false. For implication-shaped formulas this is
/// generated bottom-up (antecedent bindings filtered by a failing
/// consequent) and never materializes a domain product — the fast path for
/// violation-witness extraction. Equal to Domain^k minus Evaluate(formula).
Result<Relation> EvaluateFalsifications(const tl::Formula& formula,
                                        const EvalContext& ctx);

/// The quantification domain used by Evaluate for `type`: the tracker's
/// values (or the current state's when no tracker is given), plus formula
/// constants, plus extra constants.
std::vector<Value> ActiveDomain(const EvalContext& ctx, ValueType type);

}  // namespace fo
}  // namespace rtic

#endif  // RTIC_FO_EVAL_H_
