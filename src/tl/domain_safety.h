// Static answer to one question about a constraint: can evaluating it ever
// reach the quantification domain, i.e. fo/eval.cc's Evaluator::Domain()?
//
// The evaluator materializes a domain relation only where a formula is not
// range-restricted in the direction it is evaluated: a complement (bare
// atoms in falsifying position, implications and universals evaluated for
// their satisfying set), a padded column (an implication whose consequent
// uses variables its antecedent does not bind, `or` branches that bind
// different variables), or a comparison over unbound variables. DomainSafety
// mirrors that strategy rule for rule. The analyzer's range-restriction
// warnings are NOT sufficient: they cover only `exists`-bound variables,
// while the complement and extension fallbacks also fire for universally
// quantified ones (`forall x: P(x)` falsifies over the domain) without any
// warning.
//
// Two callers depend on the answer. The engines keep a cumulative domain
// tracker only where some evaluation they make can read it
// (Analysis::reads_domain()), and the shard classifier routes a constraint
// whose counterexamples read the domain to the coordinator. A wrong "safe"
// is a correctness bug for both, so every "safe" below is backed by the
// evaluator: an evaluation that reaches the domain through a tracker nobody
// maintains fails with Status::Internal instead of answering.

#ifndef RTIC_TL_DOMAIN_SAFETY_H_
#define RTIC_TL_DOMAIN_SAFETY_H_

#include <string>
#include <vector>

#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {
namespace tl {

/// The four predicates correspond 1:1 to Eval / BadSet / FilterSat /
/// FilterFalse in fo/eval.cc; each `false` case is a code path there that
/// calls DomainRelation or ExtendToColumns with a non-empty column set.
/// `kEventually` mirrors the response-constraint engine, which matches rows
/// of the response subformula (never complements it).
class DomainSafety {
 public:
  /// `analysis` must be the analysis of the tree the formulas belong to.
  explicit DomainSafety(const Analysis& analysis) : analysis_(analysis) {}

  /// Why the formula was ruled unsafe (set by the first failing check).
  const std::string& why() const { return why_; }

  bool EvalSafe(const Formula& f);
  bool FalsSafe(const Formula& f);
  bool FilterSatSafe(const Formula& g);
  bool FilterFalseSafe(const Formula& g);

 private:
  bool AndSafe(const Formula& f);
  bool SameVars(const Formula& a, const Formula& b, const std::string& msg);
  bool ClosedOr(const Formula& f, const std::string& msg);
  bool Fail(const std::string& msg);

  const Analysis& analysis_;
  std::string why_;
};

/// True iff some evaluation an engine makes over `root` can reach the
/// domain: the verdict (Evaluate(root)), the body of every temporal node
/// (both sides of a since), or the counterexamples (the falsifications of
/// the body under root's outer `forall` chain). `analysis` is root's.
bool ReadsDomain(const Formula& root, const Analysis& analysis);

}  // namespace tl
}  // namespace rtic

#endif  // RTIC_TL_DOMAIN_SAFETY_H_
