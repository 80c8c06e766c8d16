#include "tl/domain_safety.h"

#include <algorithm>

namespace rtic {
namespace tl {

namespace {

void FlattenAnd(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == FormulaKind::kAnd) {
    FlattenAnd(f.child(0), out);
    FlattenAnd(f.child(1), out);
  } else {
    out->push_back(&f);
  }
}

bool IsGenerator(FormulaKind kind) {
  switch (kind) {
    case FormulaKind::kAtom:
    case FormulaKind::kExists:
    case FormulaKind::kOr:
    case FormulaKind::kBoolConst:
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kHistorically:
    case FormulaKind::kSince:
      return true;
    default:
      return false;
  }
}

bool Covers(const std::vector<std::string>& big,
            const std::vector<std::string>& small) {
  for (const std::string& v : small) {
    if (!std::binary_search(big.begin(), big.end(), v)) return false;
  }
  return true;
}

/// Every temporal node's body (both sides of a since) is safe to evaluate.
bool TemporalBodiesSafe(const Formula& f, DomainSafety* safety) {
  const bool temporal = IsTemporal(f.kind()) || IsFutureTemporal(f.kind());
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (temporal && !safety->EvalSafe(f.child(i))) return false;
    if (!TemporalBodiesSafe(f.child(i), safety)) return false;
  }
  return true;
}

}  // namespace

bool DomainSafety::EvalSafe(const Formula& f) {
  switch (f.kind()) {
    case FormulaKind::kBoolConst:
    case FormulaKind::kAtom:
      return true;
    case FormulaKind::kComparison:
      // Eval of a comparison with a variable materializes the domain.
      return ClosedOr(f, "comparison '" + f.ToString() +
                             "' evaluated over the active domain");
    case FormulaKind::kNot:
      return FalsSafe(f.child(0));
    case FormulaKind::kAnd:
      return AndSafe(f);
    case FormulaKind::kOr:
      // EvalOr extends both sides to the union of their variables.
      return EvalSafe(f.child(0)) && EvalSafe(f.child(1)) &&
             SameVars(f.child(0), f.child(1),
                      "'or' branches bind different variables; the "
                      "evaluator pads the difference from the active "
                      "domain");
    case FormulaKind::kImplies:
      // Eval(a -> b) complements the falsification set over the domain.
      return ClosedOr(f, "implication '" + f.ToString() +
                             "' satisfied-set needs a domain complement") &&
             FalsSafe(f);
    case FormulaKind::kExists:
      return EvalSafe(f.child(0));
    case FormulaKind::kForall:
      return ClosedOr(f, "nested 'forall' satisfied-set needs a domain "
                         "complement") &&
             FalsSafe(f.child(0));
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kHistorically:
    case FormulaKind::kEventually:
      return EvalSafe(f.child(0));
    case FormulaKind::kSince:
      return EvalSafe(f.child(0)) && EvalSafe(f.child(1));
  }
  return Fail("unhandled formula kind");
}

bool DomainSafety::FalsSafe(const Formula& f) {
  switch (f.kind()) {
    case FormulaKind::kBoolConst:
      return true;
    case FormulaKind::kNot:
      return EvalSafe(f.child(0));
    case FormulaKind::kImplies: {
      const Formula& a = f.child(0);
      const Formula& b = f.child(1);
      // falsify(a -> b): generate Eval(a), extend to free(f), filter by
      // b failing. The extension draws any variable b introduces from
      // the active domain.
      if (!EvalSafe(a)) return false;
      if (!Covers(analysis_.FreeVars(a), analysis_.FreeVars(f))) {
        return Fail("consequent of '" + f.ToString() +
                    "' uses variables the antecedent does not bind; the "
                    "evaluator pads them from the active domain");
      }
      return FilterFalseSafe(b);
    }
    case FormulaKind::kAnd:
      // falsify(a and b) extends each side's falsifications to the
      // union of variables.
      return FalsSafe(f.child(0)) && FalsSafe(f.child(1)) &&
             SameVars(f.child(0), f.child(1),
                      "'and' falsifications pad differing variables from "
                      "the active domain");
    case FormulaKind::kOr: {
      const Formula& a = f.child(0);
      const Formula& b = f.child(1);
      const auto& fa = analysis_.FreeVars(a);
      const auto& fb = analysis_.FreeVars(b);
      if (Covers(fa, fb)) return FalsSafe(a) && FilterFalseSafe(b);
      if (Covers(fb, fa)) return FalsSafe(b) && FilterFalseSafe(a);
      return FalsSafe(a) && FalsSafe(b);  // natural join, no extension
    }
    case FormulaKind::kForall:
      return FalsSafe(f.child(0));
    case FormulaKind::kComparison:
      return ClosedOr(f, "comparison '" + f.ToString() +
                             "' falsified over the active domain");
    case FormulaKind::kAtom:
    case FormulaKind::kExists:
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kHistorically:
    case FormulaKind::kSince:
      // Genuine complement: domain product minus the satisfaction set.
      return ClosedOr(f, "falsifying '" + f.ToString() +
                             "' complements over the active domain") &&
             EvalSafe(f);
    case FormulaKind::kEventually:
      return EvalSafe(f.child(0));
  }
  return Fail("unhandled formula kind");
}

bool DomainSafety::FilterSatSafe(const Formula& g) {
  switch (g.kind()) {
    case FormulaKind::kBoolConst:
    case FormulaKind::kComparison:  // filters bound rows, no domain
      return true;
    case FormulaKind::kNot:
      return FilterFalseSafe(g.child(0));
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      return FilterSatSafe(g.child(0)) && FilterSatSafe(g.child(1));
    case FormulaKind::kImplies:
      return FilterFalseSafe(g.child(0)) && FilterSatSafe(g.child(1));
    case FormulaKind::kForall:
      return FalsSafe(g.child(0));  // anti-join against the bad set
    case FormulaKind::kExists:
      return EvalSafe(g.child(0));  // semi-join against the body
    case FormulaKind::kAtom:
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kHistorically:
    case FormulaKind::kSince:
    case FormulaKind::kEventually:
      return EvalSafe(g);  // semi-join against the satisfaction set
  }
  return Fail("unhandled formula kind");
}

bool DomainSafety::FilterFalseSafe(const Formula& g) {
  switch (g.kind()) {
    case FormulaKind::kBoolConst:
    case FormulaKind::kComparison:
      return true;
    case FormulaKind::kNot:
      return FilterSatSafe(g.child(0));
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      return FilterFalseSafe(g.child(0)) && FilterFalseSafe(g.child(1));
    case FormulaKind::kImplies:
      return FilterSatSafe(g.child(0)) && FilterFalseSafe(g.child(1));
    case FormulaKind::kForall:
      return FalsSafe(g.child(0));  // semi-join against the bad set
    case FormulaKind::kExists:
      return EvalSafe(g.child(0));  // anti-join against the body
    case FormulaKind::kAtom:
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kHistorically:
    case FormulaKind::kSince:
      return EvalSafe(g);  // anti-join against the satisfaction set
    case FormulaKind::kEventually:
      // Response engine: obligations discharge by matching rows of the
      // response subformula; nothing is complemented.
      return EvalSafe(g.child(0));
  }
  return Fail("unhandled formula kind");
}

// Mirror of EvalAnd: generator conjuncts join bottom-up; every other
// conjunct must be covered by generator-bound variables or the
// evaluator pads the gap from the active domain.
bool DomainSafety::AndSafe(const Formula& f) {
  std::vector<const Formula*> conjuncts;
  FlattenAnd(f, &conjuncts);
  std::vector<std::string> bound;
  for (const Formula* c : conjuncts) {
    if (!IsGenerator(c->kind())) continue;
    if (!EvalSafe(*c)) return false;
    const auto& vars = analysis_.FreeVars(*c);
    bound.insert(bound.end(), vars.begin(), vars.end());
  }
  std::sort(bound.begin(), bound.end());
  bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
  for (const Formula* c : conjuncts) {
    if (IsGenerator(c->kind())) continue;
    if (!Covers(bound, analysis_.FreeVars(*c))) {
      return Fail("conjunct '" + c->ToString() +
                  "' uses variables no atom in the conjunction binds; "
                  "the evaluator pads them from the active domain");
    }
    if (!FilterSatSafe(*c)) return false;
  }
  return true;
}

bool DomainSafety::SameVars(const Formula& a, const Formula& b,
                            const std::string& msg) {
  const auto& fa = analysis_.FreeVars(a);
  const auto& fb = analysis_.FreeVars(b);
  if (Covers(fa, fb) && Covers(fb, fa)) return true;
  return Fail(msg);
}

bool DomainSafety::ClosedOr(const Formula& f, const std::string& msg) {
  if (analysis_.FreeVars(f).empty()) return true;
  return Fail(msg);
}

bool DomainSafety::Fail(const std::string& msg) {
  if (why_.empty()) why_ = msg;
  return false;
}

bool ReadsDomain(const Formula& root, const Analysis& analysis) {
  DomainSafety safety(analysis);
  const Formula* body = &root;
  while (body->kind() == FormulaKind::kForall) body = &body->child(0);
  return !safety.EvalSafe(root) || !safety.FalsSafe(*body) ||
         !TemporalBodiesSafe(root, &safety);
}

}  // namespace tl
}  // namespace rtic
