#include "tl/analyzer.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "tl/domain_safety.h"

namespace rtic {
namespace tl {

namespace {

/// Recursive worker carrying shared analysis state.
class AnalyzerImpl {
 public:
  explicit AnalyzerImpl(const PredicateCatalog& catalog)
      : catalog_(catalog) {}

  Status Run(const Formula& root) {
    RTIC_RETURN_IF_ERROR(CollectFreeVarsAndChecks(root, {}));
    // Type inference to fixpoint: comparisons may propagate types in either
    // direction, so iterate until stable.
    bool changed = true;
    while (changed) {
      changed = false;
      RTIC_RETURN_IF_ERROR(InferTypes(root, &changed));
    }
    // Every variable must end up typed (needed for active-domain ranging).
    for (const auto& [node, vars] : free_vars_) {
      (void)node;
      for (const std::string& v : vars) {
        if (var_types_.count(v) == 0) {
          return Status::InvalidArgument(
              "cannot infer the type of variable '" + v +
              "': it occurs in no database atom and no comparison "
              "determines it");
        }
      }
    }
    RTIC_RETURN_IF_ERROR(CheckBoundVarTypes(root));
    CheckRangeRestriction(root);
    return Status::OK();
  }

 private:
  // Pass 1: free variables (with scoping), structural checks, constants.
  Status CollectFreeVarsAndChecks(const Formula& f,
                                  std::vector<std::string> bound_stack) {
    std::set<std::string> free;
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
        break;
      case FormulaKind::kAtom: {
        auto it = catalog_.find(f.predicate());
        if (it == catalog_.end()) {
          return Status::InvalidArgument("unknown predicate: " +
                                         f.predicate());
        }
        const Schema& schema = it->second;
        if (f.terms().size() != schema.size()) {
          return Status::InvalidArgument(
              "predicate " + f.predicate() + " expects " +
              std::to_string(schema.size()) + " arguments, got " +
              std::to_string(f.terms().size()));
        }
        for (const Term& t : f.terms()) {
          if (t.is_variable()) {
            free.insert(t.name());
          } else {
            constants_.push_back(t.value());
          }
        }
        break;
      }
      case FormulaKind::kComparison:
        for (const Term& t : f.terms()) {
          if (t.is_variable()) {
            free.insert(t.name());
          } else {
            constants_.push_back(t.value());
          }
        }
        break;
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        std::unordered_set<std::string> seen;
        for (const std::string& v : f.bound_vars()) {
          if (!seen.insert(v).second) {
            return Status::InvalidArgument(
                "variable '" + v + "' bound twice by the same quantifier");
          }
          if (std::find(bound_stack.begin(), bound_stack.end(), v) !=
              bound_stack.end()) {
            warnings_.push_back("variable '" + v +
                                      "' shadows an outer quantifier");
          }
        }
        std::vector<std::string> inner_stack = bound_stack;
        inner_stack.insert(inner_stack.end(), f.bound_vars().begin(),
                           f.bound_vars().end());
        RTIC_RETURN_IF_ERROR(
            CollectFreeVarsAndChecks(f.child(0), inner_stack));
        const auto& body_free = free_vars_.at(&f.child(0));
        free.insert(body_free.begin(), body_free.end());
        for (const std::string& v : f.bound_vars()) {
          if (free.erase(v) == 0) {
            warnings_.push_back("quantified variable '" + v +
                                      "' does not occur in its scope");
          }
        }
        break;
      }
      default: {
        for (std::size_t i = 0; i < f.num_children(); ++i) {
          RTIC_RETURN_IF_ERROR(
              CollectFreeVarsAndChecks(f.child(i), bound_stack));
          const auto& child_free = free_vars_.at(&f.child(i));
          free.insert(child_free.begin(), child_free.end());
        }
        break;
      }
    }
    if (f.kind() == FormulaKind::kSince) {
      const auto& lhs_free = free_vars_.at(&f.child(0));
      const auto& rhs_free = free_vars_.at(&f.child(1));
      for (const std::string& v : lhs_free) {
        if (!std::binary_search(rhs_free.begin(), rhs_free.end(), v)) {
          return Status::InvalidArgument(
              "unsafe since: variable '" + v +
              "' is free in the left-hand side but not in the right-hand "
              "side (free(lhs) must be a subset of free(rhs))");
        }
      }
    }
    free_vars_[&f] =
        std::vector<std::string>(free.begin(), free.end());
    return Status::OK();
  }

  Status AssignType(const std::string& var, ValueType type, bool* changed) {
    auto it = var_types_.find(var);
    if (it == var_types_.end()) {
      var_types_[var] = type;
      *changed = true;
      return Status::OK();
    }
    if (it->second != type) {
      // Numeric mixing is allowed in comparisons but a variable still has
      // exactly one type; an int/double clash across atoms is a conflict.
      return Status::InvalidArgument(
          "variable '" + var + "' used with conflicting types " +
          ValueTypeToString(it->second) + " and " + ValueTypeToString(type));
    }
    return Status::OK();
  }

  static bool Comparable(ValueType a, ValueType b) {
    return a == b || (IsNumeric(a) && IsNumeric(b));
  }

  // Pass 2 (fixpoint step): assign variable types from atoms and
  // comparisons; check constant/column compatibility.
  Status InferTypes(const Formula& f, bool* changed) {
    switch (f.kind()) {
      case FormulaKind::kAtom: {
        const Schema& schema = catalog_.at(f.predicate());
        for (std::size_t i = 0; i < f.terms().size(); ++i) {
          const Term& t = f.terms()[i];
          ValueType want = schema.column(i).type;
          if (t.is_variable()) {
            RTIC_RETURN_IF_ERROR(AssignType(t.name(), want, changed));
          } else if (t.value().type() != want) {
            return Status::InvalidArgument(
                "constant " + t.value().ToString() + " at argument " +
                std::to_string(i + 1) + " of " + f.predicate() +
                " must have type " + ValueTypeToString(want));
          }
        }
        break;
      }
      case FormulaKind::kComparison: {
        const Term& a = f.terms()[0];
        const Term& b = f.terms()[1];
        auto type_of = [&](const Term& t) -> std::optional<ValueType> {
          if (t.is_constant()) return t.value().type();
          auto it = var_types_.find(t.name());
          if (it == var_types_.end()) return std::nullopt;
          return it->second;
        };
        std::optional<ValueType> ta = type_of(a);
        std::optional<ValueType> tb = type_of(b);
        if (ta && tb) {
          if (!Comparable(*ta, *tb)) {
            return Status::InvalidArgument(
                "comparison " + f.ToString() + " mixes incompatible types " +
                ValueTypeToString(*ta) + " and " + ValueTypeToString(*tb));
          }
          // Ordering comparisons on bools are rejected (only =, != allowed).
          if ((*ta == ValueType::kBool || *tb == ValueType::kBool) &&
              f.cmp_op() != CmpOp::kEq && f.cmp_op() != CmpOp::kNe) {
            return Status::InvalidArgument(
                "ordering comparison on bool values: " + f.ToString());
          }
        } else if (ta && !tb && b.is_variable()) {
          RTIC_RETURN_IF_ERROR(AssignType(b.name(), *ta, changed));
        } else if (tb && !ta && a.is_variable()) {
          RTIC_RETURN_IF_ERROR(AssignType(a.name(), *tb, changed));
        }
        break;
      }
      default:
        for (std::size_t i = 0; i < f.num_children(); ++i) {
          RTIC_RETURN_IF_ERROR(InferTypes(f.child(i), changed));
        }
        break;
    }
    return Status::OK();
  }

  // Quantified variables must also be typed (they may not be free anywhere).
  Status CheckBoundVarTypes(const Formula& f) {
    if (f.kind() == FormulaKind::kExists || f.kind() == FormulaKind::kForall) {
      for (const std::string& v : f.bound_vars()) {
        if (var_types_.count(v) == 0) {
          return Status::InvalidArgument(
              "cannot infer the type of quantified variable '" + v + "'");
        }
      }
    }
    for (std::size_t i = 0; i < f.num_children(); ++i) {
      RTIC_RETURN_IF_ERROR(CheckBoundVarTypes(f.child(i)));
    }
    return Status::OK();
  }

  // Safe-range analysis: the set of variables guaranteed to be bound by a
  // positive database atom (or equality with a constant / bound variable).
  // Variables outside this set fall back to active-domain ranging; warn so
  // the user knows evaluation may enumerate the domain.
  std::set<std::string> CheckRangeRestriction(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
        return {};
      case FormulaKind::kAtom: {
        std::set<std::string> rr;
        for (const Term& t : f.terms()) {
          if (t.is_variable()) rr.insert(t.name());
        }
        return rr;
      }
      case FormulaKind::kComparison: {
        std::set<std::string> rr;
        if (f.cmp_op() == CmpOp::kEq) {
          const Term& a = f.terms()[0];
          const Term& b = f.terms()[1];
          if (a.is_variable() && b.is_constant()) rr.insert(a.name());
          if (b.is_variable() && a.is_constant()) rr.insert(b.name());
        }
        return rr;
      }
      case FormulaKind::kNot:
        CheckRangeRestriction(f.child(0));
        return {};
      case FormulaKind::kAnd: {
        std::set<std::string> l = CheckRangeRestriction(f.child(0));
        std::set<std::string> r = CheckRangeRestriction(f.child(1));
        l.insert(r.begin(), r.end());
        return l;
      }
      case FormulaKind::kOr: {
        std::set<std::string> l = CheckRangeRestriction(f.child(0));
        std::set<std::string> r = CheckRangeRestriction(f.child(1));
        std::set<std::string> both;
        for (const std::string& v : l) {
          if (r.count(v)) both.insert(v);
        }
        return both;
      }
      case FormulaKind::kImplies:
        CheckRangeRestriction(f.child(0));
        CheckRangeRestriction(f.child(1));
        return {};
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        std::set<std::string> rr = CheckRangeRestriction(f.child(0));
        if (f.kind() == FormulaKind::kExists) {
          for (const std::string& v : f.bound_vars()) {
            if (rr.count(v) == 0) {
              warnings_.push_back(
                  "variable '" + v +
                  "' is not range-restricted; evaluation enumerates the "
                  "active domain");
            }
            rr.erase(v);
          }
        } else {
          for (const std::string& v : f.bound_vars()) rr.erase(v);
        }
        return rr;
      }
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kEventually:
        return CheckRangeRestriction(f.child(0));
      case FormulaKind::kSince: {
        CheckRangeRestriction(f.child(0));
        return CheckRangeRestriction(f.child(1));
      }
    }
    return {};
  }

  const PredicateCatalog& catalog_;

 public:
  std::map<const Formula*, std::vector<std::string>> free_vars_;
  std::map<std::string, ValueType> var_types_;
  std::vector<Value> constants_;
  std::vector<std::string> warnings_;
};

}  // namespace

const std::vector<std::string>& Analysis::FreeVars(const Formula& node) const {
  static const std::vector<std::string> kEmpty;
  auto it = free_vars_.find(&node);
  if (it == free_vars_.end()) return kEmpty;
  return it->second;
}

const std::vector<Column>& Analysis::ColumnsFor(const Formula& node) const {
  static const std::vector<Column> kEmpty;
  const Relation::Layout& layout = LayoutFor(node);
  return layout ? *layout : kEmpty;
}

const Relation::Layout& Analysis::LayoutFor(const Formula& node) const {
  static const Relation::Layout kNone;
  auto it = layouts_.find(&node);
  if (it == layouts_.end()) return kNone;
  return it->second;
}

Result<Analysis> Analyze(const Formula& root,
                         const PredicateCatalog& catalog) {
  AnalyzerImpl impl(catalog);
  RTIC_RETURN_IF_ERROR(impl.Run(root));
  Analysis analysis;
  analysis.free_vars_ = std::move(impl.free_vars_);
  analysis.var_types_ = std::move(impl.var_types_);
  analysis.constants_ = std::move(impl.constants_);
  analysis.warnings_ = std::move(impl.warnings_);
  for (const auto& [node, vars] : analysis.free_vars_) {
    std::vector<Column> cols;
    cols.reserve(vars.size());
    for (const std::string& v : vars) {
      cols.push_back(Column{v, analysis.var_types_.at(v)});
    }
    analysis.layouts_.emplace(node, Relation::MakeLayout(std::move(cols)));
  }
  analysis.reads_domain_ = ReadsDomain(root, analysis);
  return analysis;
}

}  // namespace tl
}  // namespace rtic
