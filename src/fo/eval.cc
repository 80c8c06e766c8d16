#include "fo/eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "ra/ops.h"

namespace rtic {
namespace fo {

namespace {

using tl::CmpOp;
using tl::Formula;
using tl::FormulaKind;
using tl::Term;

class Evaluator {
 public:
  explicit Evaluator(const EvalContext& ctx)
      : ctx_(ctx), scratch_(ctx.scratch) {}

  /// Satisfaction relation of `f` over its sorted free variables.
  Result<Relation> Eval(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
        return f.bool_value() ? Relation::True() : Relation::False();
      case FormulaKind::kAtom:
        return EvalAtom(f);
      case FormulaKind::kComparison:
        return EvalComparison(f);
      case FormulaKind::kNot:
        // eval(¬φ) is exactly the falsification set of φ.
        return BadSet(f.child(0));
      case FormulaKind::kAnd:
        return EvalAnd(f);
      case FormulaKind::kOr:
        return EvalOr(f);
      case FormulaKind::kImplies: {
        // Complement of the (generated, hence complete) falsification set
        // over the quantification domain.
        RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(f));
        RTIC_ASSIGN_OR_RETURN(Relation domain,
                              DomainRelation(ctx_.analysis->ColumnsFor(f)));
        return ra::Difference(domain, bad);
      }
      case FormulaKind::kExists: {
        RTIC_ASSIGN_OR_RETURN(Relation body, Eval(f.child(0)));
        return Canonicalize(std::move(body), f);
      }
      case FormulaKind::kForall: {
        // ν ⊨ ∀x̄ φ iff no extension falsifies φ. The falsification set is
        // generated bottom-up (no domain product unless φ is unsafe).
        RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(f.child(0)));
        RTIC_ASSIGN_OR_RETURN(Relation bad_proj,
                              Canonicalize(std::move(bad), f));
        RTIC_ASSIGN_OR_RETURN(Relation domain,
                              DomainRelation(ctx_.analysis->ColumnsFor(f)));
        return ra::Difference(domain, bad_proj);
      }
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince:
        return EvalTemporal(f);
      case FormulaKind::kEventually:
        return FutureOperatorError();
    }
    return Status::Internal("unhandled formula kind");
  }

  /// Falsification set of `f`: ALL valuations over free(f) making f false,
  /// complete even for values outside the quantification domain whenever f
  /// is range-restricted in the falsifying direction (e.g. implications
  /// whose antecedent generates the bindings). Falls back to a domain
  /// complement otherwise.
  Result<Relation> BadSet(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
        return f.bool_value() ? Relation::False() : Relation::True();
      case FormulaKind::kNot:
        return Eval(f.child(0));
      case FormulaKind::kImplies: {
        // falsify(a → b) = satisfy a, then falsify b.
        RTIC_ASSIGN_OR_RETURN(Relation current, Eval(f.child(0)));
        RTIC_ASSIGN_OR_RETURN(
            current,
            ExtendToColumns(std::move(current), ctx_.analysis->ColumnsFor(f)));
        RTIC_ASSIGN_OR_RETURN(current,
                              FilterFalse(std::move(current), f.child(1)));
        return Canonicalize(std::move(current), f);
      }
      case FormulaKind::kAnd: {
        // falsify(a ∧ b) = falsify a ∪ falsify b (each extended).
        RTIC_ASSIGN_OR_RETURN(Relation l, BadSet(f.child(0)));
        RTIC_ASSIGN_OR_RETURN(Relation r, BadSet(f.child(1)));
        const std::vector<Column>& target = ctx_.analysis->ColumnsFor(f);
        RTIC_ASSIGN_OR_RETURN(l, ExtendToColumns(std::move(l), target));
        RTIC_ASSIGN_OR_RETURN(r, ExtendToColumns(std::move(r), target));
        RTIC_ASSIGN_OR_RETURN(l, Canonicalize(std::move(l), f));
        RTIC_ASSIGN_OR_RETURN(r, Canonicalize(std::move(r), f));
        return ra::Union(l, r);
      }
      case FormulaKind::kOr: {
        // falsify(a ∨ b) = falsify a ∧ falsify b. When one side's variables
        // cover the other's, generate the covering side's falsifications
        // and filter by the other side failing — no domain product for
        // shapes like `not antecedent or consequent`.
        const Formula& a = f.child(0);
        const Formula& b = f.child(1);
        const auto& fa = ctx_.analysis->FreeVars(a);
        const auto& fb = ctx_.analysis->FreeVars(b);
        auto covers = [](const std::vector<std::string>& big,
                         const std::vector<std::string>& small) {
          for (const std::string& v : small) {
            if (!std::binary_search(big.begin(), big.end(), v)) return false;
          }
          return true;
        };
        if (covers(fa, fb)) {
          RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(a));
          RTIC_ASSIGN_OR_RETURN(bad, FilterFalse(std::move(bad), b));
          return Canonicalize(std::move(bad), f);
        }
        if (covers(fb, fa)) {
          RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(b));
          RTIC_ASSIGN_OR_RETURN(bad, FilterFalse(std::move(bad), a));
          return Canonicalize(std::move(bad), f);
        }
        RTIC_ASSIGN_OR_RETURN(Relation l, BadSet(a));
        RTIC_ASSIGN_OR_RETURN(Relation r, BadSet(b));
        RTIC_ASSIGN_OR_RETURN(Relation joined, ra::NaturalJoin(l, r));
        return Canonicalize(std::move(joined), f);
      }
      case FormulaKind::kForall: {
        // falsify(∀x̄ φ) = ∃x̄ falsify(φ).
        RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(f.child(0)));
        return Canonicalize(std::move(bad), f);
      }
      case FormulaKind::kComparison:
        return EvalComparison(f, /*negated=*/true);
      case FormulaKind::kExists:
      case FormulaKind::kAtom:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince: {
        // Genuine complement: domain product minus the satisfaction set.
        // (tl::DomainSafety counts every constraint that can reach this
        // path as reading the domain.)
        RTIC_ASSIGN_OR_RETURN(Relation sat, Eval(f));
        RTIC_ASSIGN_OR_RETURN(Relation domain,
                              DomainRelation(ctx_.analysis->ColumnsFor(f)));
        return ra::Difference(domain, sat);
      }
      case FormulaKind::kEventually:
        return FutureOperatorError();
    }
    return Status::Internal("unhandled formula kind");
  }

 private:
  // ---- filters: keep rows of `current` satisfying / falsifying `g` -------
  // Requires free(g) ⊆ columns(current); callers extend first.

  Result<Relation> FilterSat(Relation current, const Formula& g) {
    switch (g.kind()) {
      case FormulaKind::kBoolConst:
        return g.bool_value() ? std::move(current)
                              : Relation(current.layout());
      case FormulaKind::kComparison:
        return FilterByComparison(std::move(current), g, /*negated=*/false);
      case FormulaKind::kNot:
        return FilterFalse(std::move(current), g.child(0));
      case FormulaKind::kAnd: {
        RTIC_ASSIGN_OR_RETURN(current,
                              FilterSat(std::move(current), g.child(0)));
        return FilterSat(std::move(current), g.child(1));
      }
      case FormulaKind::kOr: {
        RTIC_ASSIGN_OR_RETURN(Relation l, FilterSat(current, g.child(0)));
        RTIC_ASSIGN_OR_RETURN(Relation r,
                              FilterSat(std::move(current), g.child(1)));
        return ra::Union(l, r);
      }
      case FormulaKind::kImplies: {
        RTIC_ASSIGN_OR_RETURN(Relation l, FilterFalse(current, g.child(0)));
        RTIC_ASSIGN_OR_RETURN(Relation r,
                              FilterSat(std::move(current), g.child(1)));
        return ra::Union(l, r);
      }
      case FormulaKind::kForall: {
        RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(g.child(0)));
        return ra::AntiJoin(current, bad);
      }
      case FormulaKind::kExists: {
        RTIC_ASSIGN_OR_RETURN(Relation body, Eval(g.child(0)));
        return ra::SemiJoin(current, body);
      }
      case FormulaKind::kAtom:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince: {
        RTIC_ASSIGN_OR_RETURN(Relation sat, Eval(g));
        return ra::SemiJoin(current, sat);
      }
      case FormulaKind::kEventually:
        return FutureOperatorError();
    }
    return Status::Internal("unhandled formula kind");
  }

  Result<Relation> FilterFalse(Relation current, const Formula& g) {
    switch (g.kind()) {
      case FormulaKind::kBoolConst:
        return g.bool_value() ? Relation(current.layout())
                              : std::move(current);
      case FormulaKind::kComparison:
        return FilterByComparison(std::move(current), g, /*negated=*/true);
      case FormulaKind::kNot:
        return FilterSat(std::move(current), g.child(0));
      case FormulaKind::kAnd: {
        RTIC_ASSIGN_OR_RETURN(Relation l, FilterFalse(current, g.child(0)));
        RTIC_ASSIGN_OR_RETURN(Relation r,
                              FilterFalse(std::move(current), g.child(1)));
        return ra::Union(l, r);
      }
      case FormulaKind::kOr: {
        RTIC_ASSIGN_OR_RETURN(current,
                              FilterFalse(std::move(current), g.child(0)));
        return FilterFalse(std::move(current), g.child(1));
      }
      case FormulaKind::kImplies: {
        RTIC_ASSIGN_OR_RETURN(current,
                              FilterSat(std::move(current), g.child(0)));
        return FilterFalse(std::move(current), g.child(1));
      }
      case FormulaKind::kForall: {
        RTIC_ASSIGN_OR_RETURN(Relation bad, BadSet(g.child(0)));
        return ra::SemiJoin(current, bad);
      }
      case FormulaKind::kExists: {
        RTIC_ASSIGN_OR_RETURN(Relation body, Eval(g.child(0)));
        return ra::AntiJoin(current, body);
      }
      case FormulaKind::kAtom:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince: {
        RTIC_ASSIGN_OR_RETURN(Relation sat, Eval(g));
        return ra::AntiJoin(current, sat);
      }
      case FormulaKind::kEventually:
        return FutureOperatorError();
    }
    return Status::Internal("unhandled formula kind");
  }

  // ---- leaves -------------------------------------------------------------

  static Status FutureOperatorError() {
    return Status::InvalidArgument(
        "the bounded-future operator `eventually` is only valid as the "
        "consequent of a response constraint (forall ...: trigger implies "
        "eventually[a, b] response)");
  }

  /// Compiles the per-row work of an atom scan into position checks, done
  /// once per node instead of once per row.
  static ScanCache::Shape AtomShape(const Formula& f,
                                    const tl::Analysis& analysis) {
    const std::vector<Column>& columns = analysis.ColumnsFor(f);
    ScanCache::Shape shape;
    shape.table = f.predicate();
    // First table position of each variable name (atoms are narrow; linear
    // scan beats a map here).
    std::vector<std::pair<const std::string*, std::size_t>> first;
    for (std::size_t i = 0; i < f.terms().size(); ++i) {
      const Term& t = f.terms()[i];
      if (t.is_constant()) {
        shape.const_checks.emplace_back(i, t.value());
        continue;
      }
      bool seen = false;
      for (const auto& [name, pos] : first) {
        if (*name == t.name()) {
          shape.dup_checks.emplace_back(pos, i);
          seen = true;
          break;
        }
      }
      if (!seen) first.emplace_back(&t.name(), i);
    }
    shape.var_pos.resize(columns.size(), 0);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      for (const auto& [name, pos] : first) {
        if (*name == columns[c].name) {
          shape.var_pos[c] = pos;
          break;
        }
      }
    }
    return shape;
  }

  Result<Relation> EvalAtom(const Formula& f) {
    RTIC_ASSIGN_OR_RETURN(const Table* table,
                          ctx_.db->GetTable(f.predicate()));
    const Relation::Layout& layout = ctx_.analysis->LayoutFor(f);
    if (scratch_ == nullptr) {
      return ScanCache::ScanTable(AtomShape(f, *ctx_.analysis), *table,
                                  layout);
    }
    // A scan-cache hit is still a read of the table.
    scratch_->scanned_tables.push_back(table);
    auto it = scratch_->atom_plans.find(&f);
    if (it == scratch_->atom_plans.end()) {
      const ScanCache::SlotId slot =
          scratch_->scans->Bind(AtomShape(f, *ctx_.analysis), layout);
      it = scratch_->atom_plans.emplace(&f, EvalScratch::AtomPlan{slot, layout})
               .first;
    }
    return scratch_->scans->Scan(it->second.slot, *table)
        .WithLayout(it->second.layout);
  }

  Result<Relation> EvalComparison(const Formula& f, bool negated = false) {
    const Term& a = f.terms()[0];
    const Term& b = f.terms()[1];
    if (a.is_constant() && b.is_constant()) {
      RTIC_ASSIGN_OR_RETURN(int c, CompareValues(a.value(), b.value()));
      bool truth = tl::EvalCmp(f.cmp_op(), c) != negated;
      return truth ? Relation::True() : Relation::False();
    }
    // Materialize over the (one or two) free variables, then filter.
    RTIC_ASSIGN_OR_RETURN(Relation domain,
                          DomainRelation(ctx_.analysis->ColumnsFor(f)));
    return FilterByComparison(std::move(domain), f, negated);
  }

  Result<Relation> FilterByComparison(Relation rel, const Formula& cmp,
                                      bool negated) {
    Relation out(rel.layout());
    if (rel.empty()) return out;
    // Resolve term positions once, not per row.
    const Term& ta = cmp.terms()[0];
    const Term& tb = cmp.terms()[1];
    const Value* const_a = ta.is_constant() ? &ta.value() : nullptr;
    const Value* const_b = tb.is_constant() ? &tb.value() : nullptr;
    std::size_t pos_a = 0;
    std::size_t pos_b = 0;
    if (const_a == nullptr) pos_a = *rel.IndexOf(ta.name());
    if (const_b == nullptr) pos_b = *rel.IndexOf(tb.name());
    for (const Tuple& row : rel.rows()) {
      const Value& va = const_a != nullptr ? *const_a : row.at(pos_a);
      const Value& vb = const_b != nullptr ? *const_b : row.at(pos_b);
      RTIC_ASSIGN_OR_RETURN(int c, CompareValues(va, vb));
      if (tl::EvalCmp(cmp.cmp_op(), c) != negated) out.InsertUnchecked(row);
    }
    return out;
  }

  Result<Relation> EvalTemporal(const Formula& f) {
    if (!ctx_.resolver) {
      return Status::FailedPrecondition(
          "formula contains temporal operator " +
          std::string(FormulaKindToString(f.kind())) +
          " but no temporal resolver was provided");
    }
    if (scratch_ != nullptr) scratch_->resolved_leaves.push_back(&f);
    RTIC_ASSIGN_OR_RETURN(Relation rel, ctx_.resolver(f));
    return Canonicalize(std::move(rel), f);
  }

  // ---- composites ---------------------------------------------------------

  static void FlattenAnd(const Formula& f, std::vector<const Formula*>* out) {
    if (f.kind() == FormulaKind::kAnd) {
      FlattenAnd(f.child(0), out);
      FlattenAnd(f.child(1), out);
    } else {
      out->push_back(&f);
    }
  }

  static bool IsGenerator(FormulaKind kind) {
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

  Result<Relation> EvalAnd(const Formula& f) {
    std::vector<const Formula*> conjuncts;
    FlattenAnd(f, &conjuncts);

    // 1. Generators bind variables from data.
    Relation current = Relation::True();
    for (const Formula* c : conjuncts) {
      if (!IsGenerator(c->kind())) continue;
      RTIC_ASSIGN_OR_RETURN(Relation rel, Eval(*c));
      RTIC_ASSIGN_OR_RETURN(current, ra::NaturalJoin(current, rel));
    }

    // 2. The rest (comparisons, negations, implications, universals) act as
    //    filters over bound rows; genuinely unbound variables fall back to
    //    a domain extension.
    for (const Formula* c : conjuncts) {
      if (IsGenerator(c->kind())) continue;
      if (!Covered(current, *c)) {
        RTIC_ASSIGN_OR_RETURN(
            current, ExtendToColumns(std::move(current),
                                     ctx_.analysis->ColumnsFor(*c)));
      }
      RTIC_ASSIGN_OR_RETURN(current, FilterSat(std::move(current), *c));
    }

    RTIC_ASSIGN_OR_RETURN(
        current,
        ExtendToColumns(std::move(current), ctx_.analysis->ColumnsFor(f)));
    return Canonicalize(std::move(current), f);
  }

  Result<Relation> EvalOr(const Formula& f) {
    RTIC_ASSIGN_OR_RETURN(Relation l, Eval(f.child(0)));
    RTIC_ASSIGN_OR_RETURN(Relation r, Eval(f.child(1)));
    const std::vector<Column>& target = ctx_.analysis->ColumnsFor(f);
    RTIC_ASSIGN_OR_RETURN(l, ExtendToColumns(std::move(l), target));
    RTIC_ASSIGN_OR_RETURN(r, ExtendToColumns(std::move(r), target));
    RTIC_ASSIGN_OR_RETURN(l, Canonicalize(std::move(l), f));
    RTIC_ASSIGN_OR_RETURN(r, Canonicalize(std::move(r), f));
    return ra::Union(l, r);
  }

  // ---- plumbing -----------------------------------------------------------

  /// The quantification domain of `type`. Fails when the context's tracker
  /// is not maintained: an engine stops maintaining it only when the static
  /// analysis (tl/domain_safety.h) says no evaluation can get here, so
  /// answering from an empty tracker would hide a wrong analysis behind a
  /// wrong verdict.
  Result<const std::vector<Value>*> Domain(ValueType type) {
    // With a scratch and a tracker, domain values are cached across
    // evaluations and invalidated by the tracker's version (its additions
    // count — the tracker only ever grows).
    if (scratch_ != nullptr) scratch_->domain_consulted = true;
    if (ctx_.domain != nullptr && !ctx_.domain->maintained()) {
      return Status::Internal(
          "evaluation reached the quantification domain through a domain "
          "tracker that is not maintained (the domain analysis ruled it "
          "unreadable)");
    }
    if (scratch_ != nullptr && ctx_.domain != nullptr) {
      std::uint64_t version = ctx_.domain->additions().size();
      if (scratch_->domain_version != version) {
        scratch_->domain_values.clear();
        scratch_->domain_relations.clear();
        scratch_->domain_version = version;
      }
      auto it = scratch_->domain_values.find(type);
      if (it != scratch_->domain_values.end()) return &it->second;
      return &scratch_->domain_values.emplace(type, ActiveDomain(ctx_, type))
                  .first->second;
    }
    auto it = domain_cache_.find(type);
    if (it != domain_cache_.end()) return &it->second;
    std::vector<Value> values = ActiveDomain(ctx_, type);
    return &domain_cache_.emplace(type, std::move(values)).first->second;
  }

  /// Single-column relation over the active domain of `type`, labeled
  /// `name`. Materialized once per type per domain version in the scratch;
  /// relabeling shares the row storage, so a cache hit is O(1).
  Result<Relation> DomainColumn(const std::string& name, ValueType type) {
    // Refreshes the scratch's domain version.
    RTIC_ASSIGN_OR_RETURN(const std::vector<Value>* values, Domain(type));
    if (scratch_ != nullptr && ctx_.domain != nullptr) {
      auto it = scratch_->domain_relations.find(type);
      if (it == scratch_->domain_relations.end()) {
        it = scratch_->domain_relations
                 .emplace(type, ra::FromValues(name, type, *values))
                 .first;
      }
      return it->second.WithColumns({Column{name, type}});
    }
    return ra::FromValues(name, type, *values);
  }

  Result<Relation> DomainRelation(const std::vector<Column>& columns) {
    Relation out = Relation::True();
    for (const Column& col : columns) {
      RTIC_ASSIGN_OR_RETURN(Relation column, DomainColumn(col.name, col.type));
      RTIC_ASSIGN_OR_RETURN(out, ra::CrossProduct(out, column));
    }
    return out;
  }

  /// Projects `rel` onto node's columns (sorted free variables), by
  /// position; every wanted column must be among rel's.
  Result<Relation> Canonicalize(Relation rel, const Formula& node) {
    const std::vector<Column>& want = ctx_.analysis->ColumnsFor(node);
    if (rel.columns() == want) return rel;
    std::vector<std::size_t> positions(want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      auto i = rel.IndexOf(want[c].name);
      if (!i.has_value()) {
        return Status::InvalidArgument("canonicalize: no such column: " +
                                       want[c].name);
      }
      positions[c] = *i;
    }
    return ra::ProjectPositions(rel, positions,
                                ctx_.analysis->LayoutFor(node));
  }

  Result<Relation> ExtendToColumns(Relation rel,
                                   const std::vector<Column>& target) {
    for (const Column& col : target) {
      if (rel.IndexOf(col.name).has_value()) continue;
      RTIC_ASSIGN_OR_RETURN(Relation column, DomainColumn(col.name, col.type));
      RTIC_ASSIGN_OR_RETURN(rel, ra::CrossProduct(rel, column));
    }
    return rel;
  }

  bool Covered(const Relation& rel, const Formula& node) const {
    for (const std::string& v : ctx_.analysis->FreeVars(node)) {
      if (!rel.IndexOf(v).has_value()) return false;
    }
    return true;
  }

  const EvalContext& ctx_;
  EvalScratch* scratch_;
  std::map<ValueType, std::vector<Value>> domain_cache_;
};

}  // namespace

EvalScratch::~EvalScratch() {
  for (const auto& [node, plan] : atom_plans) scans->Release(plan.slot);
}

void EvalScratch::UseScanCache(std::shared_ptr<ScanCache> cache) {
  for (const auto& [node, plan] : atom_plans) scans->Release(plan.slot);
  atom_plans.clear();
  scans = std::move(cache);
}

Result<Relation> Evaluate(const tl::Formula& formula, const EvalContext& ctx) {
  if (ctx.db == nullptr || ctx.analysis == nullptr) {
    return Status::InvalidArgument(
        "EvalContext requires a database state and an analysis");
  }
  Evaluator evaluator(ctx);
  return evaluator.Eval(formula);
}

Result<Relation> EvaluateFalsifications(const tl::Formula& formula,
                                        const EvalContext& ctx) {
  if (ctx.db == nullptr || ctx.analysis == nullptr) {
    return Status::InvalidArgument(
        "EvalContext requires a database state and an analysis");
  }
  Evaluator evaluator(ctx);
  return evaluator.BadSet(formula);
}

std::vector<Value> ActiveDomain(const EvalContext& ctx, ValueType type) {
  std::set<Value> values;
  if (ctx.domain != nullptr) {
    for (const Value& v : ctx.domain->Values(type)) values.insert(v);
  } else if (ctx.db != nullptr) {
    for (const Value& v : ctx.db->ActiveDomain(type)) values.insert(v);
  }
  if (ctx.analysis != nullptr) {
    for (const Value& v : ctx.analysis->constants()) {
      if (v.type() == type) values.insert(v);
    }
  }
  if (ctx.extra_constants != nullptr) {
    for (const Value& v : *ctx.extra_constants) {
      if (v.type() == type) values.insert(v);
    }
  }
  return std::vector<Value>(values.begin(), values.end());
}

}  // namespace fo
}  // namespace rtic
