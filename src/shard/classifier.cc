#include "shard/classifier.h"

#include <algorithm>

#include "tl/domain_safety.h"

namespace rtic {
namespace shard {
namespace {

using tl::Formula;
using tl::FormulaKind;

void CollectAtomsInto(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == FormulaKind::kAtom) {
    out->push_back(&f);
    return;
  }
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    CollectAtomsInto(f.child(i), out);
  }
}

/// True iff any quantifier in `f` (at any depth) binds `var`.
bool RebindsVar(const Formula& f, const std::string& var) {
  if (f.kind() == FormulaKind::kExists || f.kind() == FormulaKind::kForall) {
    const auto& vars = f.bound_vars();
    if (std::find(vars.begin(), vars.end(), var) != vars.end()) return true;
  }
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (RebindsVar(f.child(i), var)) return true;
  }
  return false;
}

Classification Cross(std::string reason) {
  Classification c;
  c.cls = ShardClass::kCrossShard;
  c.reason = std::move(reason);
  return c;
}

Classification Local(std::string key_var, std::string reason) {
  Classification c;
  c.cls = ShardClass::kPartitionLocal;
  c.key_var = std::move(key_var);
  c.reason = std::move(reason);
  return c;
}

}  // namespace

const char* ShardClassToString(ShardClass c) {
  switch (c) {
    case ShardClass::kPartitionLocal:
      return "partition-local";
    case ShardClass::kCrossShard:
      return "cross-shard";
  }
  return "?";
}

std::vector<const tl::Formula*> CollectAtoms(const tl::Formula& formula) {
  std::vector<const tl::Formula*> out;
  CollectAtomsInto(formula, &out);
  return out;
}

Result<Classification> Classify(const tl::Formula& formula,
                                const tl::Analysis& analysis,
                                const Partitioner& partitioner) {
  // Shadowing breaks the single-binder reasoning below (an inner atom's
  // key occurrence could refer to a different binder of the same name).
  for (const std::string& w : analysis.warnings()) {
    if (w.find("shadows") != std::string::npos) {
      return Cross("quantifier shadowing: " + w);
    }
  }

  // Rule 3: counterexample evaluation must never touch the active
  // domain. Per-shard active domains are strict subsets of the global
  // one, so a domain-dependent formula evaluates differently inside a
  // shard than over the full database. This subsumes the analyzer's
  // range-restriction warnings (which cover only `exists`-bound
  // variables) — the evaluator's complement/extension fallbacks fire for
  // universally quantified variables too, silently.
  tl::DomainSafety safety(analysis);
  const tl::Formula* body = &formula;
  std::vector<std::string> outer_vars;
  while (body->kind() == tl::FormulaKind::kForall) {
    outer_vars.insert(outer_vars.end(), body->bound_vars().begin(),
                      body->bound_vars().end());
    body = &body->child(0);
  }
  if (!safety.FalsSafe(*body)) {
    return Cross("active-domain dependence: " + safety.why());
  }

  std::vector<const tl::Formula*> atoms = CollectAtoms(formula);
  if (atoms.empty()) {
    // No atoms and domain-free (checked above): a constant under any
    // database, identical on every shard.
    return Local("", "no atoms; evaluates identically on every shard");
  }

  // Rule 1: the counterexample search ranges over an outermost forall
  // chain; a closed formula with atoms but no outer forall (e.g. an
  // `exists`-rooted one) is globally satisfied when ANY shard holds a
  // witness, which no single shard can decide.
  if (outer_vars.empty()) {
    return Cross("no outermost forall: per-shard verdicts do not compose");
  }

  // Rule 2: every atom keyed by one common outer-forall variable.
  std::string key_var;
  for (const tl::Formula* atom : atoms) {
    RTIC_ASSIGN_OR_RETURN(std::size_t key_col,
                          partitioner.KeyColumn(atom->predicate()));
    if (key_col >= atom->terms().size()) {
      return Status::Internal("atom " + atom->predicate() +
                              " arity below its partition key column");
    }
    const tl::Term& key_term = atom->terms()[key_col];
    if (key_term.is_constant()) {
      return Cross("atom " + atom->predicate() +
                   " has a constant at its partition-key position");
    }
    if (key_var.empty()) {
      key_var = key_term.name();
    } else if (key_var != key_term.name()) {
      return Cross("atoms keyed by different variables ('" + key_var +
                   "' vs '" + key_term.name() + "')");
    }
  }
  if (std::find(outer_vars.begin(), outer_vars.end(), key_var) ==
      outer_vars.end()) {
    return Cross("key variable '" + key_var +
                 "' is not bound by the outermost forall");
  }
  // Rule 1 tail: the key variable must have exactly one binder (the outer
  // chain); a rebinding below would decouple inner atoms from the outer
  // key. (Shadowing warnings catch the name-reuse case; this also rejects
  // a same-name forall nested under the body without shadowing an atom.)
  if (RebindsVar(*body, key_var)) {
    return Cross("key variable '" + key_var + "' is re-quantified in the body");
  }

  return Local(key_var, "all " + std::to_string(atoms.size()) +
                            " atoms keyed by forall variable '" + key_var +
                            "'");
}

}  // namespace shard
}  // namespace rtic
