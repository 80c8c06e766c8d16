// ActiveEngine: constraint checking compiled to ECA trigger programs on the
// active-DBMS substrate — the implementation route of the follow-up work
// ("Implementing Temporal Integrity Constraints Using an Active DBMS").
//
// Every auxiliary structure of the bounded history encoding is realized as a
// *regular database table* inside the rule engine's store:
//   cur_<i>       (v1..vk)          the node's current satisfaction relation
//   aux_<i>       (v1..vk, __ts__)  anchor timestamps (once / since)
//   prevbody_<i>  (v1..vk)          previous-state body satisfaction
//   __violations  (ts)              the violation log
// and every update rule is an ordinary Rule whose action runs the generated
// maintenance statements. One rule per temporal node (priority = bottom-up
// order) plus a final constraint-check rule.

#ifndef RTIC_ENGINES_ACTIVE_COMPILER_H_
#define RTIC_ENGINES_ACTIVE_COMPILER_H_

#include <memory>
#include <vector>

#include "engines/active/rule_engine.h"
#include "engines/checker_engine.h"
#include "engines/incremental/compiler.h"
#include "engines/incremental/pruning.h"
#include "fo/eval.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {

/// Options controlling an ActiveEngine.
struct ActiveOptions {
  /// Pruning policy applied by the generated maintenance rules.
  PruningPolicy pruning = PruningPolicy::kFull;

  /// Extra constants contributing to every state's active domain.
  std::vector<Value> extra_constants;
};

/// Trigger-program realization of the bounded history encoding.
class ActiveEngine : public CheckerEngine {
 public:
  /// Compiles `constraint` (closed) into a rule program. The engine stores
  /// a normalized clone.
  static Result<std::unique_ptr<ActiveEngine>> Create(
      const tl::Formula& constraint, const tl::PredicateCatalog& catalog,
      ActiveOptions options = {});

  Result<bool> OnTransition(const Database& state, Timestamp t) override;
  Result<Relation> CurrentCounterexamples(const Database& state) override;
  std::size_t StorageRows() const override;
  const char* name() const override { return "active"; }

  /// The underlying rule engine (introspection: rules, store tables).
  const active::RuleEngine& rule_engine() const { return rule_engine_; }

  /// Timestamps logged in __violations so far.
  std::vector<Timestamp> ViolationLog() const;

 private:
  ActiveEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
               inc::CompiledNetwork network, ActiveOptions options);

  Status BuildStore();
  Status BuildRules();
  fo::EvalContext ContextFor(const Database& state);

  /// Materializes a store table as a Relation with the given columns.
  Result<Relation> ReadTable(const std::string& table,
                             const std::vector<Column>& columns) const;

  /// Replaces a store table's rows with a relation's rows.
  Status WriteTable(const std::string& table, const Relation& rel);

  tl::FormulaPtr constraint_;
  tl::Analysis analysis_;
  inc::CompiledNetwork network_;
  ActiveOptions options_;
  active::RuleEngine rule_engine_;
  // History's active domain (quantification range); maintained only if the
  // normalized constraint can read it (tl::Analysis::reads_domain()).
  DomainTracker domain_;
  bool last_verdict_ = true;
};

}  // namespace rtic

#endif  // RTIC_ENGINES_ACTIVE_COMPILER_H_
