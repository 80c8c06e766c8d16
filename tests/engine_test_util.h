// Scenario helpers shared by the engine test suites: describe a history as
// full per-state table contents, run it through any checker engine, collect
// the verdict sequence.

#ifndef RTIC_TESTS_ENGINE_TEST_UTIL_H_
#define RTIC_TESTS_ENGINE_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engines/active/compiler.h"
#include "engines/checker_engine.h"
#include "engines/incremental/engine.h"
#include "engines/naive/naive_engine.h"
#include "fo/eval.h"
#include "fo/witness.h"
#include "monitor/monitor.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "tl/parser.h"

namespace rtic {
namespace testing {

/// One history state: a timestamp plus the FULL contents of every table.
struct ScenarioStep {
  Timestamp t;
  std::map<std::string, std::vector<Tuple>> tables;
};

/// Builds a database state with `schemas` and the step's contents.
inline Result<Database> BuildState(
    const std::map<std::string, Schema>& schemas, const ScenarioStep& step) {
  Database db;
  for (const auto& [name, schema] : schemas) {
    RTIC_RETURN_IF_ERROR(db.CreateTable(name, schema));
  }
  for (const auto& [name, rows] : step.tables) {
    RTIC_ASSIGN_OR_RETURN(Table * t, db.GetMutableTable(name));
    for (const Tuple& row : rows) {
      Result<bool> r = t->Insert(row);
      if (!r.ok()) return r.status();
    }
  }
  return db;
}

/// Instantiates a checker of the given kind for `constraint_text`.
inline Result<std::unique_ptr<CheckerEngine>> MakeEngine(
    EngineKind kind, const std::string& constraint_text,
    const std::map<std::string, Schema>& schemas,
    PruningPolicy pruning = PruningPolicy::kFull) {
  RTIC_ASSIGN_OR_RETURN(tl::FormulaPtr formula,
                        tl::ParseFormula(constraint_text));
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : schemas) catalog[name] = schema;
  switch (kind) {
    case EngineKind::kNaive: {
      RTIC_ASSIGN_OR_RETURN(std::unique_ptr<NaiveEngine> e,
                            NaiveEngine::Create(*formula, catalog));
      return std::unique_ptr<CheckerEngine>(std::move(e));
    }
    case EngineKind::kIncremental: {
      IncrementalOptions options;
      options.pruning = pruning;
      RTIC_ASSIGN_OR_RETURN(
          std::unique_ptr<IncrementalEngine> e,
          IncrementalEngine::Create(*formula, catalog, options));
      return std::unique_ptr<CheckerEngine>(std::move(e));
    }
    case EngineKind::kActive: {
      ActiveOptions options;
      options.pruning = pruning;
      RTIC_ASSIGN_OR_RETURN(std::unique_ptr<ActiveEngine> e,
                            ActiveEngine::Create(*formula, catalog, options));
      return std::unique_ptr<CheckerEngine>(std::move(e));
    }
  }
  return Status::InvalidArgument("unknown engine kind");
}

/// Runs the scenario, returning the per-state verdicts.
inline Result<std::vector<bool>> RunScenario(
    EngineKind kind, const std::string& constraint_text,
    const std::map<std::string, Schema>& schemas,
    const std::vector<ScenarioStep>& steps,
    PruningPolicy pruning = PruningPolicy::kFull) {
  RTIC_ASSIGN_OR_RETURN(
      std::unique_ptr<CheckerEngine> engine,
      MakeEngine(kind, constraint_text, schemas, pruning));
  std::vector<bool> verdicts;
  for (const ScenarioStep& step : steps) {
    RTIC_ASSIGN_OR_RETURN(Database state, BuildState(schemas, step));
    RTIC_ASSIGN_OR_RETURN(bool holds, engine->OnTransition(state, step.t));
    verdicts.push_back(holds);
  }
  return verdicts;
}

/// Each constraint's entry in a base RTICMON3 checkpoint (name, transition
/// and violation counters, engine state), joined into one string: lets a
/// test compare a monitor's per-constraint state with other monitors'.
inline std::vector<std::string> CheckpointedConstraints(
    const std::string& checkpoint) {
  StateReader r(checkpoint);
  EXPECT_EQ(Unwrap(r.ReadString()), "RTICMON3");
  EXPECT_EQ(Unwrap(r.ReadString()), "base");
  for (int i = 0; i < 3; ++i) (void)Unwrap(r.ReadInt());  // clock, totals
  const std::int64_t tables = Unwrap(r.ReadInt());
  for (std::int64_t t = 0; t < tables; ++t) {
    (void)Unwrap(r.ReadString());
    const std::int64_t columns = Unwrap(r.ReadInt());
    for (std::int64_t c = 0; c < columns; ++c) {
      (void)Unwrap(r.ReadString());
      (void)Unwrap(r.ReadInt());
    }
    const std::int64_t rows = Unwrap(r.ReadInt());
    for (std::int64_t k = 0; k < rows; ++k) (void)Unwrap(r.ReadTuple());
  }
  std::vector<std::string> entries;
  const std::int64_t constraints = Unwrap(r.ReadInt());
  for (std::int64_t c = 0; c < constraints; ++c) {
    std::string entry = Unwrap(r.ReadString());
    entry += " " + std::to_string(Unwrap(r.ReadInt()));
    entry += " " + std::to_string(Unwrap(r.ReadInt()));
    entry += " " + Unwrap(r.ReadString());
    entries.push_back(std::move(entry));
  }
  EXPECT_TRUE(r.AtEnd());
  return entries;
}

/// Shorthand: unary int tables P, Q and binary R.
inline std::map<std::string, Schema> PQRSchemas() {
  return {{"P", IntSchema({"a"})},
          {"Q", IntSchema({"a"})},
          {"R", IntSchema({"a", "b"})}};
}

/// Whether evaluating `f` over `db` — its satisfying valuations, or its
/// falsifications when `falsify` — consults the quantification domain.
/// Temporal leaves resolve to empty relations: which paths reach the domain
/// depends on the formula, not on the rows.
inline bool ConsultsDomain(const tl::Formula& f, bool falsify,
                           const tl::Analysis& analysis, const Database& db) {
  DomainTracker tracker;
  tracker.Absorb(db);
  fo::EvalScratch scratch;
  fo::EvalContext ctx;
  ctx.db = &db;
  ctx.analysis = &analysis;
  ctx.domain = &tracker;
  ctx.scratch = &scratch;
  ctx.resolver = [&analysis](const tl::Formula& node) -> Result<Relation> {
    return Relation(analysis.LayoutFor(node));
  };
  (void)(falsify ? fo::EvaluateFalsifications(f, ctx) : fo::Evaluate(f, ctx));
  return scratch.domain_consulted;
}

/// Whether any evaluation an incremental or active engine makes over its
/// tree `root` consults the domain over `db`: the verdict, the body of every
/// temporal node (both sides of a since), or the counterexamples (the
/// falsifications of the body under the outer `forall` chain).
inline bool EngineEvaluationsConsultDomain(const tl::Formula& root,
                                           const tl::Analysis& analysis,
                                           const Database& db) {
  const tl::Formula* body = &root;
  while (body->kind() == tl::FormulaKind::kForall) body = &body->child(0);
  bool consulted = ConsultsDomain(root, false, analysis, db) ||
                   ConsultsDomain(*body, true, analysis, db);
  std::vector<const tl::Formula*> stack = {&root};
  while (!stack.empty() && !consulted) {
    const tl::Formula* f = stack.back();
    stack.pop_back();
    for (std::size_t i = 0; i < f->num_children(); ++i) {
      if (tl::IsTemporal(f->kind())) {
        consulted |= ConsultsDomain(f->child(i), false, analysis, db);
      }
      stack.push_back(&f->child(i));
    }
  }
  return consulted;
}

}  // namespace testing
}  // namespace rtic

#endif  // RTIC_TESTS_ENGINE_TEST_UTIL_H_
