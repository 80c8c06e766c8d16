// The static domain analysis (tl/domain_safety.h) and what the engines do
// with its answer:
//   * the analysis agrees with the evaluator on a table of shapes, and every
//     constraint of the five scenario families is domain-free;
//   * an unmaintained tracker absorbs nothing, and an evaluation that
//     reaches it fails instead of quantifying over an empty domain;
//   * a SubplanDag maintains a shared tracker exactly while one of the
//     engines holding it can read it;
//   * domain constants are read from the options, not from a tracker, so
//     verdicts that depend on them are unchanged.
// The randomized soundness check is domain_fuzz_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engines/incremental/engine.h"
#include "engines/incremental/subplan_dag.h"
#include "fo/eval.h"
#include "fo/witness.h"
#include "monitor/monitor.h"
#include "storage/codec.h"
#include "tests/engine_test_util.h"
#include "tests/test_util.h"
#include "tl/normalizer.h"
#include "tl/parser.h"
#include "workload/scenarios.h"

namespace rtic {
namespace {

using testing::EngineEvaluationsConsultDomain;
using testing::I;
using testing::IntSchema;
using testing::PQRSchemas;
using testing::T;
using testing::Unwrap;

tl::PredicateCatalog PQRCatalog() {
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : PQRSchemas()) catalog[name] = schema;
  return catalog;
}

Database PQRState() {
  Database db;
  for (const auto& [name, schema] : PQRSchemas()) {
    EXPECT_TRUE(db.CreateTable(name, schema).ok());
  }
  (void)Unwrap(Unwrap(db.GetMutableTable("P"))->Insert(T(I(1))));
  (void)Unwrap(Unwrap(db.GetMutableTable("Q"))->Insert(T(I(2))));
  (void)Unwrap(Unwrap(db.GetMutableTable("R"))->Insert(T(I(1), I(2))));
  return db;
}

TEST(DomainAnalysisTest, AgreesWithTheEvaluatorOnShapes) {
  struct Row {
    const char* text;
    bool reads;
  };
  const Row rows[] = {
      // Counterexamples are P's rows: no complement.
      {"forall x: not P(x)", false},
      {"forall x: P(x) implies Q(x)", false},
      {"forall x: P(x) implies Q(x) since[0, 4] R(x, x)", false},
      {"not (exists x: P(x) and not Q(x))", false},
      {"forall x: P(x) implies historically[0, 2] not Q(x)", false},
      // A bare atom falsified: its complement over the domain.
      {"forall x: P(x)", true},
      // The consequent's y is padded from the domain.
      {"forall x, y: P(x) implies R(x, y)", true},
      // `or` branches binding different variables are padded.
      {"exists x, y: P(x) or Q(y)", true},
      // Temporal bodies that read the domain, under domain-free verdicts:
      // the node's satisfaction set is evaluated, not filtered.
      {"forall x: P(x) implies once[0, 3] (exists y: not R(x, y))", true},
      {"forall x, y: R(x, y) implies once[0, 3] (P(x) or not Q(y))", true},
      {"not (exists a: a >= 1 and a <= 2 and not P(a))", true},
  };
  const tl::PredicateCatalog catalog = PQRCatalog();
  const Database db = PQRState();
  for (const Row& row : rows) {
    SCOPED_TRACE(row.text);
    tl::FormulaPtr normalized =
        tl::NormalizeForEngines(*Unwrap(tl::ParseFormula(row.text)));
    const tl::Analysis analysis = Unwrap(tl::Analyze(*normalized, catalog));
    EXPECT_EQ(analysis.reads_domain(), row.reads);
    EXPECT_EQ(EngineEvaluationsConsultDomain(*normalized, analysis, db),
              row.reads);
  }
}

TEST(DomainAnalysisTest, ScenarioConstraintsAreDomainFree) {
  std::size_t constraints = 0;
  for (const workload::ScenarioInfo& info : workload::AllScenarios()) {
    const workload::Workload w = Unwrap(workload::MakeScenario(info.name));
    const tl::PredicateCatalog catalog(w.schema.begin(), w.schema.end());
    for (const auto& [name, text] : w.constraints) {
      SCOPED_TRACE(info.name + "/" + name + ": " + text);
      tl::FormulaPtr normalized =
          tl::NormalizeForEngines(*Unwrap(tl::ParseFormula(text)));
      const tl::Analysis analysis = Unwrap(tl::Analyze(*normalized, catalog));
      EXPECT_FALSE(analysis.reads_domain());
      ++constraints;
    }
  }
  EXPECT_EQ(constraints, 17u);
}

TEST(DomainAnalysisTest, UnmaintainedTrackerStaysEmpty) {
  const Database db = PQRState();
  DomainTracker tracker;
  tracker.Absorb(db);
  EXPECT_EQ(tracker.size(), 2u);  // 1 and 2
  tracker.set_maintained(false);
  EXPECT_EQ(tracker.size(), 0u);
  EXPECT_TRUE(tracker.additions().empty());
  tracker.Absorb(db);
  tracker.AbsorbValues({I(7)});
  EXPECT_EQ(tracker.size(), 0u);
  tracker.set_maintained(true);
  tracker.Absorb(db);  // starts over with a full scan
  EXPECT_EQ(tracker.size(), 2u);
}

TEST(DomainAnalysisTest, ReachingAnUnmaintainedTrackerFails) {
  const tl::PredicateCatalog catalog = PQRCatalog();
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula("forall x: P(x)"));
  const tl::Analysis analysis = Unwrap(tl::Analyze(*formula, catalog));
  const Database db = PQRState();
  DomainTracker tracker;
  tracker.set_maintained(false);
  fo::EvalScratch scratch;
  fo::EvalContext ctx;
  ctx.db = &db;
  ctx.analysis = &analysis;
  ctx.domain = &tracker;
  ctx.scratch = &scratch;
  Result<Relation> verdict = fo::Evaluate(*formula, ctx);
  EXPECT_EQ(verdict.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(scratch.domain_consulted);
  Result<Relation> cex = fo::ComputeCounterexamples(*formula, ctx);
  EXPECT_EQ(cex.status().code(), StatusCode::kInternal);

  // A maintained tracker answers: 2 is in the domain but not in P.
  tracker.set_maintained(true);
  tracker.Absorb(db);
  EXPECT_FALSE(Unwrap(fo::Evaluate(*formula, ctx)).AsBool());
}

/// The number of domain values in an RTICINC1 blob.
std::int64_t DomainValues(const std::string& blob) {
  StateReader r(blob);
  EXPECT_EQ(Unwrap(r.ReadString()), "RTICINC1");
  (void)Unwrap(r.ReadString());  // constraint
  (void)Unwrap(r.ReadInt());     // has_prev
  (void)Unwrap(r.ReadInt());     // prev_time
  return Unwrap(r.ReadInt());
}

TEST(DomainAnalysisTest, SharedTrackerIsMaintainedWhileAHolderReadsIt) {
  const tl::PredicateCatalog catalog = PQRCatalog();
  auto make = [&](const std::string& text) {
    return Unwrap(
        IncrementalEngine::Create(*Unwrap(tl::ParseFormula(text)), catalog));
  };
  std::unique_ptr<IncrementalEngine> free_engine =
      make("forall x: P(x) implies once[0, 5] Q(x)");
  std::unique_ptr<IncrementalEngine> reader = make("forall x: once[0, 5] P(x)");
  inc::SubplanDag dag;
  dag.Add(free_engine.get(), 0);
  dag.Add(reader.get(), 0);

  Database db = PQRState();
  RTIC_ASSERT_OK(free_engine->OnTransition(db, 1).status());
  RTIC_ASSERT_OK(reader->OnTransition(db, 1).status());
  // The shared tracker is maintained for the reader's sake.
  EXPECT_EQ(DomainValues(Unwrap(free_engine->SaveState())), 2);
  EXPECT_EQ(DomainValues(Unwrap(reader->SaveState())), 2);

  // Left to the domain-free engine alone, it is dropped.
  dag.Remove(reader.get());
  reader.reset();
  EXPECT_EQ(DomainValues(Unwrap(free_engine->SaveState())), 0);
  (void)Unwrap(Unwrap(db.GetMutableTable("P"))->Insert(T(I(3))));
  EXPECT_FALSE(Unwrap(free_engine->OnTransition(db, 2)));
  EXPECT_EQ(DomainValues(Unwrap(free_engine->SaveState())), 0);

  // A standalone domain-free engine never keeps one.
  std::unique_ptr<IncrementalEngine> alone =
      make("forall x: P(x) implies once[0, 5] Q(x)");
  EXPECT_FALSE(Unwrap(alone->OnTransition(db, 1)));
  EXPECT_EQ(DomainValues(Unwrap(alone->SaveState())), 0);
}

// `all_ranged` is domain-free; `ids_seen` reads the domain, which ids 10 and
// 11 join before any table holds them only through
// MonitorOptions::domain_constants. Every engine kind gives the naive
// engine's verdicts, whose per-state trackers are always maintained.
TEST(DomainAnalysisTest, DomainConstantsKeepTheirVerdicts) {
  auto run = [](EngineKind kind) {
    MonitorOptions options;
    options.engine = kind;
    options.domain_constants = {I(10), I(11)};
    ConstraintMonitor monitor(options);
    EXPECT_TRUE(monitor.CreateTable("Seen", IntSchema({"a"})).ok());
    EXPECT_TRUE(monitor.CreateTable("Ranged", IntSchema({"a"})).ok());
    EXPECT_TRUE(monitor
                    .RegisterConstraint(
                        "all_ranged",
                        "forall a: Ranged(a) implies once[0, 2] Seen(a)")
                    .ok());
    EXPECT_TRUE(monitor
                    .RegisterConstraint(
                        "ids_seen",
                        "forall a: a > 9 implies once Seen(a)")
                    .ok());
    std::vector<std::string> transcript;
    for (std::int64_t t = 1; t <= 8; ++t) {
      UpdateBatch batch(t);
      if (t == 2) batch.Insert("Seen", T(I(10)));
      if (t == 3) batch.Insert("Ranged", T(I(10)));
      if (t == 6) batch.Insert("Seen", T(I(11)));
      if (t == 7) batch.Insert("Ranged", T(I(11)));
      for (const Violation& v : Unwrap(monitor.ApplyUpdate(batch))) {
        transcript.push_back(v.ToString());
      }
    }
    return transcript;
  };
  const std::vector<std::string> naive = run(EngineKind::kNaive);
  EXPECT_FALSE(naive.empty());
  EXPECT_EQ(run(EngineKind::kIncremental), naive);
  EXPECT_EQ(run(EngineKind::kActive), naive);
}

}  // namespace
}  // namespace rtic
