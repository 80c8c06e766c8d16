// Differential fuzzing: seeded random constraints (tests/formula_gen.h)
// and random delta histories are run simultaneously through
//   * the three standalone engines (naive, incremental, active), and
//   * a full monitor,
// asserting identical verdicts and identical CurrentCounterexamples row
// sets everywhere. A second suite drives monitors of the three engine kinds
// over src/workload/generators streams. Every assertion message carries the
// seed so a failure is reproducible from the log.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/engine_test_util.h"
#include "tests/formula_gen.h"
#include "workload/generators.h"

namespace rtic {
namespace {

using testing::CheckpointedConstraints;
using testing::I;
using testing::IntSchema;
using testing::PQRSchemas;
using testing::RandomConstraint;
using testing::T;
using testing::Unwrap;
using tl::FormulaPtr;

/// One random delta batch over P, Q, R with values in {0, 1, 2}.
UpdateBatch RandomDelta(Rng* rng, Timestamp t) {
  UpdateBatch batch(t);
  for (std::int64_t a = 0; a <= 2; ++a) {
    if (rng->Bernoulli(0.35)) batch.Insert("P", T(I(a)));
    if (rng->Bernoulli(0.25)) batch.Delete("P", T(I(a)));
    if (rng->Bernoulli(0.35)) batch.Insert("Q", T(I(a)));
    if (rng->Bernoulli(0.25)) batch.Delete("Q", T(I(a)));
    for (std::int64_t b = 0; b <= 2; ++b) {
      if (rng->Bernoulli(0.2)) batch.Insert("R", T(I(a), I(b)));
      if (rng->Bernoulli(0.15)) batch.Delete("R", T(I(a), I(b)));
    }
  }
  return batch;
}

/// A monitor over the P/Q/R schema with one registered constraint.
std::unique_ptr<ConstraintMonitor> MakePQRMonitor(
    const tl::Formula& constraint) {
  MonitorOptions options;
  options.max_witnesses = 1000000;  // report full counterexample sets
  auto monitor = std::make_unique<ConstraintMonitor>(options);
  EXPECT_TRUE(monitor->CreateTable("P", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("Q", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("R", IntSchema({"a", "b"})).ok());
  Status s = monitor->RegisterConstraintFormula("c", constraint);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return monitor;
}

class DifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DifferentialFuzzTest, EnginesAndParallelMonitorAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const auto schemas = PQRSchemas();
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : schemas) catalog[name] = schema;

  for (int round = 0; round < 2; ++round) {
    FormulaPtr constraint = RandomConstraint(&rng);
    const std::string trace = "seed=" + std::to_string(seed) + " round=" +
                              std::to_string(round) + " constraint: " +
                              constraint->ToString();
    SCOPED_TRACE(trace);

    auto naive = Unwrap(NaiveEngine::Create(*constraint, catalog));
    auto incremental =
        Unwrap(IncrementalEngine::Create(*constraint, catalog));
    auto active = Unwrap(ActiveEngine::Create(*constraint, catalog));
    auto monitor = MakePQRMonitor(*constraint);

    // The standalone engines see the same evolving state the monitor
    // maintains internally, reconstructed by applying each delta batch to
    // a mirror database.
    Database mirror;
    for (const auto& [name, schema] : schemas) {
      ASSERT_TRUE(mirror.CreateTable(name, schema).ok());
    }

    Timestamp t = 0;
    for (int step = 0; step < 12; ++step) {
      t += rng.UniformInt(1, 3);
      UpdateBatch batch = RandomDelta(&rng, t);
      ASSERT_TRUE(batch.Apply(&mirror).ok());

      bool v_naive = Unwrap(naive->OnTransition(mirror, t));
      bool v_inc = Unwrap(incremental->OnTransition(mirror, t));
      bool v_act = Unwrap(active->OnTransition(mirror, t));
      auto violations = Unwrap(monitor->ApplyUpdate(batch));

      ASSERT_EQ(v_naive, v_inc) << trace << " naive vs incremental at t="
                                << t;
      ASSERT_EQ(v_naive, v_act) << trace << " naive vs active at t=" << t;
      ASSERT_EQ(v_naive, violations.empty())
          << trace << " naive vs monitor at t=" << t;

      if (v_naive) continue;

      // Violated: every checker must report the identical row set.
      Relation c_naive = Unwrap(naive->CurrentCounterexamples(mirror));
      Relation c_inc =
          Unwrap(incremental->CurrentCounterexamples(mirror));
      Relation c_act = Unwrap(active->CurrentCounterexamples(mirror));
      ASSERT_EQ(c_naive, c_inc)
          << trace << " counterexamples naive vs incremental at t=" << t;
      ASSERT_EQ(c_naive, c_act)
          << trace << " counterexamples naive vs active at t=" << t;

      ASSERT_EQ(violations.size(), 1u) << trace;
      const Violation& v = violations[0];
      EXPECT_EQ(v.timestamp, t) << trace;
      ASSERT_EQ(v.witnesses, c_naive.SortedRows())
          << trace << " monitor witness rows diverge at t=" << t;
      ASSERT_EQ(v.witness_columns.size(), c_naive.columns().size()) << trace;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 31));

/// Renders violation reports for sequence comparison.
std::vector<std::string> Render(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  out.reserve(violations.size());
  for (const Violation& v : violations) out.push_back(v.ToString());
  return out;
}

/// Monitors of every engine kind over a generated workload stream:
/// identical violation report sequences everywhere.
void RunWorkloadDifferential(const workload::Workload& w,
                             const std::string& label) {
  const std::vector<EngineKind> engines = {
      EngineKind::kIncremental, EngineKind::kNaive, EngineKind::kActive};

  std::vector<std::unique_ptr<ConstraintMonitor>> monitors;
  for (EngineKind engine : engines) {
    MonitorOptions options;
    options.engine = engine;
    auto monitor = std::make_unique<ConstraintMonitor>(options);
    for (const auto& [name, schema] : w.schema) {
      ASSERT_TRUE(monitor->CreateTable(name, schema).ok());
    }
    for (const auto& [name, text] : w.constraints) {
      Status s = monitor->RegisterConstraint(name, text);
      ASSERT_TRUE(s.ok()) << label << " " << name << ": " << s.ToString();
    }
    monitors.push_back(std::move(monitor));
  }

  for (std::size_t i = 0; i < w.batches.size(); ++i) {
    SCOPED_TRACE(label + " batch " + std::to_string(i));
    std::vector<std::string> reference;
    for (std::size_t m = 0; m < monitors.size(); ++m) {
      auto violations = Unwrap(monitors[m]->ApplyUpdate(w.batches[i]));
      if (m == 0) {
        reference = Render(violations);
      } else {
        ASSERT_EQ(reference, Render(violations))
            << EngineKindToString(engines[m]) << " diverges from "
            << EngineKindToString(engines[0]);
      }
    }
  }
}

TEST(WorkloadDifferentialTest, PayrollStreamAllVariantsAgree) {
  workload::PayrollParams params;
  params.num_employees = 20;
  params.length = 120;
  params.seed = 9001;
  RunWorkloadDifferential(workload::MakePayrollWorkload(params),
                          "payroll seed=9001");
}

TEST(WorkloadDifferentialTest, LibraryStreamAllVariantsAgree) {
  workload::LibraryParams params;
  params.num_patrons = 10;
  params.num_books = 30;
  params.length = 100;
  params.seed = 9002;
  RunWorkloadDifferential(workload::MakeLibraryWorkload(params),
                          "library seed=9002");
}

// ---- shared-subplan differentials ------------------------------------------

using Registrations = std::vector<std::pair<std::string, std::string>>;

/// A P/Q/R monitor with several named constraints, all registered before
/// the first update, so identical subplans are shared.
std::unique_ptr<ConstraintMonitor> MakeSharingMonitor(
    const Registrations& constraints) {
  MonitorOptions options;
  options.max_witnesses = 1000000;
  auto monitor = std::make_unique<ConstraintMonitor>(options);
  EXPECT_TRUE(monitor->CreateTable("P", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("Q", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("R", IntSchema({"a", "b"})).ok());
  for (const auto& [name, text] : constraints) {
    Status s = monitor->RegisterConstraint(name, text);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
  return monitor;
}

/// The reference a sharing monitor must reproduce: one single-constraint
/// monitor per constraint, so nothing is shared between constraints.
class SoloMonitors {
 public:
  explicit SoloMonitors(const Registrations& constraints) {
    for (const auto& c : constraints) {
      monitors_.emplace_back(c.first, MakeSharingMonitor({c}));
    }
  }

  /// Every monitor's reports for `batch`, in registration order.
  std::vector<std::string> Apply(const UpdateBatch& batch) {
    std::vector<Violation> all;
    for (auto& [name, monitor] : monitors_) {
      for (Violation& v : Unwrap(monitor->ApplyUpdate(batch))) {
        all.push_back(std::move(v));
      }
    }
    return Render(all);
  }

  /// Every constraint's checkpointed state, in registration order.
  std::vector<std::string> Checkpointed() const {
    std::vector<std::string> out;
    for (const auto& [name, monitor] : monitors_) {
      out.push_back(
          CheckpointedConstraints(Unwrap(monitor->SaveState())).at(0));
    }
    return out;
  }

  void Drop(const std::string& name) {
    std::erase_if(monitors_, [&](const auto& m) { return m.first == name; });
  }

 private:
  std::vector<std::pair<std::string, std::unique_ptr<ConstraintMonitor>>>
      monitors_;
};

class SharedSubplanFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Duplicate constraints: the same formula registered under three names.
// The duplicates coalesce down to one evaluation per transition; reports
// and per-constraint checkpoint entries must stay byte-identical to
// single-constraint monitors, also through a restore, which keeps every
// handle coalesced.
TEST_P(SharedSubplanFuzzTest, DuplicateConstraintsByteIdentical) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  FormulaPtr constraint = RandomConstraint(&rng);
  const std::string text = constraint->ToString();
  const std::string trace = "seed=" + std::to_string(seed) +
                            " constraint: " + text;
  SCOPED_TRACE(trace);
  const Registrations registered = {{"c1", text}, {"c2", text}, {"c3", text}};

  SoloMonitors solo(registered);
  auto shared = MakeSharingMonitor(registered);

  // Exact duplicates coalesce at least the verdict for every engine after
  // the first (temporal nodes add more).
  const std::vector<ConstraintStats> stats = shared->Stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].shared_subplans, 0u) << trace;
  EXPECT_GE(stats[1].shared_subplans, 1u) << trace;
  EXPECT_GE(stats[2].shared_subplans, 1u) << trace;

  Timestamp t = 0;
  for (int step = 0; step < 12; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    const std::vector<std::string> want = solo.Apply(batch);
    ASSERT_EQ(want, Render(Unwrap(shared->ApplyUpdate(batch))))
        << trace << " shared diverges at t=" << t;
  }

  // Checkpoints serialize shared objects as if owned.
  const std::string blob = Unwrap(shared->SaveState());
  ASSERT_EQ(CheckpointedConstraints(blob), solo.Checkpointed()) << trace;

  // A restore keeps every handle coalesced, and verdicts keep matching.
  RTIC_ASSERT_OK(shared->LoadState(blob));
  const std::vector<ConstraintStats> restored = shared->Stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(restored[i].shared_subplans, stats[i].shared_subplans)
        << trace << " restore must keep " << stats[i].name << " coalesced";
  }
  for (int step = 0; step < 6; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    const std::vector<std::string> want = solo.Apply(batch);
    ASSERT_EQ(want, Render(Unwrap(shared->ApplyUpdate(batch))))
        << trace << " post-restore diverges at t=" << t;
  }
  ASSERT_EQ(CheckpointedConstraints(Unwrap(shared->SaveState())),
            solo.Checkpointed())
      << trace;
}

// Distinct constraints with a common temporal subformula: only the
// subformula's state coalesces (no verdict sharing), and unregistering the
// engine that writes the shared nodes and the domain must leave the
// survivor's verdicts intact.
TEST_P(SharedSubplanFuzzTest, OverlappingSubformulasAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::string trace = "seed=" + std::to_string(seed);
  SCOPED_TRACE(trace);
  // Both constraints contain the subplans "once[0, 5] Q(a)" and
  // "previous P(a)"; the surrounding formulas differ.
  const Registrations registered = {
      {"lhs_p", "forall a: P(a) implies once[0, 5] Q(a) or previous P(a)"},
      {"lhs_r",
       "forall a, b: R(a, b) implies once[0, 5] Q(a) or previous P(a)"}};

  SoloMonitors solo(registered);
  auto shared = MakeSharingMonitor(registered);

  const std::vector<ConstraintStats> stats = shared->Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].shared_subplans, 0u);
  // The second engine coalesces both temporal nodes but not the verdict.
  EXPECT_EQ(stats[1].shared_subplans, 2u);

  Timestamp t = 0;
  for (int step = 0; step < 12; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    ASSERT_EQ(solo.Apply(batch), Render(Unwrap(shared->ApplyUpdate(batch))))
        << trace << " diverges at t=" << t;
  }

  // Drop the first-registered constraint; the survivor takes over the
  // shared nodes and must keep advancing them.
  solo.Drop("lhs_p");
  RTIC_ASSERT_OK(shared->UnregisterConstraint("lhs_p"));
  for (int step = 0; step < 8; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    ASSERT_EQ(solo.Apply(batch), Render(Unwrap(shared->ApplyUpdate(batch))))
        << trace << " post-unregister diverges at t=" << t;
  }
}

// Unregistering the constraint that writes a shared node, a shared verdict
// and the domain hands each object to the next live reader: the survivors
// report, and checkpoint, exactly what they would had that constraint
// never been registered.
TEST_P(SharedSubplanFuzzTest, UnregisteredWriterHandsOverItsObjects) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::string trace = "seed=" + std::to_string(seed);
  SCOPED_TRACE(trace);
  const std::string text =
      "forall a: P(a) implies once[0, 5] Q(a) or previous P(a)";
  // "copy" reads the writer's nodes and verdict, "overlap" its once node;
  // both read its domain.
  const Registrations survivors = {
      {"copy", text}, {"overlap", "forall a, b: R(a, b) implies once[0, 5] Q(a)"}};
  Registrations registered = {{"writer", text}};
  registered.insert(registered.end(), survivors.begin(), survivors.end());

  auto shared = MakeSharingMonitor(registered);
  auto never = MakeSharingMonitor(survivors);
  ASSERT_EQ(shared->Stats()[1].shared_subplans, 3u);
  ASSERT_EQ(shared->Stats()[2].shared_subplans, 1u);

  Timestamp t = 0;
  for (int step = 0; step < 20; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    std::vector<Violation> got = Unwrap(shared->ApplyUpdate(batch));
    std::erase_if(got, [](const Violation& v) {
      return v.constraint_name == "writer";
    });
    ASSERT_EQ(Render(Unwrap(never->ApplyUpdate(batch))), Render(got))
        << trace << " diverges at t=" << t;
    if (step == 9) RTIC_ASSERT_OK(shared->UnregisterConstraint("writer"));
  }
  ASSERT_EQ(CheckpointedConstraints(Unwrap(shared->SaveState())),
            CheckpointedConstraints(Unwrap(never->SaveState())))
      << trace;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedSubplanFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- erroring engines --------------------------------------------------------

/// Holds on every transition except call number `fail_at`, which errors.
class FailingEngine final : public CheckerEngine {
 public:
  explicit FailingEngine(int fail_at) : fail_at_(fail_at) {}

  Result<bool> OnTransition(const Database&, Timestamp) override {
    if (++calls_ == fail_at_) return Status::Internal("injected check error");
    return true;
  }
  Result<Relation> CurrentCounterexamples(const Database&) override {
    return Relation(std::vector<Column>{});
  }
  std::size_t StorageRows() const override { return 0; }
  const char* name() const override { return "failing"; }
  Result<std::string> SaveState() const override { return std::string(); }

 private:
  const int fail_at_;
  int calls_ = 0;
};

/// A P/Q monitor with a plain and a temporal constraint and, when
/// `with_failing`, a failing engine registered between them.
std::unique_ptr<ConstraintMonitor> MakeMonitorAroundFailingEngine(
    bool with_failing) {
  auto monitor = std::make_unique<ConstraintMonitor>();
  EXPECT_TRUE(monitor->CreateTable("P", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("Q", IntSchema({"a"})).ok());
  // Registration order matters: the failing engine sits BETWEEN two healthy
  // constraints, so a monitor that stopped checking at the error would
  // starve the temporal constraint behind it of a transition.
  RTIC_EXPECT_OK(monitor->RegisterConstraint("a_plain",
                                             "forall a: P(a) implies P(a)"));
  if (with_failing) {
    RTIC_EXPECT_OK(monitor->RegisterConstraintEngine(
        "b_failing", std::make_unique<FailingEngine>(/*fail_at=*/2)));
  }
  RTIC_EXPECT_OK(monitor->RegisterConstraint(
      "c_temporal", "forall a: Q(a) implies previous P(a)"));
  return monitor;
}

// One constraint's check error must not cost the engines registered after
// it a transition. The scenario is built so that missing exactly the
// erroring transition flips a later verdict: P(7) is deleted at t=2 (where
// the failing engine errors), so "previous P(a)" at t=3 only reports a
// violation if the temporal engine saw t=2. Later verdicts and engine
// states equal those of a monitor without the failing engine; only the
// counters stop at the error.
TEST(ErroringEngineDifferentialTest, LaterEnginesObserveEveryTransition) {
  auto failing = MakeMonitorAroundFailingEngine(/*with_failing=*/true);
  auto without = MakeMonitorAroundFailingEngine(/*with_failing=*/false);

  UpdateBatch insert_p(1);
  insert_p.Insert("P", T(I(7)));
  UpdateBatch delete_p(2);
  delete_p.Delete("P", T(I(7)));
  UpdateBatch insert_q(3);
  insert_q.Insert("Q", T(I(7)));

  // t=1: all healthy.
  EXPECT_TRUE(Unwrap(failing->ApplyUpdate(insert_p)).empty());
  EXPECT_TRUE(Unwrap(without->ApplyUpdate(insert_p)).empty());

  // t=2: the failing engine errors, and the monitor returns its error.
  Result<std::vector<Violation>> err = failing->ApplyUpdate(delete_p);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().ToString(),
            Status::Internal("injected check error").ToString());
  EXPECT_TRUE(Unwrap(without->ApplyUpdate(delete_p)).empty());

  // t=3: the temporal constraint saw the t=2 deletion.
  const std::vector<Violation> want = Unwrap(without->ApplyUpdate(insert_q));
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].constraint_name, "c_temporal");
  ASSERT_EQ(Render(Unwrap(failing->ApplyUpdate(insert_q))), Render(want))
      << "the temporal engine missed the erroring transition";

  // Checkpoint entries (name, transitions, violations, engine state): the
  // counters stop at the first error in registration order, so a_plain,
  // checked before it, counts t=2 and c_temporal, checked after it, does
  // not; every engine state is the one it has without the failing engine.
  const std::vector<std::string> got =
      CheckpointedConstraints(Unwrap(failing->SaveState()));
  const std::vector<std::string> expected =
      CheckpointedConstraints(Unwrap(without->SaveState()));
  ASSERT_EQ(got.size(), 3u);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(got[0], expected[0]);
  EXPECT_EQ(got[1], "b_failing 2 0 ");
  const std::string counters = "c_temporal 3 1 ";
  ASSERT_EQ(expected[1].substr(0, counters.size()), counters);
  EXPECT_EQ(got[2], "c_temporal 2 1 " + expected[1].substr(counters.size()));
}

}  // namespace
}  // namespace rtic
