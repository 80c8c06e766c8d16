// Differential fuzzing: seeded random constraints (tests/formula_gen.h)
// and random delta histories are run simultaneously through
//   * the three standalone engines (naive, incremental, active), and
//   * full monitors in serial (num_threads=1) and parallel (num_threads=8)
//     mode,
// asserting identical verdicts and identical CurrentCounterexamples row
// sets everywhere. A second suite drives the three engine kinds plus the
// parallel monitor over src/workload/generators streams. Every assertion
// message carries the seed so a failure is reproducible from the log.

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
    const tl::Formula& constraint, std::size_t num_threads) {
  MonitorOptions options;
  options.num_threads = num_threads;
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
    auto serial_monitor = MakePQRMonitor(*constraint, 1);
    auto parallel_monitor = MakePQRMonitor(*constraint, 8);

    // The standalone engines see the same evolving state the monitors
    // maintain internally, reconstructed by applying each delta batch to
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
      auto serial_violations = Unwrap(serial_monitor->ApplyUpdate(batch));
      auto parallel_violations =
          Unwrap(parallel_monitor->ApplyUpdate(batch));

      ASSERT_EQ(v_naive, v_inc) << trace << " naive vs incremental at t="
                                << t;
      ASSERT_EQ(v_naive, v_act) << trace << " naive vs active at t=" << t;
      ASSERT_EQ(v_naive, serial_violations.empty() ? true : false)
          << trace << " naive vs serial monitor at t=" << t;
      ASSERT_EQ(serial_violations.size(), parallel_violations.size())
          << trace << " serial vs parallel monitor at t=" << t;

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

      const std::vector<Tuple> expected_rows = c_naive.SortedRows();
      ASSERT_EQ(serial_violations.size(), 1u) << trace;
      ASSERT_EQ(parallel_violations.size(), 1u) << trace;
      for (const auto* violations :
           {&serial_violations, &parallel_violations}) {
        const Violation& v = (*violations)[0];
        EXPECT_EQ(v.timestamp, t) << trace;
        ASSERT_EQ(v.witnesses, expected_rows)
            << trace << " monitor witness rows diverge at t=" << t;
        ASSERT_EQ(v.witness_columns.size(), c_naive.columns().size())
            << trace;
      }
      ASSERT_EQ(serial_violations[0].ToString(),
                parallel_violations[0].ToString())
          << trace << " serial vs parallel report at t=" << t;
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

/// All engine kinds plus the parallel monitor over a generated workload
/// stream: identical violation report sequences everywhere.
void RunWorkloadDifferential(const workload::Workload& w,
                             const std::string& label) {
  struct Variant {
    std::string name;
    EngineKind engine;
    std::size_t num_threads;
  };
  const std::vector<Variant> variants = {
      {"incremental/serial", EngineKind::kIncremental, 1},
      {"incremental/parallel", EngineKind::kIncremental, 8},
      {"naive/serial", EngineKind::kNaive, 1},
      {"naive/parallel", EngineKind::kNaive, 8},
      {"active/parallel", EngineKind::kActive, 8},
  };

  std::vector<std::unique_ptr<ConstraintMonitor>> monitors;
  for (const Variant& variant : variants) {
    MonitorOptions options;
    options.engine = variant.engine;
    options.num_threads = variant.num_threads;
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
            << variants[m].name << " diverges from " << variants[0].name;
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
    const Registrations& constraints, std::size_t num_threads) {
  MonitorOptions options;
  options.num_threads = num_threads;
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
      monitors_.emplace_back(c.first, MakeSharingMonitor({c}, 1));
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
// single-constraint monitors, in both serial and parallel fan-out, and
// through a restore, which keeps every handle coalesced.
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
  auto shared_serial = MakeSharingMonitor(registered, 1);
  auto shared_parallel = MakeSharingMonitor(registered, 8);

  // Exact duplicates coalesce at least the verdict for every engine after
  // the first (temporal nodes add more).
  const std::vector<ConstraintStats> stats = shared_serial->Stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].shared_subplans, 0u) << trace;
  EXPECT_GE(stats[1].shared_subplans, 1u) << trace;
  EXPECT_GE(stats[2].shared_subplans, 1u) << trace;

  Timestamp t = 0;
  for (int step = 0; step < 12; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    const std::vector<std::string> want = solo.Apply(batch);
    ASSERT_EQ(want, Render(Unwrap(shared_serial->ApplyUpdate(batch))))
        << trace << " shared/serial diverges at t=" << t;
    ASSERT_EQ(want, Render(Unwrap(shared_parallel->ApplyUpdate(batch))))
        << trace << " shared/parallel diverges at t=" << t;
  }

  // Checkpoints serialize shared objects as if owned.
  const std::string blob = Unwrap(shared_serial->SaveState());
  ASSERT_EQ(CheckpointedConstraints(blob), solo.Checkpointed()) << trace;
  ASSERT_EQ(Unwrap(shared_parallel->SaveState()), blob) << trace;

  // A restore keeps every handle coalesced, and verdicts keep matching.
  for (ConstraintMonitor* m : {shared_serial.get(), shared_parallel.get()}) {
    RTIC_ASSERT_OK(m->LoadState(blob));
    const std::vector<ConstraintStats> restored = m->Stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(restored[i].shared_subplans, stats[i].shared_subplans)
          << trace << " restore must keep " << stats[i].name << " coalesced";
    }
  }
  for (int step = 0; step < 6; ++step) {
    t += rng.UniformInt(1, 3);
    UpdateBatch batch = RandomDelta(&rng, t);
    const std::vector<std::string> want = solo.Apply(batch);
    ASSERT_EQ(want, Render(Unwrap(shared_serial->ApplyUpdate(batch))))
        << trace << " post-restore serial diverges at t=" << t;
    ASSERT_EQ(want, Render(Unwrap(shared_parallel->ApplyUpdate(batch))))
        << trace << " post-restore parallel diverges at t=" << t;
  }
  ASSERT_EQ(CheckpointedConstraints(Unwrap(shared_parallel->SaveState())),
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
  auto shared = MakeSharingMonitor(registered, 8);

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

  auto shared = MakeSharingMonitor(registered, 8);
  auto never = MakeSharingMonitor(survivors, 1);
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

 private:
  const int fail_at_;
  int calls_ = 0;
};

std::unique_ptr<ConstraintMonitor> MakeMonitorWithFailingEngine(
    std::size_t num_threads) {
  MonitorOptions options;
  options.num_threads = num_threads;
  auto monitor = std::make_unique<ConstraintMonitor>(options);
  EXPECT_TRUE(monitor->CreateTable("P", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("Q", IntSchema({"a"})).ok());
  // Registration order matters: the failing engine sits BETWEEN two healthy
  // constraints, so a serial path that stopped checking at the error would
  // starve the temporal constraint behind it of a transition.
  RTIC_EXPECT_OK(monitor->RegisterConstraint("a_plain",
                                             "forall a: P(a) implies P(a)"));
  RTIC_EXPECT_OK(monitor->RegisterConstraintEngine(
      "b_failing", std::make_unique<FailingEngine>(/*fail_at=*/2)));
  RTIC_EXPECT_OK(monitor->RegisterConstraint(
      "c_temporal", "forall a: Q(a) implies previous P(a)"));
  return monitor;
}

// One constraint's check error must not desynchronize the OTHER engines
// between the serial and parallel paths. The scenario is built so that
// missing exactly the erroring transition flips a later verdict: P(7) is
// deleted at t=2 (where the failing engine errors), so "previous P(a)" at
// t=3 only reports a violation if the temporal engine saw t=2.
TEST(ErroringEngineDifferentialTest, SerialAndParallelStayIdentical) {
  auto serial = MakeMonitorWithFailingEngine(1);
  auto parallel = MakeMonitorWithFailingEngine(8);

  UpdateBatch insert_p(1);
  insert_p.Insert("P", T(I(7)));
  UpdateBatch delete_p(2);
  delete_p.Delete("P", T(I(7)));
  UpdateBatch insert_q(3);
  insert_q.Insert("Q", T(I(7)));

  // t=1: all healthy.
  EXPECT_TRUE(Unwrap(serial->ApplyUpdate(insert_p)).empty());
  EXPECT_TRUE(Unwrap(parallel->ApplyUpdate(insert_p)).empty());

  // t=2: the failing engine errors; both paths must surface it.
  Result<std::vector<Violation>> serial_err = serial->ApplyUpdate(delete_p);
  Result<std::vector<Violation>> parallel_err =
      parallel->ApplyUpdate(delete_p);
  ASSERT_FALSE(serial_err.ok());
  ASSERT_FALSE(parallel_err.ok());
  EXPECT_EQ(serial_err.status().ToString(), parallel_err.status().ToString());

  // t=3: the temporal constraint must have seen the t=2 deletion in BOTH
  // monitors, so both report the violation.
  auto serial_violations = Unwrap(serial->ApplyUpdate(insert_q));
  auto parallel_violations = Unwrap(parallel->ApplyUpdate(insert_q));
  ASSERT_EQ(serial_violations.size(), 1u)
      << "the temporal engine missed the erroring transition";
  EXPECT_EQ(serial_violations[0].constraint_name, "c_temporal");
  ASSERT_EQ(Render(serial_violations), Render(parallel_violations));

  // And the bookkeeping agrees too.
  const std::vector<ConstraintStats> s_stats = serial->Stats();
  const std::vector<ConstraintStats> p_stats = parallel->Stats();
  ASSERT_EQ(s_stats.size(), p_stats.size());
  for (std::size_t i = 0; i < s_stats.size(); ++i) {
    EXPECT_EQ(s_stats[i].transitions, p_stats[i].transitions)
        << s_stats[i].name;
    EXPECT_EQ(s_stats[i].violations, p_stats[i].violations)
        << s_stats[i].name;
  }
}

}  // namespace
}  // namespace rtic
