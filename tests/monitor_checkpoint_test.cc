// Tests for monitor-wide checkpointing: database + clock + every checker's
// state survive a save/restore round trip; continuation matches an
// uninterrupted monitor; validation rejects mismatched monitors, and a
// durable restart under a mismatched registration refuses to recover
// instead of discarding the checkpoint.

#include <gtest/gtest.h>

#include <stdlib.h>

#include "monitor/monitor.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::T;
using testing::Unwrap;

std::unique_ptr<ConstraintMonitor> AlarmMonitor(
    const workload::Workload& w) {
  auto monitor = std::make_unique<ConstraintMonitor>();
  for (const auto& [name, schema] : w.schema) {
    RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
  }
  for (const auto& [name, text] : w.constraints) {
    RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
  }
  return monitor;
}

TEST(MonitorCheckpointTest, ContinuationMatchesUninterruptedRun) {
  workload::AlarmParams params;
  params.length = 120;
  params.num_alarms = 12;
  params.late_prob = 0.2;
  params.seed = 21;
  workload::Workload w = workload::MakeAlarmWorkload(params);

  auto reference = AlarmMonitor(w);
  auto first = AlarmMonitor(w);
  std::unique_ptr<ConstraintMonitor> second;

  const std::size_t half = w.batches.size() / 2;
  for (std::size_t i = 0; i < w.batches.size(); ++i) {
    std::vector<Violation> ref = Unwrap(reference->ApplyUpdate(w.batches[i]));
    if (i < half) {
      std::vector<Violation> got = Unwrap(first->ApplyUpdate(w.batches[i]));
      ASSERT_EQ(got.size(), ref.size()) << "prefix diverged at step " << i;
      if (i == half - 1) {
        std::string checkpoint = Unwrap(first->SaveState());
        first.reset();
        second = AlarmMonitor(w);
        RTIC_ASSERT_OK(second->LoadState(checkpoint));
        EXPECT_EQ(second->current_time(), reference->current_time());
        EXPECT_EQ(second->transition_count(), reference->transition_count());
        EXPECT_EQ(second->database().TotalRows(),
                  reference->database().TotalRows());
      }
    } else {
      std::vector<Violation> got = Unwrap(second->ApplyUpdate(w.batches[i]));
      ASSERT_EQ(got.size(), ref.size())
          << "continuation diverged at step " << i;
      for (std::size_t v = 0; v < got.size(); ++v) {
        EXPECT_EQ(got[v].constraint_name, ref[v].constraint_name);
        EXPECT_EQ(got[v].witnesses, ref[v].witnesses);
      }
    }
  }
  EXPECT_EQ(second->total_violations(), reference->total_violations());
}

// Per-constraint transition/violation counters are monitor state and must
// ride in the checkpoint: a restored monitor's Stats() must stay consistent
// with its restored total_violations().
TEST(MonitorCheckpointTest, PerConstraintCountersSurviveSaveLoad) {
  workload::AlarmParams params;
  params.length = 60;
  params.num_alarms = 8;
  params.late_prob = 0.3;
  params.seed = 33;
  workload::Workload w = workload::MakeAlarmWorkload(params);

  auto original = AlarmMonitor(w);
  for (const UpdateBatch& batch : w.batches) {
    RTIC_ASSERT_OK(original->ApplyUpdate(batch).status());
  }
  ASSERT_GT(original->total_violations(), 0u)
      << "the workload must violate for this test to mean anything";

  auto restored = AlarmMonitor(w);
  RTIC_ASSERT_OK(restored->LoadState(Unwrap(original->SaveState())));

  const std::vector<ConstraintStats> want = original->Stats();
  const std::vector<ConstraintStats> got = restored->Stats();
  ASSERT_EQ(got.size(), want.size());
  std::size_t violation_sum = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].transitions, want[i].transitions) << got[i].name;
    EXPECT_EQ(got[i].violations, want[i].violations) << got[i].name;
    violation_sum += got[i].violations;
  }
  EXPECT_EQ(restored->total_violations(), original->total_violations());
  EXPECT_EQ(violation_sum, restored->total_violations())
      << "per-constraint counters must sum to the monitor total";
}

// Checkpoints from before the counters were persisted (format RTICMON1)
// cannot be restored consistently; they must be rejected with a message
// naming the version, not half-loaded.
TEST(MonitorCheckpointTest, LegacyCheckpointVersionRejected) {
  ConstraintMonitor a;
  RTIC_ASSERT_OK(a.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      a.RegisterConstraint("c", "forall a: P(a) implies once P(a)"));
  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  (void)Unwrap(a.ApplyUpdate(b1));
  std::string checkpoint = Unwrap(a.SaveState());

  const std::size_t magic_at = checkpoint.find("RTICMON3");
  ASSERT_NE(magic_at, std::string::npos);
  checkpoint.replace(magic_at, 8, "RTICMON1");

  ConstraintMonitor b;
  RTIC_ASSERT_OK(b.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      b.RegisterConstraint("c", "forall a: P(a) implies once P(a)"));
  Status s = b.LoadState(checkpoint);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("RTICMON1"), std::string::npos) << s.ToString();
}

TEST(MonitorCheckpointTest, NaiveEngineMonitorCannotCheckpoint) {
  MonitorOptions options;
  options.engine = EngineKind::kNaive;
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("c", "forall a: P(a) implies once P(a)"));
  auto r = monitor.SaveState();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(MonitorCheckpointTest, MismatchedMonitorsRejected) {
  ConstraintMonitor a;
  RTIC_ASSERT_OK(a.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      a.RegisterConstraint("c", "forall a: P(a) implies once P(a)"));
  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  (void)Unwrap(a.ApplyUpdate(b1));
  std::string checkpoint = Unwrap(a.SaveState());

  // Missing constraint.
  ConstraintMonitor no_constraint;
  RTIC_ASSERT_OK(no_constraint.CreateTable("P", IntSchema({"a"})));
  EXPECT_FALSE(no_constraint.LoadState(checkpoint).ok());

  // Different table schema.
  ConstraintMonitor wrong_schema;
  RTIC_ASSERT_OK(wrong_schema.CreateTable("P", IntSchema({"a", "b"})));
  RTIC_ASSERT_OK(wrong_schema.RegisterConstraint(
      "c", "forall a, b: P(a, b) implies once P(a, b)"));
  EXPECT_FALSE(wrong_schema.LoadState(checkpoint).ok());

  // Different constraint text (engine-level validation).
  ConstraintMonitor wrong_constraint;
  RTIC_ASSERT_OK(wrong_constraint.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(wrong_constraint.RegisterConstraint(
      "c", "forall a: P(a) implies once[0, 5] P(a)"));
  EXPECT_FALSE(wrong_constraint.LoadState(checkpoint).ok());

  // Garbage.
  ConstraintMonitor ok_monitor;
  RTIC_ASSERT_OK(ok_monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      ok_monitor.RegisterConstraint("c", "forall a: P(a) implies once P(a)"));
  EXPECT_FALSE(ok_monitor.LoadState("junk").ok());
  // And the matching monitor loads fine.
  RTIC_ASSERT_OK(ok_monitor.LoadState(checkpoint));
  EXPECT_EQ(ok_monitor.current_time(), 1);
  EXPECT_TRUE(ok_monitor.database().GetTable("P").value()->Contains(T(I(1))));
}

// A durable payroll monitor restarted with one of its two constraints
// unregistered must not take its checkpoint for damage: Recover() fails
// with FailedPrecondition and every file stays byte-identical, so a later
// restart with both constraints resumes at the old transition count.
TEST(MonitorCheckpointTest, MismatchedRegistrationRefusesRecoveryKeepsFiles) {
  workload::PayrollParams params;
  params.num_employees = 20;
  params.length = 100;
  params.seed = 5;
  const workload::Workload w = workload::MakePayrollWorkload(params);
  ASSERT_EQ(w.constraints.size(), 2u);

  char tmpl[] = "/tmp/rtic_monitor_checkpoint_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  MonitorOptions options;
  options.wal_dir = std::string(tmpl) + "/wal";
  options.checkpoint_interval = 16;  // a base and a chain of deltas
  auto make = [&](std::size_t constraints) {
    auto monitor = std::make_unique<ConstraintMonitor>(options);
    for (const auto& [name, schema] : w.schema) {
      RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
    }
    for (std::size_t i = 0; i < constraints; ++i) {
      RTIC_EXPECT_OK(monitor->RegisterConstraint(w.constraints[i].first,
                                                 w.constraints[i].second));
    }
    return monitor;
  };
  std::size_t violations = 0;
  {
    auto monitor = make(2);
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (const UpdateBatch& batch : w.batches) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(batch).status());
    }
    ASSERT_GT(monitor->checkpoint_stats().bases, 0u);
    ASSERT_GT(monitor->checkpoint_stats().deltas, 0u);
    violations = monitor->total_violations();
  }

  const auto before = testing::DirSnapshot(options.wal_dir);
  Result<wal::RecoveryStats> refused = make(1)->Recover();
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_TRUE(testing::DirSnapshot(options.wal_dir) == before)
      << "a refused recovery must leave every file in place";

  auto right = make(2);
  RTIC_ASSERT_OK(right->Recover().status());
  EXPECT_EQ(right->transition_count(), w.batches.size());
  EXPECT_EQ(right->total_violations(), violations);
}

TEST(MonitorCheckpointTest, ResponseConstraintStateSurvives) {
  ConstraintMonitor a;
  RTIC_ASSERT_OK(a.CreateTable("Raise", IntSchema({"x"})));
  RTIC_ASSERT_OK(a.CreateTable("Ack", IntSchema({"x"})));
  RTIC_ASSERT_OK(a.RegisterConstraint(
      "respond", "forall x: Raise(x) implies eventually[0, 6] Ack(x)"));
  UpdateBatch raise(1);
  raise.Insert("Raise", T(I(3)));
  (void)Unwrap(a.ApplyUpdate(raise));
  UpdateBatch clear(2);
  clear.Delete("Raise", T(I(3)));
  (void)Unwrap(a.ApplyUpdate(clear));

  std::string checkpoint = Unwrap(a.SaveState());

  ConstraintMonitor b;
  RTIC_ASSERT_OK(b.CreateTable("Raise", IntSchema({"x"})));
  RTIC_ASSERT_OK(b.CreateTable("Ack", IntSchema({"x"})));
  RTIC_ASSERT_OK(b.RegisterConstraint(
      "respond", "forall x: Raise(x) implies eventually[0, 6] Ack(x)"));
  RTIC_ASSERT_OK(b.LoadState(checkpoint));

  // The restored monitor still remembers the outstanding obligation: the
  // window [1, 7] closes unmet at t=8.
  EXPECT_TRUE(Unwrap(b.Tick(6)).empty());
  std::vector<Violation> v = Unwrap(b.Tick(8));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].witnesses[0], T(I(3)));
}

}  // namespace
}  // namespace rtic
