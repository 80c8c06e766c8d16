// Tests for the ConstraintMonitor facade: registration, update application,
// violation reporting with witnesses, clock ticks, engine selection, and
// error paths.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "monitor/monitor.h"
#include "tests/test_util.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::S;
using testing::T;
using testing::Unwrap;

class MonitorTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  MonitorOptions Options() {
    MonitorOptions options;
    options.engine = GetParam();
    return options;
  }
};

TEST_P(MonitorTest, EndToEndPayCutDetection) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("Emp", IntSchema({"id", "salary"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "no_pay_cut",
      "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0"));

  UpdateBatch hire(1);
  hire.Insert("Emp", T(I(1), I(100)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(hire)).empty());

  UpdateBatch cut(2);
  cut.Delete("Emp", T(I(1), I(100)));
  cut.Insert("Emp", T(I(1), I(90)));
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(cut));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].constraint_name, "no_pay_cut");
  EXPECT_EQ(v[0].timestamp, 2);
  EXPECT_EQ(v[0].witness_columns,
            (std::vector<std::string>{"e", "s", "s0"}));
  ASSERT_EQ(v[0].witnesses.size(), 1u);
  EXPECT_EQ(v[0].witnesses[0], T(I(1), I(90), I(100)));
  EXPECT_EQ(monitor.total_violations(), 1u);
}

TEST_P(MonitorTest, TickCanCauseDeadlineViolation) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("Active", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Raise", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "deadline",
      "forall a: Active(a) implies Active(a) since[0, 5] Raise(a)"));

  UpdateBatch raise(1);
  raise.Insert("Raise", T(I(7)));
  raise.Insert("Active", T(I(7)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(raise)).empty());

  UpdateBatch clear_event(2);
  clear_event.Delete("Raise", T(I(7)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(clear_event)).empty());

  // Nothing changes, but the clock passes the deadline.
  EXPECT_TRUE(Unwrap(monitor.Tick(6)).empty());
  std::vector<Violation> v = Unwrap(monitor.Tick(7));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].witnesses[0], T(I(7)));
}

TEST_P(MonitorTest, MultipleConstraintsReportIndependently) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Q", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "p_needs_q", "forall a: P(a) implies Q(a)"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "q_once_p", "forall a: Q(a) implies once P(a)"));
  EXPECT_EQ(monitor.ConstraintNames(),
            (std::vector<std::string>{"p_needs_q", "q_once_p"}));

  UpdateBatch b(1);
  b.Insert("P", T(I(1)));  // violates p_needs_q
  b.Insert("Q", T(I(2)));  // violates q_once_p
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(b));
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].constraint_name, "p_needs_q");
  EXPECT_EQ(v[1].constraint_name, "q_once_p");
}

TEST_P(MonitorTest, WitnessLimitIsApplied) {
  MonitorOptions options = Options();
  options.max_witnesses = 2;
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "never_p", "forall a: P(a) implies false"));
  UpdateBatch b(1);
  for (int i = 0; i < 5; ++i) b.Insert("P", T(I(i)));
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(b));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].witnesses.size(), 2u);
}

TEST_P(MonitorTest, RegistrationErrors) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  // Parse error.
  EXPECT_FALSE(monitor.RegisterConstraint("bad", "P(").ok());
  // Unknown predicate.
  EXPECT_FALSE(monitor.RegisterConstraint("bad", "forall a: Zz(a)").ok());
  // Open formula.
  EXPECT_FALSE(monitor.RegisterConstraint("bad", "P(a)").ok());
  // Duplicate name.
  RTIC_ASSERT_OK(monitor.RegisterConstraint("ok", "forall a: P(a) implies true"));
  EXPECT_EQ(
      monitor.RegisterConstraint("ok", "forall a: P(a) implies true").code(),
      StatusCode::kAlreadyExists);
}

TEST_P(MonitorTest, TimestampsMustAdvance) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  (void)Unwrap(monitor.ApplyUpdate(UpdateBatch(5)));
  EXPECT_FALSE(monitor.ApplyUpdate(UpdateBatch(5)).ok());
  EXPECT_FALSE(monitor.ApplyUpdate(UpdateBatch(4)).ok());
  EXPECT_TRUE(monitor.ApplyUpdate(UpdateBatch(6)).ok());
  EXPECT_EQ(monitor.current_time(), 6);
  EXPECT_EQ(monitor.transition_count(), 2u);
}

TEST_P(MonitorTest, TablesLockedAfterFirstUpdate) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  (void)Unwrap(monitor.ApplyUpdate(UpdateBatch(1)));
  EXPECT_EQ(monitor.CreateTable("Q", IntSchema({"a"})).code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(MonitorTest, WarningsSurfaceAtRegistration) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "warned", "not (exists a: not P(a))"));
  std::vector<std::string> warnings = Unwrap(monitor.WarningsFor("warned"));
  EXPECT_FALSE(warnings.empty());
  EXPECT_FALSE(monitor.WarningsFor("unknown").ok());
}

TEST_P(MonitorTest, DomainConstantsWidenQuantification) {
  MonitorOptions options = Options();
  options.domain_constants = {I(10), I(11)};
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("Seen", IntSchema({"a"})));
  // "every registered id has been seen" — ids live only in the options.
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "all_seen", "not (exists a: a >= 10 and a <= 11 and not Seen(a))"));
  UpdateBatch b1(1);
  b1.Insert("Seen", T(I(10)));
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(b1));
  EXPECT_EQ(v.size(), 1u);  // 11 not seen
  UpdateBatch b2(2);
  b2.Insert("Seen", T(I(11)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(b2)).empty());
}

TEST_P(MonitorTest, ViolationToStringIsReadable) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("never", "forall a: P(a) implies false"));
  UpdateBatch b(3);
  b.Insert("P", T(I(9)));
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(b));
  ASSERT_EQ(v.size(), 1u);
  std::string s = v[0].ToString();
  EXPECT_NE(s.find("never"), std::string::npos);
  EXPECT_NE(s.find("time 3"), std::string::npos);
  EXPECT_NE(s.find("(9)"), std::string::npos);
}

TEST_P(MonitorTest, StorageAccountingIsVisible) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c", "forall a: P(a) implies once[0, inf] P(a)"));
  UpdateBatch b(1);
  b.Insert("P", T(I(1)));
  (void)Unwrap(monitor.ApplyUpdate(b));
  EXPECT_GT(monitor.TotalStorageRows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, MonitorTest,
    ::testing::Values(EngineKind::kIncremental, EngineKind::kNaive,
                      EngineKind::kActive),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return EngineKindToString(info.param);
    });

TEST_P(MonitorTest, StatsAccumulatePerConstraint) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("always_ok", "forall a: P(a) implies true"));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("never_ok", "forall a: P(a) implies false"));

  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  (void)Unwrap(monitor.ApplyUpdate(b1));
  (void)Unwrap(monitor.Tick(2));

  std::vector<ConstraintStats> stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "always_ok");
  EXPECT_EQ(stats[0].transitions, 2u);
  EXPECT_EQ(stats[0].violations, 0u);
  EXPECT_EQ(stats[1].name, "never_ok");
  EXPECT_EQ(stats[1].transitions, 2u);
  EXPECT_EQ(stats[1].violations, 2u);
  EXPECT_GE(stats[1].max_check_micros, 0);
  EXPECT_GE(stats[1].MeanCheckMicros(), 0.0);
  EXPECT_NE(stats[1].ToString().find("never_ok"), std::string::npos);
}

TEST_P(MonitorTest, UnregisterStopsChecking) {
  ConstraintMonitor monitor(Options());
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("never", "forall a: P(a) implies false"));
  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  EXPECT_EQ(Unwrap(monitor.ApplyUpdate(b1)).size(), 1u);

  RTIC_ASSERT_OK(monitor.UnregisterConstraint("never"));
  EXPECT_EQ(monitor.UnregisterConstraint("never").code(),
            StatusCode::kNotFound);
  UpdateBatch b2(2);
  b2.Insert("P", T(I(2)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(b2)).empty());
  EXPECT_TRUE(monitor.ConstraintNames().empty());
  // Re-registration under the same name starts fresh.
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("never", "forall a: P(a) implies false"));
}

// The shared-subplan pass must coalesce known-identical temporal subplans
// across constraints and report the count through ConstraintStats.
TEST(MonitorSharingTest, CoalescesKnownIdenticalSubplans) {
  ConstraintMonitor monitor;
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Q", IntSchema({"a"})));
  // Both constraints contain the identical subplan "once[0, 5] Q(a)"; the
  // second also duplicates the first's "previous P(a)".
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c1", "forall a: P(a) implies once[0, 5] Q(a) or previous P(a)"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c2", "forall a: Q(a) implies once[0, 5] Q(a) or previous P(a)"));
  // An exact duplicate of c1 additionally coalesces the verdict.
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c3", "forall a: P(a) implies once[0, 5] Q(a) or previous P(a)"));

  const std::vector<ConstraintStats> stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].shared_subplans, 0u);  // first acquirer owns everything
  EXPECT_EQ(stats[1].shared_subplans, 2u);  // once + previous nodes
  EXPECT_EQ(stats[2].shared_subplans, 3u);  // both nodes + the verdict

  // Sharing stays correct through actual transitions.
  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  EXPECT_EQ(Unwrap(monitor.ApplyUpdate(b1)).size(), 2u);  // c1 and c3
  UpdateBatch b2(2);
  b2.Insert("Q", T(I(1)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(b2)).empty());
}

// Constraints registered mid-stream have seen a shorter history, so they
// must NOT coalesce with engines registered at an earlier epoch — their
// auxiliary state legitimately differs.
TEST(MonitorSharingTest, LateRegistrationDoesNotCoalesce) {
  ConstraintMonitor monitor;
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "early", "forall a: P(a) implies once[0, 100] P(a)"));
  UpdateBatch b1(1);
  b1.Insert("P", T(I(1)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(b1)).empty());

  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "late", "forall a: P(a) implies once[0, 100] P(a)"));
  const std::vector<ConstraintStats> stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[1].shared_subplans, 0u) << "late registrant must not "
                                             "coalesce across epochs";

  // Both engines keep checking independently after the late registration.
  UpdateBatch b2(2);
  b2.Delete("P", T(I(1)));
  b2.Insert("P", T(I(2)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(b2)).empty());
}

// A restarted process registers every constraint before the first update,
// so two constraints that were registered at different epochs share by text
// again. Their checkpoints disagree, so the restore must split them apart:
// the late one keeps its own, shorter history.
TEST(MonitorSharingTest, RestoreSplitsSubplansWhoseStateDiffers) {
  const std::string text = "forall a: P(a) implies once[0, 100] Q(a)";
  auto make = [&](bool late) {
    auto monitor = std::make_unique<ConstraintMonitor>();
    RTIC_EXPECT_OK(monitor->CreateTable("P", IntSchema({"a"})));
    RTIC_EXPECT_OK(monitor->CreateTable("Q", IntSchema({"a"})));
    RTIC_EXPECT_OK(monitor->RegisterConstraint("early", text));
    if (!late) RTIC_EXPECT_OK(monitor->RegisterConstraint("late", text));
    return monitor;
  };
  auto original = make(/*late=*/true);
  UpdateBatch b1(1);
  b1.Insert("Q", T(I(1)));
  UpdateBatch b2(2);
  b2.Delete("Q", T(I(1)));
  EXPECT_TRUE(Unwrap(original->ApplyUpdate(b1)).empty());
  EXPECT_TRUE(Unwrap(original->ApplyUpdate(b2)).empty());
  RTIC_ASSERT_OK(original->RegisterConstraint("late", text));
  const std::string checkpoint = Unwrap(original->SaveState());

  auto restarted = make(/*late=*/false);
  EXPECT_EQ(restarted->Stats()[1].shared_subplans, 2u);  // once + verdict
  RTIC_ASSERT_OK(restarted->LoadState(checkpoint));
  EXPECT_EQ(restarted->Stats()[1].shared_subplans, 0u);
  EXPECT_EQ(Unwrap(restarted->SaveState()), checkpoint);

  // Only "early" saw Q(1), so only "late" reports P(1).
  UpdateBatch b3(3);
  b3.Insert("P", T(I(1)));
  const std::vector<Violation> want = Unwrap(original->ApplyUpdate(b3));
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].constraint_name, "late");
  const std::vector<Violation> got = Unwrap(restarted->ApplyUpdate(b3));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].ToString(), want[0].ToString());
  EXPECT_EQ(Unwrap(restarted->SaveState()), Unwrap(original->SaveState()));
}

// An engine whose every transition spins for at least 600 ns: well under
// the 1 µs that a clock reading truncated to whole µs rounds down to zero.
class SpinEngine : public CheckerEngine {
 public:
  Result<bool> OnTransition(const Database& /*state*/,
                            Timestamp /*t*/) override {
    const auto started = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - started <
           std::chrono::nanoseconds(600)) {
    }
    return true;
  }
  Result<Relation> CurrentCounterexamples(const Database& /*state*/) override {
    return Relation();
  }
  std::size_t StorageRows() const override { return 0; }
  const char* name() const override { return "spin"; }
};

// Check times are summed before they are rounded, so many sub-µs checks
// still add up to their total.
TEST(MonitorStatsTest, SubMicrosecondChecksAddUp) {
  ConstraintMonitor monitor;
  RTIC_ASSERT_OK(
      monitor.RegisterConstraintEngine("spin", std::make_unique<SpinEngine>()));
  for (Timestamp t = 1; t <= 1000; ++t) {
    EXPECT_TRUE(Unwrap(monitor.Tick(t)).empty());
  }
  const std::vector<ConstraintStats> stats = monitor.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].transitions, 1000u);
  EXPECT_GE(stats[0].total_check_micros, 500);
  EXPECT_GE(stats[0].total_check_micros, stats[0].max_check_micros);
}

TEST(MonitorOptionsTest, EngineKindNames) {
  EXPECT_STREQ(EngineKindToString(EngineKind::kIncremental), "incremental");
  EXPECT_STREQ(EngineKindToString(EngineKind::kNaive), "naive");
  EXPECT_STREQ(EngineKindToString(EngineKind::kActive), "active");
}

// MonitorOptions::num_threads > 1 is accepted and ignored: such a monitor
// checks on the calling thread and reports exactly like the default one.

TEST(ParallelMonitorTest, ViolationsMergeInRegistrationOrder) {
  // Both constraints are violated by the same state; reports come in
  // registration order, not name order.
  MonitorOptions options;
  options.num_threads = 8;
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Q", IntSchema({"a"})));
  RTIC_ASSERT_OK(
      monitor.RegisterConstraint("p_needs_q", "forall a: P(a) implies Q(a)"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint("a_no_p", "not (exists a: P(a))"));
  UpdateBatch batch(1);
  batch.Insert("P", T(I(7)));
  std::vector<Violation> v = Unwrap(monitor.ApplyUpdate(batch));
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].constraint_name, "p_needs_q");
  EXPECT_EQ(v[1].constraint_name, "a_no_p");
}

TEST(ParallelMonitorTest, PureTicksAndEmptyMonitor) {
  MonitorOptions options;
  options.num_threads = 4;
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  EXPECT_TRUE(Unwrap(monitor.Tick(1)).empty());
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c", "forall a: P(a) implies once[0, 2] P(a)"));
  EXPECT_TRUE(Unwrap(monitor.Tick(2)).empty());
  EXPECT_EQ(monitor.transition_count(), 2u);
}

TEST(ParallelMonitorTest, LastCheckMicrosIsPopulated) {
  MonitorOptions options;
  options.num_threads = 2;
  ConstraintMonitor monitor(options);
  RTIC_ASSERT_OK(monitor.CreateTable("P", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Q", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("R", IntSchema({"a", "b"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c0", "forall a: P(a) implies once[0, 1] Q(a)"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c1", "forall a: P(a) implies P(a) since[0, 1] Q(a)"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c2", "forall a, b: R(a, b) implies a <= b"));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "c3", "not (exists a: P(a) and not Q(a))"));
  for (std::int64_t t = 1; t <= 5; ++t) {
    UpdateBatch b(t);
    b.Insert("P", T(I(t)));
    if (t % 2 == 0) b.Insert("Q", T(I(t)));
    b.Insert("R", T(I(t), I(5 - t)));
    (void)Unwrap(monitor.ApplyUpdate(b));
  }
  for (const ConstraintStats& s : monitor.Stats()) {
    EXPECT_EQ(s.transitions, 5u) << s.name;
    EXPECT_GE(s.last_check_micros, 0) << s.name;
    EXPECT_GE(s.total_check_micros, s.last_check_micros) << s.name;
  }
}

}  // namespace
}  // namespace rtic
