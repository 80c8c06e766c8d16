// ShardedMonitor: the differential battery behind the subsystem's core
// promise — verdicts byte-identical to an unsharded monitor.
//
// Every comparison runs through a transcript: each transition's violations
// rendered with Violation::ToString in arrival order. The three paper-style
// workloads (alarm, payroll, library — nine constraints, including a
// response constraint with delayed verdicts) are replayed through shard
// counts N in {1, 2, 4} and diffed against the plain ConstraintMonitor,
// in-memory, durable with a mid-stream crash/Recover(), and with a
// cross-shard constraint forcing the coordinator up. The durable tests also
// check that a clean restart keeps the merged counters exact and that
// Recover() refuses, changing no file, a checkpoint written with another
// shard count and the per-shard directory layout of older releases.

#include "shard/sharded_monitor.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "monitor/monitor.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace rtic {
namespace shard {
namespace {

using rtic::testing::I;
using rtic::testing::T;
using rtic::testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_shard_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

// Registers the workload's vocabulary and constraints on any monitor.
void SetupWorkload(MonitorLike* monitor, const workload::Workload& w) {
  for (const auto& [name, schema] : w.schema) {
    RTIC_ASSERT_OK(monitor->CreateTable(name, schema));
  }
  for (const auto& [name, text] : w.constraints) {
    RTIC_ASSERT_OK(monitor->RegisterConstraint(name, text));
  }
}

// Applies one batch and appends the rendered verdict to `out`.
void ApplyInto(MonitorLike* monitor, const UpdateBatch& batch,
               std::string* out) {
  auto violations = Unwrap(monitor->ApplyUpdate(batch));
  *out += "t=" + std::to_string(batch.timestamp()) + "\n";
  for (const Violation& v : violations) {
    *out += v.ToString() + "\n";
  }
}

// The full workload as one transcript.
std::string Transcript(MonitorLike* monitor, const workload::Workload& w) {
  std::string out;
  for (const UpdateBatch& batch : w.batches) {
    ApplyInto(monitor, batch, &out);
  }
  return out;
}

std::vector<workload::Workload> PaperWorkloads() {
  workload::AlarmParams alarm;
  alarm.length = 120;
  workload::PayrollParams payroll;
  payroll.length = 120;
  workload::LibraryParams library;
  library.length = 120;
  return {workload::MakeAlarmWorkload(alarm),
          workload::MakePayrollWorkload(payroll),
          workload::MakeLibraryWorkload(library)};
}

// ---- core differential: N in {1, 2, 4} vs unsharded, all workloads ------

TEST(ShardedMonitorTest, DifferentialByteIdenticalInMemory) {
  for (const auto& w : PaperWorkloads()) {
    auto reference = std::make_unique<ConstraintMonitor>();
    SetupWorkload(reference.get(), w);
    const std::string expected = Transcript(reference.get(), w);
    ASSERT_NE(expected.find("violation of"), std::string::npos)
        << "workload produced no violations; the diff would be vacuous";

    for (std::size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      auto sharded = Unwrap(ShardedMonitor::Create(shards));
      SetupWorkload(sharded.get(), w);
      EXPECT_EQ(sharded->PartitionLocalFraction(), 1.0);
      EXPECT_FALSE(sharded->coordinator_active());
      EXPECT_EQ(Transcript(sharded.get(), w), expected);
      EXPECT_EQ(sharded->current_time(), reference->current_time());
      EXPECT_EQ(sharded->transition_count(), reference->transition_count());
      EXPECT_EQ(sharded->total_violations(), reference->total_violations());
    }
  }
}

TEST(ShardedMonitorTest, DifferentialDurableCrashRecover) {
  workload::LibraryParams params;
  params.length = 80;
  const auto w = workload::MakeLibraryWorkload(params);
  const std::size_t kShards = 4;
  const std::size_t half = w.batches.size() / 2;

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  const std::string expected = Transcript(reference.get(), w);

  MonitorOptions options;
  options.wal_dir = MakeTempDir() + "/wal";
  options.checkpoint_interval = 8;

  std::string transcript;
  {
    auto sharded = Unwrap(ShardedMonitor::Create(kShards, options));
    SetupWorkload(sharded.get(), w);
    RTIC_ASSERT_OK(sharded->Recover().status());
    for (std::size_t i = 0; i < half; ++i) {
      ApplyInto(sharded.get(), w.batches[i], &transcript);
    }
    // Destroyed here without any shutdown protocol: the crash.
  }
  {
    auto sharded = Unwrap(ShardedMonitor::Create(kShards, options));
    SetupWorkload(sharded.get(), w);
    wal::RecoveryStats stats = Unwrap(sharded->Recover());
    EXPECT_FALSE(stats.tail_damaged);
    EXPECT_EQ(sharded->transition_count(), half);
    for (std::size_t i = half; i < w.batches.size(); ++i) {
      ApplyInto(sharded.get(), w.batches[i], &transcript);
    }
    EXPECT_EQ(sharded->total_violations(), reference->total_violations());
  }
  EXPECT_EQ(transcript, expected);
}

// The merged per-constraint counters are part of the tenant's checkpoint,
// so stopping and restarting a durable sharded monitor keeps Stats() and
// total_violations() equal to the unsharded monitor's at every cut point.
TEST(ShardedMonitorTest, CleanRestartKeepsMergedCountersExact) {
  workload::LibraryParams params;
  params.length = 120;
  params.nonmember_prob = 0.2;
  const auto w = workload::MakeLibraryWorkload(params);
  const std::size_t kRestartEvery = 7;  // 17 restarts, between checkpoints

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  MonitorOptions options;
  options.wal_dir = MakeTempDir() + "/wal";
  options.checkpoint_interval = 10;

  auto counters = [](const MonitorLike& m) {
    std::string out = "total " + std::to_string(m.total_violations());
    for (const ConstraintStats& s : m.Stats()) {
      out += "; " + s.name + " " + std::to_string(s.transitions) + "/" +
             std::to_string(s.violations);
    }
    return out;
  };
  std::string expected;
  std::string actual;
  std::size_t restarts = 0;
  std::unique_ptr<ShardedMonitor> sharded;
  for (std::size_t i = 0; i < w.batches.size(); ++i) {
    if (i % kRestartEvery == 0) {
      sharded.reset();
      sharded = Unwrap(ShardedMonitor::Create(4, options));
      SetupWorkload(sharded.get(), w);
      RTIC_ASSERT_OK(sharded->Recover().status());
      ASSERT_EQ(sharded->transition_count(), i);
      EXPECT_EQ(counters(*sharded), counters(*reference)) << "restart at " << i;
      restarts += i > 0 ? 1 : 0;
    }
    ApplyInto(reference.get(), w.batches[i], &expected);
    ApplyInto(sharded.get(), w.batches[i], &actual);
  }
  EXPECT_EQ(restarts, 17u);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(counters(*sharded), counters(*reference));
  EXPECT_GT(reference->total_violations(), 0u);
}

// A checkpoint records the shard count it was written with. Reopening the
// tenant with another count (or unsharded) must refuse and change no file;
// the original count then resumes where the run stopped.
TEST(ShardedMonitorTest, RecoverRefusesAnotherShardCount) {
  workload::LibraryParams params;
  params.length = 80;
  const auto w = workload::MakeLibraryWorkload(params);
  MonitorOptions options;
  options.wal_dir = MakeTempDir() + "/wal";
  options.checkpoint_interval = 8;
  std::size_t violations = 0;
  {
    auto sharded = Unwrap(ShardedMonitor::Create(4, options));
    SetupWorkload(sharded.get(), w);
    RTIC_ASSERT_OK(sharded->Recover().status());
    (void)Transcript(sharded.get(), w);
    violations = sharded->total_violations();
  }

  const auto before = rtic::testing::DirSnapshot(options.wal_dir);
  {
    auto two = Unwrap(ShardedMonitor::Create(2, options));
    SetupWorkload(two.get(), w);
    Status s = two->Recover().status();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
    EXPECT_NE(s.message().find("4 shards"), std::string::npos) << s.ToString();
  }
  {
    ConstraintMonitor unsharded(options);
    SetupWorkload(&unsharded, w);
    EXPECT_EQ(unsharded.Recover().status().code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(rtic::testing::DirSnapshot(options.wal_dir) == before);

  auto four = Unwrap(ShardedMonitor::Create(4, options));
  SetupWorkload(four.get(), w);
  RTIC_ASSERT_OK(four->Recover().status());
  EXPECT_EQ(four->transition_count(), w.batches.size());
  EXPECT_EQ(four->total_violations(), violations);
}

// Older releases gave every shard and the coordinator a log of their own
// under <wal_dir>/shard-<k> and <wal_dir>/shard-coord. That layout is
// refused, not migrated: Recover() fails and leaves every file in place.
TEST(ShardedMonitorTest, RecoverRefusesPerShardLayout) {
  workload::AlarmParams params;
  params.length = 40;
  const auto w = workload::MakeAlarmWorkload(params);
  const std::string dir = MakeTempDir() + "/wal";
  std::filesystem::create_directories(dir);
  MonitorOptions options;
  options.wal_dir = dir;
  for (const char* sub : {"/shard-0", "/shard-1"}) {
    // What an older release's shard left behind: a plain durable monitor.
    MonitorOptions inner = options;
    inner.wal_dir = dir + sub;
    ConstraintMonitor shard(inner);
    SetupWorkload(&shard, w);
    RTIC_ASSERT_OK(shard.Recover().status());
    (void)Transcript(&shard, w);
  }

  const auto before = rtic::testing::DirSnapshot(dir);
  auto sharded = Unwrap(ShardedMonitor::Create(2, options));
  SetupWorkload(sharded.get(), w);
  Status s = sharded->Recover().status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("shard-0"), std::string::npos) << s.ToString();
  ConstraintMonitor unsharded(options);
  SetupWorkload(&unsharded, w);
  EXPECT_EQ(unsharded.Recover().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(rtic::testing::DirSnapshot(dir) == before);
}

// ---- cross-shard coordinator --------------------------------------------

// A constant at the key position makes the constraint cross-shard; the
// coordinator must reproduce the unsharded verdicts for it while the
// partition-local constraints keep running inside the shards.
TEST(ShardedMonitorTest, CrossShardConstraintDifferential) {
  workload::LibraryParams params;
  params.length = 80;
  auto w = workload::MakeLibraryWorkload(params);
  w.constraints.push_back(
      {"patron_seven_is_member", "forall b: Loan(7, b) implies Member(7)"});

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  const std::string expected = Transcript(reference.get(), w);

  auto sharded = Unwrap(ShardedMonitor::Create(3));
  SetupWorkload(sharded.get(), w);
  EXPECT_TRUE(sharded->coordinator_active());
  EXPECT_EQ(sharded->PartitionLocalCount(), w.constraints.size() - 1);
  const auto cls = Unwrap(sharded->ClassificationFor("patron_seven_is_member"));
  EXPECT_EQ(cls.cls, ShardClass::kCrossShard);
  EXPECT_EQ(Transcript(sharded.get(), w), expected);
  EXPECT_EQ(sharded->total_violations(), reference->total_violations());
}

// Registering a cross-shard constraint after updates ran (in-memory mode)
// seeds the coordinator from the union of the shard databases, matching
// the unsharded monitor's late-registration semantics.
TEST(ShardedMonitorTest, LateCrossShardRegistrationSeedsCoordinator) {
  workload::LibraryParams params;
  params.length = 60;
  const auto w = workload::MakeLibraryWorkload(params);
  const std::size_t half = w.batches.size() / 2;
  const char* kName = "patron_seven_is_member";
  const char* kText = "forall b: Loan(7, b) implies Member(7)";

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  auto sharded = Unwrap(ShardedMonitor::Create(4));
  SetupWorkload(sharded.get(), w);

  std::string expected;
  std::string actual;
  for (std::size_t i = 0; i < half; ++i) {
    ApplyInto(reference.get(), w.batches[i], &expected);
    ApplyInto(sharded.get(), w.batches[i], &actual);
  }
  RTIC_ASSERT_OK(reference->RegisterConstraint(kName, kText));
  RTIC_ASSERT_OK(sharded->RegisterConstraint(kName, kText));
  EXPECT_TRUE(sharded->coordinator_active());
  for (std::size_t i = half; i < w.batches.size(); ++i) {
    ApplyInto(reference.get(), w.batches[i], &expected);
    ApplyInto(sharded.get(), w.batches[i], &actual);
  }
  EXPECT_EQ(actual, expected);
}

TEST(ShardedMonitorTest, DurableCrossShardMustPrecedeRecover) {
  const std::string dir = MakeTempDir() + "/wal";
  MonitorOptions options;
  options.wal_dir = dir;
  auto sharded = Unwrap(ShardedMonitor::Create(2, options));
  RTIC_ASSERT_OK(sharded->CreateTable(
      "Loan", rtic::testing::IntSchema({"patron", "book"})));
  RTIC_ASSERT_OK(sharded->CreateTable(
      "Member", rtic::testing::IntSchema({"patron"})));
  RTIC_ASSERT_OK(sharded->Recover().status());
  Status late = sharded->RegisterConstraint(
      "cross", "forall b: Loan(7, b) implies Member(7)");
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  // Partition-local registration stays allowed after Recover().
  RTIC_ASSERT_OK(sharded->RegisterConstraint(
      "members_only", "forall p, b: Loan(p, b) implies Member(p)"));
}

// The same restriction does not bite when the coordinator was brought up
// before Recover(): the full durable round-trip with a cross-shard
// constraint.
TEST(ShardedMonitorTest, DurableCrossShardRoundTrip) {
  workload::LibraryParams params;
  params.length = 50;
  auto w = workload::MakeLibraryWorkload(params);
  w.constraints.push_back(
      {"patron_seven_is_member", "forall b: Loan(7, b) implies Member(7)"});
  const std::size_t half = w.batches.size() / 2;

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  const std::string expected = Transcript(reference.get(), w);

  const std::string dir = MakeTempDir() + "/wal";
  MonitorOptions options;
  options.wal_dir = dir;
  std::string transcript;
  {
    auto sharded = Unwrap(ShardedMonitor::Create(2, options));
    SetupWorkload(sharded.get(), w);
    EXPECT_TRUE(sharded->coordinator_active());
    RTIC_ASSERT_OK(sharded->Recover().status());
    for (std::size_t i = 0; i < half; ++i) {
      ApplyInto(sharded.get(), w.batches[i], &transcript);
    }
  }
  auto sharded = Unwrap(ShardedMonitor::Create(2, options));
  SetupWorkload(sharded.get(), w);
  RTIC_ASSERT_OK(sharded->Recover().status());
  for (std::size_t i = half; i < w.batches.size(); ++i) {
    ApplyInto(sharded.get(), w.batches[i], &transcript);
  }
  EXPECT_EQ(transcript, expected);
}

// ---- guards and stats ----------------------------------------------------

TEST(ShardedMonitorTest, CreateValidatesConfiguration) {
  EXPECT_FALSE(ShardedMonitor::Create(0).ok());
  EXPECT_FALSE(ShardedMonitor::Create(1025).ok());
  MonitorOptions options;
  options.replication_standby = "127.0.0.1:1";
  EXPECT_FALSE(ShardedMonitor::Create(2, std::move(options)).ok());
}

TEST(ShardedMonitorTest, GuardsMirrorUnshardedMonitor) {
  auto sharded = Unwrap(ShardedMonitor::Create(2));
  RTIC_ASSERT_OK(
      sharded->CreateTable("P", rtic::testing::IntSchema({"x"})));
  EXPECT_FALSE(
      sharded->CreateTable("P", rtic::testing::IntSchema({"x"})).ok());
  RTIC_ASSERT_OK(sharded->RegisterConstraint(
      "c", "forall x: P(x) implies P(x)"));
  EXPECT_FALSE(
      sharded->RegisterConstraint("c", "forall x: P(x) implies P(x)").ok());
  // Open formulas are rejected up front.
  EXPECT_FALSE(sharded->RegisterConstraint("open", "P(x)").ok());

  UpdateBatch batch(5);
  batch.Insert("P", T(I(1)));
  RTIC_ASSERT_OK(sharded->ApplyUpdate(batch).status());
  // Tables only before the first update; clocks strictly advance.
  EXPECT_FALSE(
      sharded->CreateTable("Q", rtic::testing::IntSchema({"x"})).ok());
  EXPECT_EQ(sharded->ApplyUpdate(UpdateBatch(5)).status().code(),
            StatusCode::kInvalidArgument);
  // An invalid batch (unknown table) touches no shard.
  UpdateBatch bad(6);
  bad.Insert("Nope", T(I(1)));
  EXPECT_FALSE(sharded->ApplyUpdate(bad).status().ok());
  EXPECT_EQ(sharded->current_time(), 5);

  RTIC_ASSERT_OK(sharded->UnregisterConstraint("c"));
  EXPECT_FALSE(sharded->UnregisterConstraint("c").ok());
  EXPECT_TRUE(sharded->ConstraintNames().empty());

  // The first batch may carry any timestamp, zero and negative included;
  // only later batches must advance the clock.
  for (const Timestamp first : {Timestamp{0}, Timestamp{-5}}) {
    SCOPED_TRACE("first timestamp " + std::to_string(first));
    auto reference = std::make_unique<ConstraintMonitor>();
    auto fresh = Unwrap(ShardedMonitor::Create(2));
    MonitorLike* monitors[] = {reference.get(), fresh.get()};
    std::string transcripts[2];
    for (int k = 0; k < 2; ++k) {
      RTIC_ASSERT_OK(
          monitors[k]->CreateTable("P", rtic::testing::IntSchema({"x"})));
      RTIC_ASSERT_OK(monitors[k]->RegisterConstraint(
          "never", "forall x: P(x) implies false"));
      UpdateBatch first_batch(first);
      first_batch.Insert("P", T(I(1)));
      first_batch.Insert("P", T(I(2)));
      ApplyInto(monitors[k], first_batch, &transcripts[k]);
      EXPECT_EQ(monitors[k]->ApplyUpdate(UpdateBatch(first)).status().code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_NE(transcripts[0].find("violation of"), std::string::npos);
    EXPECT_EQ(transcripts[1], transcripts[0]);
    EXPECT_EQ(fresh->current_time(), reference->current_time());
    EXPECT_EQ(fresh->transition_count(), 1u);
  }
}

TEST(ShardedMonitorTest, StatsAggregateAcrossShards) {
  workload::PayrollParams params;
  params.length = 60;
  const auto w = workload::MakePayrollWorkload(params);

  auto reference = std::make_unique<ConstraintMonitor>();
  SetupWorkload(reference.get(), w);
  (void)Transcript(reference.get(), w);
  auto sharded = Unwrap(ShardedMonitor::Create(4));
  SetupWorkload(sharded.get(), w);
  (void)Transcript(sharded.get(), w);

  const auto expected = reference->Stats();
  const auto actual = sharded->Stats();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].transitions, expected[i].transitions);
    EXPECT_EQ(actual[i].violations, expected[i].violations);
  }
  EXPECT_EQ(sharded->TotalStorageRows(), reference->TotalStorageRows());
}

// Regression test: each shard's check is a separate check over its own
// share of the keys, so the aggregate last_check_micros must be the max
// across shards — never the sum. The old summing aggregation could report
// a "last check" larger than the worst check ever measured
// (max_check_micros), an impossible reading; the invariant below can never
// trip with the max aggregation.
TEST(ShardedMonitorTest, LastCheckMicrosNeverExceedsMax) {
  workload::PayrollParams params;
  params.length = 60;
  params.num_employees = 200;  // enough per-shard work for nonzero timings
  const auto w = workload::MakePayrollWorkload(params);

  auto sharded = Unwrap(ShardedMonitor::Create(4));
  SetupWorkload(sharded.get(), w);
  for (const UpdateBatch& batch : w.batches) {
    (void)Unwrap(sharded->ApplyUpdate(batch));
    for (const ConstraintStats& s : sharded->Stats()) {
      ASSERT_LE(s.last_check_micros, s.max_check_micros) << s.name;
      ASSERT_LE(s.max_check_micros, s.total_check_micros) << s.name;
    }
  }
}

// ---- server integration --------------------------------------------------

TEST(ShardedServerTest, HelloShardCountRoundTrip) {
  using server::RticClient;
  using server::RticServer;
  using server::ServerOptions;

  auto srv = Unwrap(RticServer::Start(ServerOptions{}));
  const Schema loan = rtic::testing::IntSchema({"patron", "book"});
  const Schema member = rtic::testing::IntSchema({"patron"});
  {
    auto client = Unwrap(RticClient::Connect(srv->address(), "acme", 3));
    RTIC_ASSERT_OK(client->CreateTable("Loan", loan));
    RTIC_ASSERT_OK(client->CreateTable("Member", member));
    RTIC_ASSERT_OK(client->RegisterConstraint(
        "members_only", "forall p, b: Loan(p, b) implies Member(p)"));
    UpdateBatch batch;  // server assigns the timestamp
    batch.Insert("Loan", T(I(1), I(2)));
    auto applied = Unwrap(client->Apply(batch));
    ASSERT_EQ(applied.violations.size(), 1u);
    EXPECT_EQ(applied.violations[0].constraint_name, "members_only");
  }
  // A matching request (3) and a default request (0) both attach ...
  RTIC_ASSERT_OK(RticClient::Connect(srv->address(), "acme", 3).status());
  RTIC_ASSERT_OK(RticClient::Connect(srv->address(), "acme", 0).status());
  // ... a mismatched one is refused with the counts in the message.
  auto mismatch = RticClient::Connect(srv->address(), "acme", 2);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("3 shard"), std::string::npos)
      << mismatch.status().ToString();
  // Requests beyond the per-tenant cap are refused outright.
  EXPECT_FALSE(
      RticClient::Connect(srv->address(), "widgets", server::kMaxTenantShards + 1)
          .ok());
  srv->Stop();
}

TEST(ShardedServerTest, DefaultShardCountBacksNewTenants) {
  using server::RticClient;
  using server::RticServer;
  using server::ServerOptions;

  ServerOptions options;
  options.default_shard_count = 2;
  auto srv = Unwrap(RticServer::Start(std::move(options)));
  {
    auto client = Unwrap(RticClient::Connect(srv->address(), "acme"));
    RTIC_ASSERT_OK(
        client->CreateTable("P", rtic::testing::IntSchema({"x"})));
    RTIC_ASSERT_OK(
        client->RegisterConstraint("c", "forall x: P(x) implies P(x)"));
    UpdateBatch batch;
    batch.Insert("P", T(I(1)));
    auto applied = Unwrap(client->Apply(batch));
    EXPECT_TRUE(applied.violations.empty());
  }
  // The tenant was created with 2 shards, so requesting 2 matches and 1
  // does not.
  RTIC_ASSERT_OK(RticClient::Connect(srv->address(), "acme", 2).status());
  EXPECT_FALSE(RticClient::Connect(srv->address(), "acme", 1).ok());
  srv->Stop();
}

}  // namespace
}  // namespace shard
}  // namespace rtic
