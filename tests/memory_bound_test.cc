// Live-heap bound: a checker's memory depends on its constraints and the
// live data, never on the length of the history it has checked.
//
// A library-shaped stream runs through an in-memory ConstraintMonitor and a
// 4-shard in-memory ShardedMonitor, each holding `members_only` and a
// no-quick-reloan constraint (`not once[1, 5] Loan(p, b)`). Patrons and books
// are both keys 0..999: the first state makes every patron a member, and every
// later state loans one random pair and returns the pair loaned the state
// before. So the live data is one loan, and after a warm-up long enough for
// each shard's active domain to hold every key, nothing the checker needs
// grows. The test then allows the live heap at most 64 KiB of growth over the
// next 20k states. Anything that remembers each row it ever built (a row
// cache that never forgets) grows by hundreds of bytes per state and fails.
//
// The first state also puts non-member 1000 on hold, and `holds_need_members`
// forbids that: it is violated at every state while none of its inputs
// change, so every state reuses its kept verdict and extracts its witness
// again. That path must not accumulate anything per state either.
//
// `loans_answered` is a response constraint (every loan's patron is a
// member within 5 ticks; the patron already is, so each obligation is
// discharged at once). The response engine evaluates its trigger and its
// response at every state through its own evaluation scratch, so a read
// record that no evaluation clears grows here by a few pointers per state.
//
// The commit-protocol stream (MakeCommitProtocolWorkload, default dials)
// opens a transaction with a fresh id at about one state in three, so its
// values never stop being new, while its live data (pending transactions,
// their votes, and the anchors of the five commit constraints) stays
// bounded. None of the five constraints can read the quantification domain,
// so no engine keeps a cumulative domain tracker for them; one that did
// would add every new id to it and grow by tens of bytes per state.
//
// The allocation gate is a count, not a heap size: the four families of
// perfbench's fleet_mem workload (alarm, library, freshness and commit, 15
// constraints over 15 tables, with fleet_mem's dials and seed 1) run merged
// through one in-memory monitor, and the heap allocations per batch over
// the 15,000 batches after a 3,000-batch warm-up must stay at or below a
// fixed ceiling. The count does not depend on the build type (optimized and
// unoptimized builds, with or without ASan, make the same allocations), so
// one ceiling holds everywhere; an allocation added to the per-batch check
// path moves it by one per batch per constraint that takes the path.
//
// Live bytes and allocations come from the counting global operator
// new/delete of bench/alloc_counter.cc, linked into this test, which adds
// and subtracts malloc_usable_size. When that reading does not move (a
// runtime that bypasses the replaced operators), the tests skip with a
// message instead of passing on a count of zero.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/alloc_counter.h"
#include "common/rng.h"
#include "monitor/monitor.h"
#include "shard/sharded_monitor.h"
#include "storage/update_batch.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::T;
using testing::Unwrap;

constexpr std::int64_t kKeys = 1000;  // patrons and books alike
constexpr std::size_t kWarmupStates = 10000;
constexpr std::size_t kMeasuredStates = 20000;
constexpr std::int64_t kGrowthBoundBytes = 64 * 1024;
constexpr std::uint64_t kSeed = 1717;

// The fleet allocation gate (see the header comment). Measured: 186.86
// allocations per batch with a scan per atom per engine and a map-based
// anchor wheel, 105.61 with one scan cache per monitor and the flat wheel.
constexpr std::size_t kFleetWarmup = 3000;
constexpr std::size_t kFleetMeasured = 15000;
constexpr double kFleetAllocsPerBatchCeiling = 106;

// Published through a volatile pointer so the compiler cannot elide the
// probe's allocation.
std::vector<char>* volatile g_probe = nullptr;

// True iff a 1 MiB allocation shows up in bench::LiveBytes() and its
// release takes it back out.
bool CountingWorks() {
  constexpr std::int64_t kProbeBytes = 1 << 20;
  const std::int64_t before = bench::LiveBytes();
  g_probe = new std::vector<char>(kProbeBytes, 'x');
  const std::int64_t during = bench::LiveBytes();
  delete g_probe;
  g_probe = nullptr;
  const std::int64_t after = bench::LiveBytes();
  return during - before >= kProbeBytes && after - before < kProbeBytes;
}

// The stream described in the header comment.
class LoanStream {
 public:
  explicit LoanStream(std::uint64_t seed) : rng_(seed) {}

  UpdateBatch Next() {
    UpdateBatch batch(++now_);
    if (now_ == 1) {
      for (std::int64_t p = 0; p < kKeys; ++p) batch.Insert("Member", T(I(p)));
      batch.Insert("Hold", T(I(kKeys)));
      return batch;
    }
    Tuple loan;
    do {
      loan = T(I(rng_.UniformInt(0, kKeys - 1)),
               I(rng_.UniformInt(0, kKeys - 1)));
    } while (loan == out_);
    if (!out_.empty()) batch.Delete("Loan", out_);
    batch.Insert("Loan", loan);
    out_ = loan;
    return batch;
  }

 private:
  Rng rng_;
  Timestamp now_ = 0;
  Tuple out_;  // the pair on loan since the previous state
};

Status Feed(MonitorLike* monitor, LoanStream* stream, std::size_t states) {
  for (std::size_t i = 0; i < states; ++i) {
    Result<std::vector<Violation>> verdict =
        monitor->ApplyUpdate(stream->Next());
    if (!verdict.ok()) return verdict.status();
  }
  return Status::OK();
}

void ExpectFlatHeap(MonitorLike* monitor) {
  RTIC_ASSERT_OK(monitor->CreateTable("Member", IntSchema({"patron"})));
  RTIC_ASSERT_OK(monitor->CreateTable("Loan", IntSchema({"patron", "book"})));
  RTIC_ASSERT_OK(monitor->CreateTable("Hold", IntSchema({"patron"})));
  RTIC_ASSERT_OK(monitor->RegisterConstraint(
      "members_only", "forall p, b: Loan(p, b) implies Member(p)"));
  RTIC_ASSERT_OK(monitor->RegisterConstraint(
      "no_quick_reloan",
      "forall p, b: Loan(p, b) implies not once[1, 5] Loan(p, b)"));
  RTIC_ASSERT_OK(monitor->RegisterConstraint(
      "holds_need_members", "forall p: Hold(p) implies Member(p)"));
  RTIC_ASSERT_OK(monitor->RegisterConstraint(
      "loans_answered",
      "forall p, b: Loan(p, b) implies eventually[0, 5] Member(p)"));
  LoanStream stream(kSeed);
  RTIC_ASSERT_OK(Feed(monitor, &stream, kWarmupStates));
  ASSERT_EQ(monitor->total_violations(), kWarmupStates);
  const std::int64_t baseline = bench::LiveBytes();
  RTIC_ASSERT_OK(Feed(monitor, &stream, kMeasuredStates));
  const std::int64_t growth = bench::LiveBytes() - baseline;
  EXPECT_LE(growth, kGrowthBoundBytes)
      << "live heap grew " << growth / 1024 << " KiB over "
      << kMeasuredStates << " states after a " << kWarmupStates
      << "-state warm-up";
}

void ExpectFlatCommitHeap(ConstraintMonitor* monitor) {
  workload::CommitParams params;
  params.length = kWarmupStates + kMeasuredStates;
  params.seed = 4242;
  const workload::Workload w = workload::MakeCommitProtocolWorkload(params);
  for (const auto& [name, schema] : w.schema) {
    RTIC_ASSERT_OK(monitor->CreateTable(name, schema));
  }
  ASSERT_EQ(w.constraints.size(), 5u);
  for (const auto& [name, text] : w.constraints) {
    RTIC_ASSERT_OK(monitor->RegisterConstraint(name, text));
  }
  auto feed = [&](std::size_t from, std::size_t to) -> Status {
    for (std::size_t i = from; i < to; ++i) {
      Result<std::vector<Violation>> verdict =
          monitor->ApplyUpdate(w.batches[i]);
      if (!verdict.ok()) return verdict.status();
    }
    return Status::OK();
  };
  RTIC_ASSERT_OK(feed(0, kWarmupStates));
  const std::int64_t baseline = bench::LiveBytes();
  RTIC_ASSERT_OK(feed(kWarmupStates, kWarmupStates + kMeasuredStates));
  const std::int64_t growth = bench::LiveBytes() - baseline;
  EXPECT_GT(monitor->total_violations(), 0u);
  EXPECT_LE(growth, kGrowthBoundBytes)
      << "live heap grew " << growth / 1024 << " KiB over "
      << kMeasuredStates << " commit states after a " << kWarmupStates
      << "-state warm-up (" << monitor->TotalStorageRows()
      << " storage rows at the end)";
}

// perfbench/fleet_mem.cc's families at `seed`, each `states` long with
// max_gap = 1, merged state by state into one batch stream.
workload::Workload FleetWorkload(std::uint64_t seed, std::size_t states) {
  workload::AlarmParams alarm;
  alarm.length = states;
  alarm.max_gap = 1;
  alarm.late_prob = 0.0075;
  alarm.seed = seed * 4 + 1;
  workload::LibraryParams library;
  library.length = states;
  library.max_gap = 1;
  library.nonmember_prob = 0.0075;
  library.late_return_prob = 0.004;
  library.seed = seed * 4 + 2;
  workload::FreshnessParams freshness;
  freshness.length = states;
  freshness.max_gap = 1;
  freshness.stale_prob = 0.002;
  freshness.early_decommission_prob = 0.04;
  freshness.decommission_prob = 0.02 * 2000.0 / static_cast<double>(states);
  freshness.seed = seed * 4 + 3;
  workload::CommitParams commit;
  commit.length = states;
  commit.max_gap = 1;
  commit.late_vote_prob = 0.0075;
  commit.late_decide_prob = 0.0075;
  commit.seed = seed * 4 + 4;
  const std::vector<workload::Workload> families = {
      workload::MakeAlarmWorkload(alarm),
      workload::MakeLibraryWorkload(library),
      workload::MakeFreshnessWorkload(freshness),
      workload::MakeCommitProtocolWorkload(commit)};

  workload::Workload merged;
  for (const workload::Workload& f : families) {
    merged.schema.insert(f.schema.begin(), f.schema.end());
    merged.constraints.insert(merged.constraints.end(),
                              f.constraints.begin(), f.constraints.end());
  }
  for (std::size_t i = 0; i < states; ++i) {
    UpdateBatch batch(families[0].batches.at(i).timestamp());
    for (const workload::Workload& f : families) {
      for (const auto& [table, tuples] : f.batches.at(i).deletes()) {
        for (const Tuple& t : tuples) batch.Delete(table, t);
      }
      for (const auto& [table, tuples] : f.batches.at(i).inserts()) {
        for (const Tuple& t : tuples) batch.Insert(table, t);
      }
    }
    merged.batches.push_back(std::move(batch));
  }
  return merged;
}

class MemoryBoundTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CountingWorks()) {
      GTEST_SKIP() << "operator new/delete replacement is not counting live "
                      "bytes in this build; the bound cannot be checked";
    }
  }
};

TEST_F(MemoryBoundTest, MonitorHeapDoesNotGrowWithTheHistory) {
  ConstraintMonitor monitor;
  ExpectFlatHeap(&monitor);
}

TEST_F(MemoryBoundTest, CommitMonitorHeapDoesNotGrowWithFreshIds) {
  ConstraintMonitor monitor;
  ExpectFlatCommitHeap(&monitor);
}

TEST_F(MemoryBoundTest, FleetAllocationsPerBatchStayUnderTheGate) {
  const workload::Workload w =
      FleetWorkload(/*seed=*/1, kFleetWarmup + kFleetMeasured);
  ASSERT_EQ(w.schema.size(), 15u);
  ASSERT_EQ(w.constraints.size(), 15u);
  ConstraintMonitor monitor;
  for (const auto& [name, schema] : w.schema) {
    RTIC_ASSERT_OK(monitor.CreateTable(name, schema));
  }
  for (const auto& [name, text] : w.constraints) {
    RTIC_ASSERT_OK(monitor.RegisterConstraint(name, text));
  }
  for (std::size_t i = 0; i < kFleetWarmup; ++i) {
    RTIC_ASSERT_OK(monitor.ApplyUpdate(w.batches[i]).status());
  }
  const std::uint64_t before = bench::AllocCount();
  for (std::size_t i = kFleetWarmup; i < w.batches.size(); ++i) {
    RTIC_ASSERT_OK(monitor.ApplyUpdate(w.batches[i]).status());
  }
  const double per_batch =
      static_cast<double>(bench::AllocCount() - before) /
      static_cast<double>(kFleetMeasured);
  EXPECT_GT(monitor.total_violations(), 0u);
  std::printf("fleet allocations per batch: %.2f (ceiling %.0f)\n", per_batch,
              kFleetAllocsPerBatchCeiling);
  EXPECT_LE(per_batch, kFleetAllocsPerBatchCeiling)
      << "the check path allocates " << per_batch
      << " times per fleet batch, over the ceiling of "
      << kFleetAllocsPerBatchCeiling;
}

TEST_F(MemoryBoundTest, ShardedMonitorHeapDoesNotGrowWithTheHistory) {
  std::unique_ptr<shard::ShardedMonitor> sharded =
      Unwrap(shard::ShardedMonitor::Create(4));
  ASSERT_NE(sharded, nullptr);
  ExpectFlatHeap(sharded.get());
}

}  // namespace
}  // namespace rtic
