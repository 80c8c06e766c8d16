// Pay-only-for-what-changed: the incremental engine's kept evaluation
// results and the domain tracker's batch-delta absorb must both be
// invisible — every verdict, witness, domain and checkpoint equals what
// re-evaluating and re-scanning everything would give.
//
//   * KeptResultTest — the reuse rule. An unsafe constraint over a table
//     that never changes still flips exactly when the naive engine's
//     verdict does (the domain is part of the key); a restored engine never
//     serves a result kept before the restore; a monitor with shared
//     subplans restored mid-stream from a base or a base+delta chain
//     reproduces the uninterrupted transcript.
//   * BatchAbsorbTest — the batch-delta absorb. Over random batch streams
//     the tracker's values equal a full-scan reference after every
//     transition, including first use on a non-empty table, a missed
//     transition, a tuple deleted and re-inserted in one batch,
//     Table::Clear, and a table replaced by a restored copy.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "monitor/monitor.h"
#include "storage/domain_tracker.h"
#include "tests/engine_test_util.h"
#include "tests/test_util.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::S;
using testing::T;
using testing::Unwrap;

std::map<std::string, Schema> ABSchemas() {
  return {{"A", IntSchema({"x"})}, {"B", IntSchema({"x"})}};
}

Database MakeDb(const std::map<std::string, Schema>& schemas) {
  Database db;
  for (const auto& [name, schema] : schemas) {
    EXPECT_TRUE(db.CreateTable(name, schema).ok());
  }
  return db;
}

// ---- KeptResultTest ---------------------------------------------------------

// A fixed A = {0, 1}, then mostly clock ticks with occasional B inserts and
// deletes whose values grow the domain past A's.
std::vector<UpdateBatch> FixedAStream(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<UpdateBatch> batches;
  Timestamp t = 0;
  for (std::size_t i = 0; i < length; ++i) {
    t += rng.UniformInt(1, 2);
    UpdateBatch batch(t);
    if (i == 0) {
      batch.Insert("A", T(I(0)));
      batch.Insert("A", T(I(1)));
    } else if (rng.Bernoulli(0.3)) {
      const std::int64_t v = rng.UniformInt(0, 3 + static_cast<int>(i / 8));
      if (rng.Bernoulli(0.6)) {
        batch.Insert("B", T(I(v)));
      } else {
        batch.Delete("B", T(I(v)));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(KeptResultTest, UnsafeConstraintOverUnchangedTableFlipsWithNaive) {
  const auto schemas = ABSchemas();
  const std::vector<std::string> constraints = {
      "exists x: not A(x)",
      "forall x: A(x)",
      "forall x: A(x) or once[0, 3] B(x)",
      "exists x: not A(x) and not previous B(x)",
  };
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    for (const std::string& text : constraints) {
      SCOPED_TRACE(text + " seed " + std::to_string(seed));
      auto naive = Unwrap(testing::MakeEngine(EngineKind::kNaive, text,
                                              schemas));
      auto incremental = Unwrap(
          testing::MakeEngine(EngineKind::kIncremental, text, schemas));
      ASSERT_NE(naive, nullptr);
      ASSERT_NE(incremental, nullptr);
      // One live database, mutated batch by batch, so table versions (not
      // fresh per-step databases) decide what the engine may reuse.
      Database db = MakeDb(schemas);
      std::set<bool> seen;
      for (const UpdateBatch& batch : FixedAStream(seed, 80)) {
        SCOPED_TRACE("t=" + std::to_string(batch.timestamp()));
        RTIC_ASSERT_OK(batch.Apply(&db));
        const bool want = Unwrap(naive->OnTransition(db, batch.timestamp()));
        const bool got =
            Unwrap(incremental->OnTransition(db, batch.timestamp()));
        ASSERT_EQ(got, want);
        seen.insert(want);
        if (!want) {
          EXPECT_EQ(
              Unwrap(incremental->CurrentCounterexamples(db)).SortedRows(),
              Unwrap(naive->CurrentCounterexamples(db)).SortedRows());
        }
      }
      // The stream must actually flip the verdict, or the test is vacuous.
      EXPECT_EQ(seen.size(), 2u);
    }
  }
}

// Constraints whose verdicts read only temporal nodes (no table, no
// domain): their kept verdicts are keyed by node versions alone, which a
// restore resets — the case that would serve a stale result.
const std::vector<std::string>& RestoreConstraints() {
  static const std::vector<std::string> kConstraints = {
      "not (exists x: once[0, 1] B(x))",
      "forall x: once[0, 2] B(x) implies previous once[0, 4] B(x)",
      "forall x: A(x) implies once[0, 3] B(x)",
      "exists x: not A(x)",
  };
  return kConstraints;
}

// Random churn over A and B with runs of clock ticks.
std::vector<UpdateBatch> ChurnStream(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<UpdateBatch> batches;
  Timestamp t = 0;
  for (std::size_t i = 0; i < length; ++i) {
    t += rng.UniformInt(1, 2);
    UpdateBatch batch(t);
    if (rng.Bernoulli(0.5)) {
      for (const char* table : {"A", "B"}) {
        const std::int64_t v = rng.UniformInt(0, 4);
        if (rng.Bernoulli(0.5)) {
          batch.Insert(table, T(I(v)));
        } else {
          batch.Delete(table, T(I(v)));
        }
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// B(1) arrives first and stays; after that A churns freely while B churns
// rarely, so a node over B often keeps its content (and so its version)
// from a base checkpoint to the next delta. Restored, such a node sits at
// version 0 with non-empty content — the key a result kept over an empty
// history also carries.
std::vector<UpdateBatch> StickyBStream(std::uint64_t seed,
                                       std::size_t length) {
  Rng rng(seed);
  std::vector<UpdateBatch> batches;
  Timestamp t = 0;
  for (std::size_t i = 0; i < length; ++i) {
    t += rng.UniformInt(1, 2);
    UpdateBatch batch(t);
    if (i == 0) {
      batch.Insert("A", T(I(1)));
      batch.Insert("B", T(I(1)));
    }
    if (i > 0 && rng.Bernoulli(0.5)) {
      const std::int64_t v = rng.UniformInt(0, 4);
      if (rng.Bernoulli(0.5)) {
        batch.Insert("A", T(I(v)));
      } else {
        batch.Delete("A", T(I(v)));
      }
    }
    if (i > 0 && rng.Bernoulli(0.1)) {
      const std::int64_t v = rng.UniformInt(2, 4);
      if (rng.Bernoulli(0.5)) {
        batch.Insert("B", T(I(v)));
      } else {
        batch.Delete("B", T(I(v)));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(KeptResultTest, RestoredEngineNeverServesPreRestoreResults) {
  const auto schemas = ABSchemas();
  const std::size_t kBase = 9;    // base checkpoint after this step
  const std::size_t kDelta = 14;  // delta checkpoint after this step
  const std::size_t kLength = 40;
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const auto batches = StickyBStream(seed, kLength);
    for (const std::string& text : RestoreConstraints()) {
      SCOPED_TRACE(text + " seed " + std::to_string(seed));
      auto make = [&] {
        auto engine = Unwrap(
            testing::MakeEngine(EngineKind::kIncremental, text, schemas));
        EXPECT_NE(engine, nullptr);
        return engine;
      };
      // The uninterrupted reference, which also writes the checkpoints.
      auto reference = make();
      ASSERT_NE(reference, nullptr);
      reference->BeginDeltaTracking();
      Database ref_db = MakeDb(schemas);
      std::string base;
      std::string delta;
      for (std::size_t i = 0; i <= kDelta; ++i) {
        RTIC_ASSERT_OK(batches[i].Apply(&ref_db));
        Unwrap(reference->OnTransition(ref_db, batches[i].timestamp()));
        if (i == kBase) {
          base = Unwrap(reference->SaveState());
          reference->MarkStateSaved();
        } else if (i == kDelta) {
          delta = Unwrap(reference->SaveStateDelta());
          reference->MarkStateSaved();
        }
      }

      // The engine under test first keeps results of its own: a run of
      // pure clock ticks over an empty database, during which every node
      // sits at version 0 with empty content.
      auto restored = make();
      ASSERT_NE(restored, nullptr);
      Database scratch_db = MakeDb(schemas);
      for (Timestamp t = 1; t <= 5; ++t) {
        Unwrap(restored->OnTransition(scratch_db, t));
      }
      // Then it restores base + delta, mid-stream. Restored node versions
      // restart at zero, now with non-empty content.
      RTIC_ASSERT_OK(restored->LoadState(base));
      RTIC_ASSERT_OK(restored->LoadStateDelta(delta));
      EXPECT_EQ(Unwrap(restored->SaveState()), Unwrap(reference->SaveState()));

      // It continues on a database at the restored step's content, in
      // lockstep with the reference.
      Database db = MakeDb(schemas);
      for (std::size_t i = 0; i <= kDelta; ++i) {
        RTIC_ASSERT_OK(batches[i].Apply(&db));
      }
      for (std::size_t i = kDelta + 1; i < kLength; ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        RTIC_ASSERT_OK(batches[i].Apply(&ref_db));
        RTIC_ASSERT_OK(batches[i].Apply(&db));
        const Timestamp t = batches[i].timestamp();
        ASSERT_EQ(Unwrap(restored->OnTransition(db, t)),
                  Unwrap(reference->OnTransition(ref_db, t)));
        ASSERT_EQ(Unwrap(restored->SaveState()),
                  Unwrap(reference->SaveState()));
      }
    }
  }
}

std::vector<std::string> Transcript(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const Violation& v : violations) out.push_back(v.ToString());
  return out;
}

TEST(KeptResultTest, MonitorRestoreMidStreamMatchesUninterruptedRun) {
  auto make = [] {
    auto monitor = std::make_unique<ConstraintMonitor>(MonitorOptions{});
    for (const auto& [name, schema] : ABSchemas()) {
      RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
    }
    int k = 0;
    for (const std::string& text : RestoreConstraints()) {
      RTIC_EXPECT_OK(
          monitor->RegisterConstraint("c" + std::to_string(k++), text));
    }
    return monitor;
  };
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto batches = StickyBStream(seed, 60);
    auto reference = make();
    auto primary = make();
    primary->BeginDeltaTracking();
    // A monitor that keeps results over an empty history first, and a
    // primary that runs 20 steps past its delta: both are then rewound to
    // the delta's state, so every result they kept predates (or
    // postdates) what they restore.
    auto fresh = make();
    for (Timestamp t = 1; t <= 5; ++t) {
      Unwrap(fresh->ApplyUpdate(UpdateBatch(t)));
    }
    std::string base;
    std::string delta;
    for (std::size_t i = 0; i < 40; ++i) {
      if (i < 20) Unwrap(reference->ApplyUpdate(batches[i]));
      Unwrap(primary->ApplyUpdate(batches[i]));
      if (i == 9) {
        base = Unwrap(primary->SaveState());
        RTIC_ASSERT_OK(primary->LoadState(base));  // re-anchor the baseline
      } else if (i == 19) {
        delta = Unwrap(primary->SaveStateDelta());
      }
    }
    for (ConstraintMonitor* m : {primary.get(), fresh.get()}) {
      RTIC_ASSERT_OK(m->LoadState(base));
      RTIC_ASSERT_OK(m->LoadStateDelta(delta));
      EXPECT_EQ(Unwrap(m->SaveState()), Unwrap(reference->SaveState()));
    }
    for (std::size_t i = 20; i < batches.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(i));
      const auto want = Transcript(Unwrap(reference->ApplyUpdate(batches[i])));
      ASSERT_EQ(Transcript(Unwrap(primary->ApplyUpdate(batches[i]))), want);
      ASSERT_EQ(Transcript(Unwrap(fresh->ApplyUpdate(batches[i]))), want);
    }
    EXPECT_EQ(Unwrap(primary->SaveState()), Unwrap(reference->SaveState()));
    EXPECT_EQ(Unwrap(fresh->SaveState()), Unwrap(reference->SaveState()));
  }
}

// Constraints with overlapping temporal subplans (shared across engines),
// duplicates (shared verdicts), and unsafe ones (domain-keyed results).
std::vector<std::pair<std::string, std::string>> SharedBank() {
  const std::vector<std::string> texts = {
      "forall x: A(x) implies once[0, 3] B(x)",
      "forall x: A(x) implies once[0, 3] B(x)",
      "forall x: B(x) implies not once[1, 3] B(x)",
      "forall x: A(x) implies A(x) since[0, 4] B(x)",
      "forall x: once[0, 3] B(x) implies previous once[0, 3] B(x)",
      "exists x: not A(x)",
      "forall x: A(x) or once[0, 3] B(x)",
      "forall x: B(x) implies previous A(x)",
  };
  std::vector<std::pair<std::string, std::string>> out;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < texts.size(); ++i) {
      out.emplace_back("c" + std::to_string(copy) + "_" + std::to_string(i),
                       texts[i]);
    }
  }
  return out;
}

std::unique_ptr<ConstraintMonitor> MakeSharedBankMonitor() {
  MonitorOptions options;
  options.max_witnesses = 1000;
  auto monitor = std::make_unique<ConstraintMonitor>(options);
  for (const auto& [name, schema] : ABSchemas()) {
    RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
  }
  for (const auto& [name, text] : SharedBank()) {
    RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
  }
  return monitor;
}

// Restores keep shared subplans shared: monitors restored mid-stream, one
// from a base checkpoint and one from a base+delta chain, continue exactly
// like a monitor that never stopped, and report the same coalesced handles.
TEST(KeptResultTest, SharedSubplanRestoreMidStreamMatchesUninterruptedRun) {
  auto coalesced_of = [](const ConstraintMonitor& m) {
    std::vector<std::size_t> out;
    for (const ConstraintStats& s : m.Stats()) out.push_back(s.shared_subplans);
    return out;
  };
  const std::vector<std::size_t> coalesced =
      coalesced_of(*MakeSharedBankMonitor());
  ASSERT_GT(*std::max_element(coalesced.begin(), coalesced.end()), 0u);
  for (std::uint64_t seed : {43u, 44u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto batches = ChurnStream(seed, 120);
    auto uninterrupted = MakeSharedBankMonitor();
    auto primary = MakeSharedBankMonitor();
    primary->BeginDeltaTracking();
    auto from_base = MakeSharedBankMonitor();
    auto from_chain = MakeSharedBankMonitor();
    std::string base;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(i));
      const auto want =
          Transcript(Unwrap(uninterrupted->ApplyUpdate(batches[i])));
      ASSERT_EQ(Transcript(Unwrap(primary->ApplyUpdate(batches[i]))), want);
      if (i > 39) {
        ASSERT_EQ(Transcript(Unwrap(from_base->ApplyUpdate(batches[i]))),
                  want);
      }
      if (i > 79) {
        ASSERT_EQ(Transcript(Unwrap(from_chain->ApplyUpdate(batches[i]))),
                  want);
      }
      if (i == 39) {
        base = Unwrap(primary->SaveState());
        RTIC_ASSERT_OK(primary->LoadState(base));  // the delta's baseline
        RTIC_ASSERT_OK(from_base->LoadState(base));
        EXPECT_EQ(coalesced_of(*from_base), coalesced);
      } else if (i == 79) {
        const std::string delta = Unwrap(primary->SaveStateDelta());
        RTIC_ASSERT_OK(from_chain->LoadState(base));
        RTIC_ASSERT_OK(from_chain->LoadStateDelta(delta));
        EXPECT_EQ(coalesced_of(*from_chain), coalesced);
        EXPECT_EQ(Unwrap(from_chain->SaveState()),
                  Unwrap(uninterrupted->SaveState()));
      }
    }
    const std::string want = Unwrap(uninterrupted->SaveState());
    EXPECT_EQ(Unwrap(primary->SaveState()), want);
    EXPECT_EQ(Unwrap(from_base->SaveState()), want);
    EXPECT_EQ(Unwrap(from_chain->SaveState()), want);
    EXPECT_EQ(coalesced_of(*primary), coalesced);
  }
}

// ---- BatchAbsorbTest --------------------------------------------------------

std::map<std::string, Schema> MixedSchemas() {
  return {{"P", IntSchema({"a", "b"})},
          {"Q", Schema({Column{"s", ValueType::kString}})},
          {"R", IntSchema({"a"})}};
}

Tuple RandomRow(Rng* rng, const std::string& table) {
  if (table == "Q") return T(S("s" + std::to_string(rng->UniformInt(0, 30))));
  if (table == "P") {
    return T(I(rng->UniformInt(0, 40)), I(rng->UniformInt(100, 140)));
  }
  return T(I(rng->UniformInt(200, 260)));
}

// Random batches; some delete and re-insert the same tuple.
UpdateBatch RandomBatch(Rng* rng, Timestamp t, const Database& db) {
  UpdateBatch batch(t);
  for (const char* table : {"P", "Q", "R"}) {
    const int ops = static_cast<int>(rng->UniformInt(0, 3));
    for (int k = 0; k < ops; ++k) {
      batch.Insert(table, RandomRow(rng, table));
    }
    const Table* live = db.GetTable(table).value();
    for (const Tuple& row : live->rows()) {
      if (rng->Bernoulli(0.15)) batch.Delete(table, row);
      if (rng->Bernoulli(0.05)) {
        batch.Delete(table, row);
        batch.Insert(table, row);
      }
    }
  }
  return batch;
}

// A full scan of every table, added to `values`.
void ScanInto(const Database& db, std::set<Value>* values) {
  for (const auto& [name, table] : db.tables()) {
    for (const Tuple& row : table.rows()) {
      for (const Value& v : row.values()) values->insert(v);
    }
  }
}

void ExpectMatches(const DomainTracker& tracker,
                   const std::set<Value>& reference) {
  EXPECT_EQ(tracker.AllValues(),
            std::vector<Value>(reference.begin(), reference.end()));
  // additions() lists each tracked value once, in first-absorption order.
  std::vector<Value> additions = tracker.additions();
  std::sort(additions.begin(), additions.end());
  EXPECT_EQ(additions, tracker.AllValues());
}

TEST(BatchAbsorbTest, MatchesFullScanOverRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db = MakeDb(MixedSchemas());
    // every: absorbs every transition; late: first absorbs at step 7, when
    // the tables are already non-empty; skipping: misses every third step.
    DomainTracker every;
    DomainTracker late;
    DomainTracker skipping;
    std::set<Value> every_ref;
    std::set<Value> late_ref;
    std::set<Value> skipping_ref;
    for (std::size_t step = 0; step < 60; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const Timestamp t = static_cast<Timestamp>(step + 1);
      RTIC_ASSERT_OK(RandomBatch(&rng, t, db).Apply(&db));
      if (step % 17 == 9) {
        // A mutation outside any batch: clear a table and refill it.
        Table* table = db.GetMutableTable("P").value();
        table->Clear();
        RTIC_ASSERT_OK(table->Insert(T(I(500 + step), I(600))).status());
      }
      if (step % 13 == 5) {
        // A table replaced by a restored copy (fresh id, same name), plus
        // a value only the copy holds.
        Table copy = *db.GetTable("R").value();
        RTIC_ASSERT_OK(copy.Insert(T(I(900 + step))).status());
        *db.GetMutableTable("R").value() = std::move(copy);
      }
      every.Absorb(db);
      ScanInto(db, &every_ref);
      ExpectMatches(every, every_ref);
      if (step >= 7) {
        late.Absorb(db);
        ScanInto(db, &late_ref);
        ExpectMatches(late, late_ref);
      }
      if (step % 3 != 2) {
        skipping.Absorb(db);
        ScanInto(db, &skipping_ref);
        ExpectMatches(skipping, skipping_ref);
      }
    }
  }
}

TEST(BatchAbsorbTest, DeletedAndReinsertedTupleAndSameBatchChurn) {
  Database db = MakeDb({{"R", IntSchema({"a"})}});
  DomainTracker tracker;
  UpdateBatch first(1);
  first.Insert("R", T(I(1)));
  first.Insert("R", T(I(2)));
  RTIC_ASSERT_OK(first.Apply(&db));
  tracker.Absorb(db);

  // Delete and re-insert 1, delete 2, insert 3 and 4: the batch's newly
  // inserted rows are 1 (re-inserted) plus 3 and 4; 2 stays tracked.
  UpdateBatch second(2);
  second.Delete("R", T(I(1)));
  second.Insert("R", T(I(1)));
  second.Delete("R", T(I(2)));
  second.Insert("R", T(I(4)));
  second.Insert("R", T(I(3)));
  RTIC_ASSERT_OK(second.Apply(&db));
  const Table* r = db.GetTable("R").value();
  ASSERT_NE(r->BatchInsertsSince(2), nullptr);
  EXPECT_EQ(*r->BatchInsertsSince(2),
            (std::vector<Tuple>{T(I(1)), T(I(4)), T(I(3))}));
  tracker.Absorb(db);
  EXPECT_EQ(tracker.AllValues(), (std::vector<Value>{I(1), I(2), I(3), I(4)}));
  // Values first seen in one transition join in the batch's insert order.
  ASSERT_EQ(tracker.additions().size(), 4u);
  EXPECT_EQ(tracker.additions()[2], I(4));
  EXPECT_EQ(tracker.additions()[3], I(3));
}

TEST(BatchAbsorbTest, BatchRecordOnlyDescribesAnUntouchedTable) {
  Database db = MakeDb({{"R", IntSchema({"a"})}});
  Table* r = db.GetMutableTable("R").value();
  EXPECT_EQ(r->BatchInsertsSince(0), nullptr);  // no batch yet

  UpdateBatch batch(1);
  batch.Insert("R", T(I(7)));
  RTIC_ASSERT_OK(batch.Apply(&db));
  ASSERT_NE(r->BatchInsertsSince(0), nullptr);
  EXPECT_EQ(r->BatchInsertsSince(1), nullptr);  // not the pre-batch version

  // Any change outside a batch retires the record.
  RTIC_ASSERT_OK(r->Insert(T(I(8))).status());
  EXPECT_EQ(r->BatchInsertsSince(0), nullptr);
  RTIC_ASSERT_OK(batch.Apply(&db));  // re-inserting 7 changes nothing
  ASSERT_NE(r->BatchInsertsSince(r->version()), nullptr);
  EXPECT_TRUE(r->BatchInsertsSince(r->version())->empty());
  r->Clear();
  EXPECT_EQ(r->BatchInsertsSince(r->version() - 1), nullptr);

  // A copy carries no record.
  UpdateBatch refill(2);
  refill.Insert("R", T(I(9)));
  RTIC_ASSERT_OK(refill.Apply(&db));
  const std::uint64_t before = r->version() - 1;
  ASSERT_NE(r->BatchInsertsSince(before), nullptr);
  Table copy = *r;
  EXPECT_EQ(copy.BatchInsertsSince(before), nullptr);
  EXPECT_EQ(copy.BatchInsertsSince(0), nullptr);
}

}  // namespace
}  // namespace rtic
