// Unit tests for the storage module: Table, Database, UpdateBatch,
// DomainTracker, and the history log.

#include <gtest/gtest.h>

#include "history/history.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/domain_tracker.h"
#include "storage/table.h"
#include "storage/update_batch.h"
#include "tests/test_util.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::S;
using testing::T;
using testing::Unwrap;

// ---- Table -----------------------------------------------------------------

TEST(TableTest, InsertIsSetSemantics) {
  Table t("P", IntSchema({"x"}));
  EXPECT_TRUE(Unwrap(t.Insert(T(I(1)))));
  EXPECT_FALSE(Unwrap(t.Insert(T(I(1)))));  // already present
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, InsertTypeChecks) {
  Table t("P", IntSchema({"x"}));
  EXPECT_FALSE(t.Insert(T(S("no"))).ok());
  EXPECT_FALSE(t.Insert(T(I(1), I(2))).ok());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, EraseAndContains) {
  Table t("P", IntSchema({"x"}));
  RTIC_ASSERT_OK(t.Insert(T(I(3))).status());
  EXPECT_TRUE(t.Contains(T(I(3))));
  EXPECT_TRUE(t.Erase(T(I(3))));
  EXPECT_FALSE(t.Erase(T(I(3))));  // absent: no-op
  EXPECT_FALSE(t.Contains(T(I(3))));
}

TEST(TableTest, ClearEmpties) {
  Table t("P", IntSchema({"x"}));
  RTIC_ASSERT_OK(t.Insert(T(I(1))).status());
  RTIC_ASSERT_OK(t.Insert(T(I(2))).status());
  t.Clear();
  EXPECT_TRUE(t.empty());
}

// ---- Database ----------------------------------------------------------------

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  EXPECT_TRUE(db.HasTable("P"));
  EXPECT_EQ(db.CreateTable("P", IntSchema({"x"})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.GetTable("P").ok());
  EXPECT_EQ(db.GetTable("Q").status().code(), StatusCode::kNotFound);
  RTIC_ASSERT_OK(db.DropTable("P"));
  EXPECT_FALSE(db.HasTable("P"));
  EXPECT_EQ(db.DropTable("P").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, CopyIsDeepSnapshot) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(1))).status());
  Database snapshot = db;
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(2))).status());
  EXPECT_EQ(Unwrap(snapshot.GetTable("P"))->size(), 1u);
  EXPECT_EQ(Unwrap(db.GetTable("P"))->size(), 2u);
}

TEST(DatabaseTest, ActiveDomainCollectsPerType) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable(
      "P", Schema({Column{"x", ValueType::kInt64},
                   Column{"s", ValueType::kString}})));
  Table* p = Unwrap(db.GetMutableTable("P"));
  RTIC_ASSERT_OK(p->Insert(T(I(1), S("a"))).status());
  RTIC_ASSERT_OK(p->Insert(T(I(2), S("a"))).status());
  std::vector<Value> ints = db.ActiveDomain(ValueType::kInt64);
  std::vector<Value> strs = db.ActiveDomain(ValueType::kString);
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(strs.size(), 1u);
  EXPECT_TRUE(db.ActiveDomain(ValueType::kBool).empty());
}

TEST(DatabaseTest, TotalRowsSumsTables) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  RTIC_ASSERT_OK(db.CreateTable("Q", IntSchema({"x"})));
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(1))).status());
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("Q"))->Insert(T(I(1))).status());
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("Q"))->Insert(T(I(2))).status());
  EXPECT_EQ(db.TotalRows(), 3u);
}

// ---- UpdateBatch -------------------------------------------------------------

TEST(UpdateBatchTest, AppliesDeletesThenInserts) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(1))).status());

  UpdateBatch batch(5);
  batch.Delete("P", T(I(1)));
  batch.Insert("P", T(I(2)));
  RTIC_ASSERT_OK(batch.Apply(&db));

  const Table* p = Unwrap(db.GetTable("P"));
  EXPECT_FALSE(p->Contains(T(I(1))));
  EXPECT_TRUE(p->Contains(T(I(2))));
}

TEST(UpdateBatchTest, DeleteThenInsertOfSameTupleKeepsIt) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  UpdateBatch batch(1);
  batch.Delete("P", T(I(7)));
  batch.Insert("P", T(I(7)));
  RTIC_ASSERT_OK(batch.Apply(&db));
  EXPECT_TRUE(Unwrap(db.GetTable("P"))->Contains(T(I(7))));
}

TEST(UpdateBatchTest, FailsAtomicallyOnUnknownTable) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  UpdateBatch batch(1);
  batch.Insert("P", T(I(1)));
  batch.Insert("Q", T(I(2)));  // unknown
  EXPECT_FALSE(batch.Apply(&db).ok());
  EXPECT_TRUE(Unwrap(db.GetTable("P"))->empty()) << "no partial application";
}

TEST(UpdateBatchTest, FailsAtomicallyOnSchemaMismatch) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  UpdateBatch batch(1);
  batch.Insert("P", T(I(1)));
  batch.Insert("P", T(S("bad")));
  EXPECT_FALSE(batch.Apply(&db).ok());
  EXPECT_TRUE(Unwrap(db.GetTable("P"))->empty());
}

TEST(UpdateBatchTest, AccountingHelpers) {
  UpdateBatch batch(9);
  EXPECT_TRUE(batch.IsEmpty());
  batch.Insert("B", T(I(1)));
  batch.Delete("A", T(I(2)));
  EXPECT_FALSE(batch.IsEmpty());
  EXPECT_EQ(batch.OperationCount(), 2u);
  EXPECT_EQ(batch.TouchedTables(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(batch.timestamp(), 9);
}

// ---- StateWriter / StateReader ---------------------------------------------

TEST(StateCodecTest, ScalarRoundTrip) {
  StateWriter w;
  w.WriteInt(-42);
  w.WriteValue(I(7));
  w.WriteValue(Value::Double(0.1));
  w.WriteValue(S("a b:c "));  // embedded spaces and colons survive
  w.WriteValue(Value::Bool(true));
  w.WriteString("");
  StateReader r(w.str());
  EXPECT_EQ(Unwrap(r.ReadInt()), -42);
  EXPECT_EQ(Unwrap(r.ReadValue()), I(7));
  EXPECT_EQ(Unwrap(r.ReadValue()), Value::Double(0.1));
  EXPECT_EQ(Unwrap(r.ReadValue()), S("a b:c "));
  EXPECT_EQ(Unwrap(r.ReadValue()), Value::Bool(true));
  EXPECT_EQ(Unwrap(r.ReadString()), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateCodecTest, TruncatedInputsErrorNotCrash) {
  // Cut a valid payload at every byte boundary: each prefix must either
  // parse (when the cut lands between tokens) or fail cleanly.
  StateWriter w;
  w.WriteTuple(T(I(5), S("xyz"), Value::Bool(false)));
  const std::string full = w.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);  // outlives the reader
    StateReader r(prefix);
    Result<Tuple> t = r.ReadTuple();
    if (t.ok()) {
      EXPECT_EQ(*t, T(I(5), S("xyz"), Value::Bool(false)));
    } else {
      EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(StateCodecTest, RejectsBadIntegerTokens) {
  for (const char* input : {"zz", "12x", "--3", "0x10", "999999999999999999999",
                            "", " "}) {
    StateReader r(input);
    EXPECT_FALSE(r.ReadInt().ok()) << "input: " << input;
  }
}

TEST(StateCodecTest, RejectsBadStringLengths) {
  // Oversized, non-numeric, negative, overflowing, and missing lengths.
  for (const char* input : {"10:abc", "x:abc", "-1:abc",
                            "99999999999999999999:abc", "abc"}) {
    StateReader r(input);
    EXPECT_FALSE(r.ReadString().ok()) << "input: " << input;
  }
}

TEST(StateCodecTest, RejectsStringWithWrongDeclaredLength) {
  StateReader r("1:ab ");  // declared 1 byte but 'b' is glued on
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(StateCodecTest, RejectsGarbageValueTokens) {
  for (const char* input : {"zz", "q:1", "b:7", "b:10", "b:", "i:", "i:12x",
                            "d:zz", "s:999:x", ""}) {
    StateReader r(input);
    EXPECT_FALSE(r.ReadValue().ok()) << "input: " << input;
  }
}

TEST(StateCodecTest, RejectsHostileTupleArity) {
  for (const char* input : {"-1", "2000000", "99999999999999999999", "x"}) {
    StateReader r(input);
    EXPECT_FALSE(r.ReadTuple().ok()) << "input: " << input;
  }
}

// ---- UpdateBatch codec -------------------------------------------------------

TEST(UpdateBatchCodecTest, RoundTripsOperationsAndTimestamp) {
  UpdateBatch batch(17);
  batch.Insert("P", T(I(1), S("a")));
  batch.Insert("Q", T(I(2)));
  batch.Delete("P", T(I(3), S("b c")));
  StateWriter w;
  batch.EncodeTo(&w);
  StateReader r(w.str());
  UpdateBatch decoded = Unwrap(UpdateBatch::DecodeFrom(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.timestamp(), 17);
  EXPECT_EQ(decoded.ToString(), batch.ToString());
}

TEST(UpdateBatchCodecTest, RoundTripsEmptyBatch) {
  UpdateBatch batch(3);
  StateWriter w;
  batch.EncodeTo(&w);
  StateReader r(w.str());
  UpdateBatch decoded = Unwrap(UpdateBatch::DecodeFrom(&r));
  EXPECT_TRUE(decoded.IsEmpty());
  EXPECT_EQ(decoded.timestamp(), 3);
}

TEST(UpdateBatchCodecTest, RejectsBadMagicAndTruncation) {
  {
    StateReader r("4:junk 1 0 0 ");
    EXPECT_FALSE(UpdateBatch::DecodeFrom(&r).ok());
  }
  UpdateBatch batch(5);
  batch.Insert("P", T(I(1)));
  StateWriter w;
  batch.EncodeTo(&w);
  const std::string full = w.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);  // outlives the reader
    StateReader r(prefix);
    Result<UpdateBatch> decoded = UpdateBatch::DecodeFrom(&r);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->ToString(), batch.ToString());
    }
  }
}

TEST(UpdateBatchCodecTest, RejectsNegativeCounts) {
  StateReader r("8:RTICBAT1 5 -1 ");
  EXPECT_FALSE(UpdateBatch::DecodeFrom(&r).ok());
}

// ---- DomainTracker -----------------------------------------------------------

TEST(DomainTrackerTest, AbsorbsDatabaseValues) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(5))).status());
  DomainTracker tracker;
  tracker.Absorb(db);
  EXPECT_TRUE(tracker.Contains(I(5)));
  EXPECT_FALSE(tracker.Contains(I(6)));
}

TEST(DomainTrackerTest, IsCumulative) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  Table* p = Unwrap(db.GetMutableTable("P"));
  RTIC_ASSERT_OK(p->Insert(T(I(1))).status());
  DomainTracker tracker;
  tracker.Absorb(db);
  p->Erase(T(I(1)));
  RTIC_ASSERT_OK(p->Insert(T(I(2))).status());
  tracker.Absorb(db);
  // Both the departed and the current value are tracked.
  EXPECT_TRUE(tracker.Contains(I(1)));
  EXPECT_TRUE(tracker.Contains(I(2)));
  EXPECT_EQ(tracker.Values(ValueType::kInt64).size(), 2u);
}

TEST(DomainTrackerTest, AbsorbValuesAndTypeBuckets) {
  DomainTracker tracker;
  tracker.AbsorbValues({I(1), S("a"), I(1)});
  EXPECT_EQ(tracker.size(), 2u);
  EXPECT_EQ(tracker.Values(ValueType::kInt64).size(), 1u);
  EXPECT_EQ(tracker.Values(ValueType::kString).size(), 1u);
  EXPECT_TRUE(tracker.Values(ValueType::kDouble).empty());
}

// ---- HistoryLog ----------------------------------------------------------------

TEST(HistoryLogTest, AppendsSnapshotsAndEnforcesMonotonicTime) {
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", IntSchema({"x"})));
  HistoryLog log;
  RTIC_ASSERT_OK(log.Append(db, 1));
  RTIC_ASSERT_OK(Unwrap(db.GetMutableTable("P"))->Insert(T(I(1))).status());
  RTIC_ASSERT_OK(log.Append(db, 4));
  EXPECT_FALSE(log.Append(db, 4).ok());
  EXPECT_FALSE(log.Append(db, 2).ok());

  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.TimeAt(0), 1);
  EXPECT_EQ(log.LatestTime(), 4);
  EXPECT_EQ(Unwrap(log.StateAt(0).GetTable("P"))->size(), 0u);
  EXPECT_EQ(Unwrap(log.StateAt(1).GetTable("P"))->size(), 1u);
  EXPECT_EQ(log.TotalStoredRows(), 1u);
}

}  // namespace
}  // namespace rtic
