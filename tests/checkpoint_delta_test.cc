// Delta-checkpoint tests: incremental (base + delta chain) checkpoints and
// compressed checkpoint frames, from the engine level up through durable
// end-to-end restarts.
//
//   * a restart over a base+delta chain restores byte-identical state and
//     continues verdict-for-verdict like an uninterrupted run,
//   * the chain limit forces fresh bases; garbage collection never removes
//     a base (or the WAL back to it) while deltas still reference it, so a
//     lost or corrupt delta degrades to base + longer replay, never data
//     loss,
//   * pre-delta RTICMON2 checkpoint files still recover, and so does a
//     base+delta chain written before domain trackers became conditional,
//   * compressed and uncompressed checkpoints interoperate freely and
//     recover byte-identically, and corrupt compressed frames are rejected,
//   * delta payload size scales with churn, not state size.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/compress.h"
#include "engines/incremental/engine.h"
#include "monitor/monitor.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "tl/parser.h"
#include "wal/file.h"
#include "wal/wal_format.h"
#include "workload/generators.h"

namespace rtic {
namespace {

using testing::I;
using testing::T;
using testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_ckpt_delta_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

struct Cfg {
  std::size_t interval = 4;
  std::size_t delta_chain = 8;
  bool compression = false;
};

MonitorOptions DurableOptions(const std::string& dir, const Cfg& cfg) {
  MonitorOptions options;
  options.wal_dir = dir;
  options.checkpoint_interval = cfg.interval;
  options.checkpoint_delta_chain = cfg.delta_chain;
  options.checkpoint_compression = cfg.compression;
  options.sync_policy = wal::SyncPolicy::kBatch;
  return options;
}

/// One table, one temporal constraint; identical across instances so
/// checkpoints compare byte-for-byte.
std::unique_ptr<ConstraintMonitor> MakeMonitor(MonitorOptions options) {
  auto monitor = std::make_unique<ConstraintMonitor>(std::move(options));
  RTIC_EXPECT_OK(monitor->CreateTable("Emp", testing::IntSchema({"id", "s"})));
  RTIC_EXPECT_OK(monitor->RegisterConstraint(
      "no_pay_cut",
      "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0"));
  return monitor;
}

/// Deterministic churn batch i (timestamps 1, 2, ...) over 5 hot rows.
UpdateBatch MakeBatch(std::size_t i) {
  UpdateBatch batch(static_cast<Timestamp>(i + 1));
  const std::int64_t id = static_cast<std::int64_t>(i % 5);
  batch.Delete("Emp", T(I(id), I(1000 - static_cast<std::int64_t>(i) + 5)));
  batch.Insert("Emp", T(I(id), I(1000 - static_cast<std::int64_t>(i))));
  return batch;
}

struct DirCensus {
  std::vector<std::pair<std::uint64_t, std::string>> bases;
  std::vector<std::pair<std::uint64_t, std::string>> deltas;  // seq, name
  std::vector<std::uint64_t> segment_first_seqs;
};

DirCensus Census(const std::string& dir) {
  DirCensus out;
  for (const std::string& name : Unwrap(wal::DefaultFs()->ListDir(dir))) {
    std::uint64_t seq = 0, parent = 0;
    if (wal::ParseCheckpointFileName(name, &seq)) {
      out.bases.emplace_back(seq, name);
    } else if (wal::ParseDeltaCheckpointFileName(name, &seq, &parent)) {
      out.deltas.emplace_back(seq, name);
    } else if (wal::ParseSegmentFileName(name, &seq)) {
      out.segment_first_seqs.push_back(seq);
    }
  }
  return out;
}

// ---- file naming --------------------------------------------------------

TEST(DeltaFileNameTest, RoundTripsAndRejectsMalformedNames) {
  const std::string name = wal::DeltaCheckpointFileName(42, 17);
  std::uint64_t seq = 0, parent = 0;
  ASSERT_TRUE(wal::ParseDeltaCheckpointFileName(name, &seq, &parent));
  EXPECT_EQ(seq, 42u);
  EXPECT_EQ(parent, 17u);
  // A delta name must NOT parse as a base checkpoint: pre-delta builds
  // list the directory with the strict parser and must ignore delta files
  // rather than misread them.
  EXPECT_FALSE(wal::ParseCheckpointFileName(name, &seq));
  // Parent must precede the delta.
  EXPECT_FALSE(
      wal::ParseDeltaCheckpointFileName(wal::DeltaCheckpointFileName(17, 17),
                                        &seq, &parent));
  EXPECT_FALSE(wal::ParseDeltaCheckpointFileName("ckpt-42.d17", &seq,
                                                 &parent));  // unpadded
  EXPECT_FALSE(wal::ParseDeltaCheckpointFileName(
      wal::CheckpointFileName(42), &seq, &parent));
}

// ---- engine-level deltas ------------------------------------------------

// Differential check: an engine maintained purely through SaveStateDelta /
// LoadStateDelta stays byte-identical to the engine it shadows.
TEST(EngineDeltaTest, ShadowEngineTracksViaDeltasByteIdentically) {
  const std::string text =
      "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0";
  tl::PredicateCatalog catalog;
  catalog["Emp"] = testing::IntSchema({"id", "s"});
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));

  auto primary = Unwrap(IncrementalEngine::Create(*formula, catalog));
  auto shadow = Unwrap(IncrementalEngine::Create(*formula, catalog));
  primary->BeginDeltaTracking();
  // Anchor the shadow on a full snapshot, then feed it only deltas.
  RTIC_ASSERT_OK(shadow->LoadState(Unwrap(primary->SaveState())));
  primary->MarkStateSaved();

  std::mt19937_64 rng(99);
  Database db;
  RTIC_ASSERT_OK(db.CreateTable("Emp", testing::IntSchema({"id", "s"})));
  for (int step = 1; step <= 60; ++step) {
    Table* table = Unwrap(db.GetMutableTable("Emp"));
    const std::int64_t id = static_cast<std::int64_t>(rng() % 6);
    const std::int64_t s = static_cast<std::int64_t>(rng() % 50);
    if (rng() % 3 == 0) table->Clear();
    (void)Unwrap(table->Insert(T(I(id), I(s))));
    (void)primary->OnTransition(db, step);
    if (step % 7 == 0) {
      std::string delta = Unwrap(primary->SaveStateDelta());
      primary->MarkStateSaved();
      RTIC_ASSERT_OK(shadow->LoadStateDelta(delta));
      ASSERT_EQ(Unwrap(shadow->SaveState()), Unwrap(primary->SaveState()))
          << "shadow diverged at step " << step;
    }
  }
}

TEST(EngineDeltaTest, DeltaOntoWrongParentRejected) {
  // The engine checks the chain by its domain size, so the constraint must
  // read the domain (`once P(a)` is falsified over it); a domain-free one
  // keeps no domain, and only the monitor's transition count chains it
  // (MonitorDeltaTest.DeltaOntoWrongParentRejected).
  const std::string text = "forall a: once P(a)";
  tl::PredicateCatalog catalog;
  catalog["P"] = testing::IntSchema({"a"});
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));

  auto a = Unwrap(IncrementalEngine::Create(*formula, catalog));
  auto b = Unwrap(IncrementalEngine::Create(*formula, catalog));
  a->BeginDeltaTracking();
  a->MarkStateSaved();

  Database db;
  RTIC_ASSERT_OK(db.CreateTable("P", testing::IntSchema({"a"})));
  Table* table = Unwrap(db.GetMutableTable("P"));
  (void)Unwrap(table->Insert(T(I(1))));
  (void)a->OnTransition(db, 1);
  std::string delta = Unwrap(a->SaveStateDelta());
  // b is still at its initial state, which is NOT the delta's parent (the
  // parent saw value 1 absorbed into the domain)... the initial state has
  // an empty domain, so the chain check fires.
  (void)Unwrap(table->Insert(T(I(2))));
  (void)b->OnTransition(db, 1);
  Status s = b->LoadStateDelta(delta);
  EXPECT_FALSE(s.ok());
}

// ---- monitor-level deltas (no WAL) --------------------------------------

TEST(MonitorDeltaTest, StackedDeltasRestoreAndContinueIdentically) {
  auto reference = MakeMonitor(MonitorOptions{});
  auto primary = MakeMonitor(MonitorOptions{});
  primary->BeginDeltaTracking();

  std::string base;
  std::vector<std::string> deltas;
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<Violation> want = Unwrap(reference->ApplyUpdate(MakeBatch(i)));
    std::vector<Violation> got = Unwrap(primary->ApplyUpdate(MakeBatch(i)));
    ASSERT_EQ(got.size(), want.size());
    if (i == 7) {
      base = Unwrap(primary->SaveState());
      // SaveState is const and must not move the delta baseline; re-anchor
      // explicitly the way the durable checkpoint path does.
      RTIC_ASSERT_OK(primary->LoadState(base));
    } else if (i > 7 && i % 4 == 3) {
      deltas.push_back(Unwrap(primary->SaveStateDelta()));
    }
  }
  ASSERT_GE(deltas.size(), 3u);

  auto restored = MakeMonitor(MonitorOptions{});
  RTIC_ASSERT_OK(restored->LoadState(base));
  for (const std::string& delta : deltas) {
    RTIC_ASSERT_OK(restored->LoadStateDelta(delta));
  }
  EXPECT_EQ(Unwrap(restored->SaveState()), Unwrap(primary->SaveState()));
  EXPECT_EQ(restored->transition_count(), primary->transition_count());
  EXPECT_EQ(restored->total_violations(), primary->total_violations());

  // And the restored monitor continues exactly like the reference.
  for (std::size_t i = 24; i < 30; ++i) {
    std::vector<Violation> want = Unwrap(reference->ApplyUpdate(MakeBatch(i)));
    std::vector<Violation> got = Unwrap(restored->ApplyUpdate(MakeBatch(i)));
    ASSERT_EQ(got.size(), want.size()) << "diverged at step " << i;
  }
}

// tests/data/commit_parent_{base,delta1,delta2,delta3}.ckpt were written by
// the release before domain trackers became conditional: a commit-family
// monitor (four incremental constraints and one response constraint) fed
// MakeCommitProtocolWorkload at seed 4242 and length 400, with a base
// after 100 states and a delta after each further 50. Their domain sections
// list every value seen. None of the five constraints reads the domain, so
// this release keeps no tracker for them and must drop those values, then
// continue exactly like a monitor that never stopped.
TEST(MonitorDeltaTest, ParentWrittenCommitChainRestores) {
  workload::CommitParams params;
  params.length = 400;
  params.seed = 4242;
  const workload::Workload w = workload::MakeCommitProtocolWorkload(params);
  auto make = [&w]() {
    auto monitor = std::make_unique<ConstraintMonitor>();
    for (const auto& [name, schema] : w.schema) {
      RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
    }
    for (const auto& [name, text] : w.constraints) {
      RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
    }
    return monitor;
  };
  auto read = [](const std::string& name) {
    return Unwrap(wal::DefaultFs()->ReadFile(std::string(RTIC_TEST_DATA_DIR) +
                                             "/" + name));
  };

  auto reference = make();
  std::string base_now;
  for (std::size_t i = 0; i < 250; ++i) {
    RTIC_ASSERT_OK(reference->ApplyUpdate(w.batches[i]).status());
    if (i + 1 == 100) base_now = Unwrap(reference->SaveState());
  }
  const std::string parent_base = read("commit_parent_base.ckpt");
  // The parent's base differs from this release's only by its domain
  // values.
  EXPECT_GT(parent_base.size(), base_now.size());

  auto restored = make();
  RTIC_ASSERT_OK(restored->LoadState(parent_base));
  EXPECT_EQ(Unwrap(restored->SaveState()), base_now);
  for (int d = 1; d <= 3; ++d) {
    RTIC_ASSERT_OK(restored->LoadStateDelta(
        read("commit_parent_delta" + std::to_string(d) + ".ckpt")));
  }
  ASSERT_EQ(restored->transition_count(), 250u);
  EXPECT_EQ(Unwrap(restored->SaveState()), Unwrap(reference->SaveState()));
  EXPECT_EQ(restored->total_violations(), reference->total_violations());

  for (std::size_t i = 250; i < w.batches.size(); ++i) {
    std::vector<Violation> want =
        Unwrap(reference->ApplyUpdate(w.batches[i]));
    std::vector<Violation> got = Unwrap(restored->ApplyUpdate(w.batches[i]));
    ASSERT_EQ(got.size(), want.size()) << "diverged at state " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].ToString(), want[k].ToString()) << "state " << i;
    }
  }
  EXPECT_GT(reference->total_violations(), 0u);
}

TEST(MonitorDeltaTest, DeltaOntoWrongParentRejected) {
  auto a = MakeMonitor(MonitorOptions{});
  a->BeginDeltaTracking();
  RTIC_ASSERT_OK(a->ApplyUpdate(MakeBatch(0)).status());
  std::string base = Unwrap(a->SaveState());
  RTIC_ASSERT_OK(a->LoadState(base));
  RTIC_ASSERT_OK(a->ApplyUpdate(MakeBatch(1)).status());
  std::string delta = Unwrap(a->SaveStateDelta());

  // A monitor that never saw batch 0 is not the delta's parent.
  auto b = MakeMonitor(MonitorOptions{});
  Status s = b->LoadStateDelta(delta);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  // Neither is one that already advanced past it.
  auto c = MakeMonitor(MonitorOptions{});
  RTIC_ASSERT_OK(c->LoadState(base));
  RTIC_ASSERT_OK(c->ApplyUpdate(MakeBatch(1)).status());
  EXPECT_EQ(c->LoadStateDelta(delta).code(),
            StatusCode::kFailedPrecondition);

  // The parent itself accepts it.
  auto d = MakeMonitor(MonitorOptions{});
  RTIC_ASSERT_OK(d->LoadState(base));
  RTIC_ASSERT_OK(d->LoadStateDelta(delta));
  EXPECT_EQ(Unwrap(d->SaveState()), Unwrap(a->SaveState()));
}

TEST(MonitorDeltaTest, DeltaRejectedByLoadStateAndViceVersa) {
  auto a = MakeMonitor(MonitorOptions{});
  a->BeginDeltaTracking();
  RTIC_ASSERT_OK(a->ApplyUpdate(MakeBatch(0)).status());
  std::string base = Unwrap(a->SaveState());
  RTIC_ASSERT_OK(a->LoadState(base));
  RTIC_ASSERT_OK(a->ApplyUpdate(MakeBatch(1)).status());
  std::string delta = Unwrap(a->SaveStateDelta());

  auto b = MakeMonitor(MonitorOptions{});
  EXPECT_EQ(b->LoadState(delta).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b->LoadStateDelta(base).code(), StatusCode::kInvalidArgument);
}

// Delta payloads are priced by churn: a monitor with a large quiet table
// and a few hot rows writes deltas orders of magnitude smaller than its
// full snapshot. Dirty tracking is relation-granular — a constraint's aux
// relations are rewritten whole once any of their rows change — so the
// quiet bulk lives in a table no constraint references, the shape the
// delta design targets (hot working set small, archival state large).
TEST(MonitorDeltaTest, DeltaBytesScaleWithChurnNotStateSize) {
  auto monitor = MakeMonitor(MonitorOptions{});
  RTIC_ASSERT_OK(
      monitor->CreateTable("Ref", testing::IntSchema({"k", "v"})));
  // Big quiet state: 5000 rows touched once, never again.
  UpdateBatch bulk(1);
  for (std::int64_t i = 0; i < 5000; ++i) {
    bulk.Insert("Ref", T(I(i), I(10'000 + i)));
  }
  RTIC_ASSERT_OK(monitor->ApplyUpdate(bulk).status());
  monitor->BeginDeltaTracking();
  const std::string base = Unwrap(monitor->SaveState());
  RTIC_ASSERT_OK(monitor->LoadState(base));

  // Small churn: 4 batches over 5 hot rows.
  for (std::size_t i = 0; i < 4; ++i) {
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i + 1)).status());
  }
  const std::string delta = Unwrap(monitor->SaveStateDelta());
  EXPECT_LT(delta.size() * 20, base.size())
      << "delta (" << delta.size() << " bytes) must be far smaller than the "
      << "full snapshot (" << base.size() << " bytes)";
}

// ---- durable end-to-end -------------------------------------------------

/// Runs `total` batches durably under `cfg` with a restart after every
/// `restart_every` batches, and requires the surviving monitor to match a
/// plain in-memory reference byte-for-byte at the end.
void RunRestartLoop(const Cfg& cfg, std::size_t total,
                    std::size_t restart_every) {
  const std::string dir = MakeTempDir() + "/wal";
  auto reference = MakeMonitor(MonitorOptions{});
  std::unique_ptr<ConstraintMonitor> monitor;
  std::size_t applied = 0;
  while (applied < total) {
    monitor = MakeMonitor(DurableOptions(dir, cfg));
    RTIC_ASSERT_OK(monitor->Recover().status());
    ASSERT_EQ(monitor->transition_count(), applied)
        << "restart lost or resurrected batches";
    const std::size_t stop = std::min(total, applied + restart_every);
    for (; applied < stop; ++applied) {
      std::vector<Violation> want =
          Unwrap(reference->ApplyUpdate(MakeBatch(applied)));
      std::vector<Violation> got =
          Unwrap(monitor->ApplyUpdate(MakeBatch(applied)));
      ASSERT_EQ(got.size(), want.size()) << "diverged at batch " << applied;
    }
  }
  EXPECT_EQ(Unwrap(monitor->SaveState()), Unwrap(reference->SaveState()));
}

TEST(DurableDeltaTest, RestartsOverDeltaChainsMatchUninterruptedRun) {
  RunRestartLoop(Cfg{/*interval=*/4, /*delta_chain=*/8,
                     /*compression=*/false},
                 /*total=*/50, /*restart_every=*/9);
}

TEST(DurableDeltaTest, CompressedRestartsMatchUninterruptedRun) {
  RunRestartLoop(Cfg{/*interval=*/4, /*delta_chain=*/8,
                     /*compression=*/true},
                 /*total=*/50, /*restart_every=*/9);
}

TEST(DurableDeltaTest, ChainLimitForcesNewBase) {
  const std::string dir = MakeTempDir() + "/wal";
  Cfg cfg;
  cfg.interval = 2;
  cfg.delta_chain = 3;
  auto monitor = MakeMonitor(DurableOptions(dir, cfg));
  RTIC_ASSERT_OK(monitor->Recover().status());
  // Checkpoints at seq 2,4,6,...: base(2), deltas 4,6,8, base(10), ...
  for (std::size_t i = 0; i < 20; ++i) {
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
  }
  DirCensus census = Census(dir);
  ASSERT_EQ(census.bases.size(), 1u)
      << "GC must keep exactly the live chain's base";
  EXPECT_EQ(census.bases[0].first, 18u);
  ASSERT_EQ(census.deltas.size(), 1u);
  EXPECT_EQ(census.deltas[0].first, 20u);
  const CheckpointStats& stats = monitor->checkpoint_stats();
  EXPECT_EQ(stats.bases, 3u);   // seq 2, 10, 18
  EXPECT_EQ(stats.deltas, 7u);  // seq 4,6,8, 12,14,16, 20
  EXPECT_EQ(stats.failures, 0u);
}

TEST(DurableDeltaTest, GcRetainsBaseAndWalWhileDeltasReferenceThem) {
  const std::string dir = MakeTempDir() + "/wal";
  Cfg cfg;
  cfg.interval = 3;
  cfg.delta_chain = 8;
  auto monitor = MakeMonitor(DurableOptions(dir, cfg));
  RTIC_ASSERT_OK(monitor->Recover().status());
  for (std::size_t i = 0; i < 15; ++i) {  // base(3) + deltas 6,9,12,15
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
  }
  DirCensus census = Census(dir);
  ASSERT_EQ(census.bases.size(), 1u);
  EXPECT_EQ(census.bases[0].first, 3u)
      << "the base must survive while deltas chain to it";
  EXPECT_EQ(census.deltas.size(), 4u);
  // The WAL back to the base must survive too: if any delta is later lost,
  // recovery needs base + replay of everything after seq 3.
  std::sort(census.segment_first_seqs.begin(),
            census.segment_first_seqs.end());
  ASSERT_FALSE(census.segment_first_seqs.empty());
  EXPECT_LE(census.segment_first_seqs.front(), 4u)
      << "segments covering records since the base must not be collected";
}

TEST(DurableDeltaTest, CorruptOrMissingDeltaFallsBackToBaseWithoutLoss) {
  for (const bool compress : {false, true}) {
  for (const bool remove : {false, true}) {
    SCOPED_TRACE(std::string(remove ? "delta removed" : "delta bit-flipped") +
                 (compress ? " (compressed)" : ""));
    const std::string dir = MakeTempDir() + "/wal";
    Cfg cfg;
    cfg.interval = 3;
    cfg.compression = compress;
    auto reference = MakeMonitor(MonitorOptions{});
    {
      auto monitor = MakeMonitor(DurableOptions(dir, cfg));
      RTIC_ASSERT_OK(monitor->Recover().status());
      for (std::size_t i = 0; i < 14; ++i) {
        RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
      }
    }
    for (std::size_t i = 0; i < 14; ++i) {
      RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
    }
    // Damage the newest delta (the chain tip).
    DirCensus census = Census(dir);
    ASSERT_FALSE(census.deltas.empty());
    std::sort(census.deltas.begin(), census.deltas.end());
    const std::string tip = dir + "/" + census.deltas.back().second;
    if (remove) {
      RTIC_ASSERT_OK(wal::DefaultFs()->Remove(tip));
    } else {
      std::string content = Unwrap(wal::DefaultFs()->ReadFile(tip));
      content[content.size() / 2] =
          static_cast<char>(content[content.size() / 2] ^ 0x40);
      auto file = Unwrap(
          wal::DefaultFs()->NewWritableFile(tip, /*truncate=*/true));
      RTIC_ASSERT_OK(file->Append(content));
      RTIC_ASSERT_OK(file->Close());
    }

    auto recovered = MakeMonitor(DurableOptions(dir, cfg));
    wal::RecoveryStats stats = Unwrap(recovered->Recover());
    EXPECT_EQ(recovered->transition_count(), 14u)
        << "conservative WAL retention must make a lost delta loss-free";
    EXPECT_GT(stats.replayed_batches, 0u)
        << "the fallback path replays the tail the damaged delta covered";
    EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));
  }
  }
}

TEST(DurableDeltaTest, OrphanDeltaWithMissingParentIsEvicted) {
  const std::string dir = MakeTempDir() + "/wal";
  Cfg cfg;
  cfg.interval = 3;
  auto monitor = MakeMonitor(DurableOptions(dir, cfg));
  RTIC_ASSERT_OK(monitor->Recover().status());
  for (std::size_t i = 0; i < 7; ++i) {
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
  }
  monitor.reset();
  // Forge a tip delta whose parent checkpoint never existed.
  const std::string orphan = wal::DeltaCheckpointFileName(999, 998);
  auto file = Unwrap(wal::DefaultFs()->NewWritableFile(dir + "/" + orphan,
                                                       /*truncate=*/true));
  RTIC_ASSERT_OK(file->Append(wal::EncodeRecord(999, "garbage payload")));
  RTIC_ASSERT_OK(file->Close());

  auto recovered = MakeMonitor(DurableOptions(dir, cfg));
  RTIC_ASSERT_OK(recovered->Recover().status());
  EXPECT_EQ(recovered->transition_count(), 7u);
  EXPECT_FALSE(Unwrap(wal::DefaultFs()->FileExists(dir + "/" + orphan)))
      << "the unusable orphan must be evicted, not retried forever";
}

// Forward compatibility: a checkpoint file recorded by the previous build
// (RTICMON2 payload, no kind token, never compressed) must still recover.
TEST(DurableDeltaTest, LegacyRticmon2CheckpointFileStillRecovers) {
  const std::string dir = MakeTempDir() + "/wal";
  Cfg cfg;
  cfg.interval = 4;
  cfg.delta_chain = 0;  // the legacy build wrote only full snapshots
  auto reference = MakeMonitor(MonitorOptions{});
  {
    auto monitor = MakeMonitor(DurableOptions(dir, cfg));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < 10; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
  }
  for (std::size_t i = 0; i < 10; ++i) {
    RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
  }

  // Rewrite the checkpoint file's payload to the RTICMON2 layout: same
  // body, no "base" kind token, RTICMON2 magic.
  DirCensus census = Census(dir);
  ASSERT_EQ(census.bases.size(), 1u);
  const std::string path = dir + "/" + census.bases[0].second;
  std::string content = Unwrap(wal::DefaultFs()->ReadFile(path));
  wal::ParsedRecord rec;
  std::string reason;
  ASSERT_EQ(wal::ParseRecord(content, 0, &rec, &reason),
            wal::ParseOutcome::kRecord)
      << reason;
  const std::string prefix = "8:RTICMON3 4:base ";
  ASSERT_EQ(rec.payload.substr(0, prefix.size()), prefix);
  const std::string legacy =
      "8:RTICMON2 " + rec.payload.substr(prefix.size());
  {
    auto file = Unwrap(
        wal::DefaultFs()->NewWritableFile(path, /*truncate=*/true));
    RTIC_ASSERT_OK(file->Append(wal::EncodeRecord(rec.seq, legacy)));
    RTIC_ASSERT_OK(file->Close());
  }

  // The new build — deltas and compression enabled — recovers it and
  // carries on.
  Cfg new_cfg;
  new_cfg.interval = 4;
  new_cfg.compression = true;
  auto recovered = MakeMonitor(DurableOptions(dir, new_cfg));
  RTIC_ASSERT_OK(recovered->Recover().status());
  EXPECT_EQ(recovered->transition_count(), 10u);
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));
  for (std::size_t i = 10; i < 14; ++i) {
    RTIC_ASSERT_OK(recovered->ApplyUpdate(MakeBatch(i)).status());
    RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
  }
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));
}

TEST(DurableDeltaTest, CompressionShrinksCheckpointFilesOnDisk) {
  // Same workload, compressed vs uncompressed directories; compare what
  // actually hit the disk.
  std::uint64_t plain_bytes = 0, compressed_bytes = 0;
  for (const bool compress : {false, true}) {
    const std::string dir = MakeTempDir() + "/wal";
    Cfg cfg;
    cfg.interval = 8;
    cfg.delta_chain = 0;  // compare full snapshots
    cfg.compression = compress;
    auto monitor = MakeMonitor(DurableOptions(dir, cfg));
    RTIC_ASSERT_OK(monitor->Recover().status());
    // Realistic bulk state repeats values heavily (salary bands, badge
    // ranges, amounts in cents); build 2000 distinct rows over a small
    // alphabet of full-width values so the dictionary coder sees the
    // repetition it targets.
    UpdateBatch bulk(1);
    for (std::int64_t i = 0; i < 2000; ++i) {
      bulk.Insert("Emp", T(I(1'000'100 + i % 50),
                           I(1'000'000'000 + (i / 50) * 25'000)));
    }
    RTIC_ASSERT_OK(monitor->ApplyUpdate(bulk).status());
    for (std::size_t i = 1; i < 8; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    const CheckpointStats& stats = monitor->checkpoint_stats();
    ASSERT_EQ(stats.bases, 1u);
    (compress ? compressed_bytes : plain_bytes) = stats.base_bytes;
    // The on-disk payload's shape matches the option.
    DirCensus census = Census(dir);
    ASSERT_EQ(census.bases.size(), 1u);
    std::string content = Unwrap(
        wal::DefaultFs()->ReadFile(dir + "/" + census.bases[0].second));
    wal::ParsedRecord rec;
    std::string reason;
    ASSERT_EQ(wal::ParseRecord(content, 0, &rec, &reason),
              wal::ParseOutcome::kRecord);
    EXPECT_EQ(LooksCompressed(rec.payload), compress);
  }
  EXPECT_LT(compressed_bytes * 3, plain_bytes)
      << "compression must shrink checkpoint payloads at least 3x "
      << "(compressed " << compressed_bytes << ", plain " << plain_bytes
      << ")";
}

TEST(DurableDeltaTest, CompressionFlipsInteroperateAcrossRestarts) {
  const std::string dir = MakeTempDir() + "/wal";
  auto reference = MakeMonitor(MonitorOptions{});
  std::size_t applied = 0;
  // off -> on -> off: every restart must read whatever the previous
  // configuration wrote.
  for (const bool compress : {false, true, false}) {
    Cfg cfg;
    cfg.interval = 3;
    cfg.compression = compress;
    auto monitor = MakeMonitor(DurableOptions(dir, cfg));
    RTIC_ASSERT_OK(monitor->Recover().status());
    ASSERT_EQ(monitor->transition_count(), applied);
    for (std::size_t i = 0; i < 8; ++i, ++applied) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(applied)).status());
      RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(applied)).status());
    }
    ASSERT_EQ(Unwrap(monitor->SaveState()), Unwrap(reference->SaveState()));
  }
}

// Property test: random alarm workloads, with a mid-run restart, compressed
// and uncompressed side by side — the recovered states must be
// byte-identical to each other and to an uninterrupted reference.
TEST(DurableDeltaTest, RandomWorkloadsRecoverByteIdenticallyUnderCompression) {
  for (std::uint64_t seed : {3u, 17u, 58u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    workload::AlarmParams params;
    params.length = 60;
    params.num_alarms = 6;
    params.late_prob = 0.25;
    params.seed = seed;
    workload::Workload wl = workload::MakeAlarmWorkload(params);

    auto build = [&wl](MonitorOptions options) {
      auto monitor = std::make_unique<ConstraintMonitor>(std::move(options));
      for (const auto& [name, schema] : wl.schema) {
        RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
      }
      for (const auto& [name, text] : wl.constraints) {
        RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
      }
      return monitor;
    };

    auto reference = build(MonitorOptions{});
    for (const UpdateBatch& batch : wl.batches) {
      RTIC_ASSERT_OK(reference->ApplyUpdate(batch).status());
    }

    for (const bool compress : {false, true}) {
      SCOPED_TRACE(compress ? "compressed" : "plain");
      const std::string dir = MakeTempDir() + "/wal";
      Cfg cfg;
      cfg.interval = 5;
      cfg.compression = compress;
      const std::size_t half = wl.batches.size() / 2;
      {
        auto monitor = build(DurableOptions(dir, cfg));
        RTIC_ASSERT_OK(monitor->Recover().status());
        for (std::size_t i = 0; i < half; ++i) {
          RTIC_ASSERT_OK(monitor->ApplyUpdate(wl.batches[i]).status());
        }
      }
      auto monitor = build(DurableOptions(dir, cfg));
      RTIC_ASSERT_OK(monitor->Recover().status());
      ASSERT_EQ(monitor->transition_count(), half);
      for (std::size_t i = half; i < wl.batches.size(); ++i) {
        RTIC_ASSERT_OK(monitor->ApplyUpdate(wl.batches[i]).status());
      }
      ASSERT_EQ(Unwrap(monitor->SaveState()), Unwrap(reference->SaveState()));
    }
  }
}

}  // namespace
}  // namespace rtic
