// Differential battery for the columnar anchor store (anchor_store.h).
//
// The store replaces the eager map representation (valuation -> timestamp
// vector, pruned whole every transition, current rebuilt from scratch) with
// a dictionary + arena + expiry/maturity wheel that visits only slots whose
// state can change. These tests pin the store to a reference model that
// replays the eager semantics literally:
//
//   * randomized anchor/prune/survivor-filter sequences across all three
//     pruning regimes (finite-window full pruning, expiry-only ablation,
//     unbounded upper bound) must produce identical tables, identical
//     published current relations, and identical mutation deltas — the
//     deltas drive the delta-checkpoint dirty bits, so over- OR
//     under-reporting would change RTICINCD1 bytes;
//   * the checkpoint encoding must stay byte-identical to the former
//     WriteAnchors map encoding;
//   * a store rebuilt through DecodeReplace + Rehydrate must continue
//     evolving exactly like the original (the wheel is derived state);
//   * engine-level: engines linked through a SubplanDag (a writer and a
//     reader of the same stores) and a shadow engine maintained purely
//     through delta checkpoints stay byte-identical.

#include "engines/incremental/anchor_store.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "engines/incremental/engine.h"
#include "engines/incremental/pruning.h"
#include "engines/incremental/subplan_dag.h"
#include "ra/relation.h"
#include "storage/codec.h"
#include "tests/engine_test_util.h"
#include "tests/test_util.h"
#include "tl/parser.h"

namespace rtic {
namespace {

using inc::AnchorStore;
using testing::I;
using testing::IntCols;
using testing::IntSchema;
using testing::PQRSchemas;
using testing::ScenarioStep;
using testing::T;
using testing::Unwrap;

// ---- reference model ----------------------------------------------------

// Literal replay of the pre-columnar per-transition tail: survivor-filter by
// scanning every entry, append, prune every entry, rebuild `current` from
// scratch, and detect changes by whole-structure comparison.
struct ReferenceStore {
  TimeInterval interval;
  PruningPolicy policy = PruningPolicy::kFull;
  std::vector<std::size_t> projection;  // empty + identity=true for `once`
  bool identity = true;

  std::map<Tuple, std::vector<Timestamp>> anchors;
  std::set<Tuple> current;
  bool anchors_changed = false;
  bool current_changed = false;

  bool Survives(const Tuple& val, const Relation& lhs) const {
    if (identity) return lhs.Contains(val);
    std::vector<Value> proj;
    for (std::size_t c : projection) proj.push_back(val.at(c));
    return lhs.Contains(Tuple(std::move(proj)));
  }

  void Transition(const Relation* lhs, const std::vector<Tuple>& appends,
                  Timestamp t) {
    const auto before_anchors = anchors;
    const auto before_current = current;
    if (lhs != nullptr) {
      for (auto it = anchors.begin(); it != anchors.end();) {
        if (!Survives(it->first, *lhs)) {
          it = anchors.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const Tuple& row : appends) anchors[row].push_back(t);
    current.clear();
    for (auto it = anchors.begin(); it != anchors.end();) {
      PruneTimestamps(&it->second, t, interval, policy);
      if (it->second.empty()) {
        it = anchors.erase(it);
        continue;
      }
      if (AnyInWindow(it->second, t, interval)) current.insert(it->first);
      ++it;
    }
    anchors_changed = anchors != before_anchors;
    current_changed = current != before_current;
  }

  // The former WriteAnchors encoding: map iteration is already sorted.
  void Encode(StateWriter* w) const {
    w->WriteSize(anchors.size());
    for (const auto& [val, ts] : anchors) {
      w->WriteTuple(val);
      w->WriteSize(ts.size());
      for (Timestamp x : ts) w->WriteInt(x);
    }
  }
};

std::vector<std::pair<Tuple, std::vector<Timestamp>>> AsSorted(
    const std::map<Tuple, std::vector<Timestamp>>& m) {
  return {m.begin(), m.end()};
}

std::vector<Tuple> AsSorted(const std::set<Tuple>& s) {
  return {s.begin(), s.end()};
}

struct Regime {
  const char* name;
  TimeInterval interval;
  PruningPolicy policy;
};

const Regime kRegimes[] = {
    {"full[0,8]", TimeInterval(0, 8), PruningPolicy::kFull},
    {"full[3,12]", TimeInterval(3, 12), PruningPolicy::kFull},
    {"full[5,5]", TimeInterval(5, 5), PruningPolicy::kFull},
    {"full[2,inf)", TimeInterval(2, kTimeInfinity), PruningPolicy::kFull},
    {"full[0,inf)", TimeInterval(0, kTimeInfinity), PruningPolicy::kFull},
    {"expiry[0,8]", TimeInterval(0, 8), PruningPolicy::kExpiryOnly},
    {"expiry[3,12]", TimeInterval(3, 12), PruningPolicy::kExpiryOnly},
};

enum class Mode { kOnce, kSinceIdentity, kSinceProjected };

// Drives a store and the reference model in lockstep over a random
// anchor/filter/advance sequence, checking tables, published currents,
// mutation deltas, counters, and (periodically) encoded bytes.
void RunDifferential(const Regime& regime, Mode mode, std::uint64_t seed,
                     int steps) {
  SCOPED_TRACE(std::string(regime.name) + " seed=" + std::to_string(seed));
  const bool since = mode != Mode::kOnce;
  const bool projected = mode == Mode::kSinceProjected;

  // Valuation universe: unary ints for identity modes; pairs whose second
  // component is the lhs key for the projected mode.
  std::vector<Tuple> universe;
  if (projected) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 4; ++j) universe.push_back(T(I(i), I(j)));
    }
  } else {
    for (int i = 0; i < 8; ++i) universe.push_back(T(I(i)));
  }

  AnchorStore store;
  store.Configure(regime.interval, regime.policy);
  ReferenceStore ref;
  ref.interval = regime.interval;
  ref.policy = regime.policy;
  if (since) {
    std::vector<std::size_t> proj;
    if (projected) proj = {1};
    else proj = {0};
    store.ConfigureSince(proj, /*identity=*/!projected);
    ref.projection = proj;
    ref.identity = !projected;
  }

  Relation current(IntCols(projected ? std::vector<std::string>{"a", "b"}
                                     : std::vector<std::string>{"a"}));
  auto make_lhs = [&](Rng* r) {
    Relation lhs(IntCols({"k"}));
    for (int k = 0; k < (projected ? 4 : 8); ++k) {
      if (r->Bernoulli(0.7)) lhs.InsertUnchecked(T(I(k)));
    }
    return lhs;
  };

  Rng rng(seed);
  Relation lhs = make_lhs(&rng);
  Timestamp t = 0;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    // Occasional large jumps force multi-bucket wheel catch-up.
    t += 1 + (rng.Uniform(10) == 0 ? 15 + static_cast<Timestamp>(rng.Uniform(20))
                                   : static_cast<Timestamp>(rng.Uniform(3)));
    std::vector<Tuple> appends;
    for (const Tuple& v : universe) {
      if (rng.Bernoulli(0.3)) appends.push_back(v);
    }
    if (since) {
      // Keeping the same Relation object (shared row storage) exercises the
      // survivor-filter identity fast path; rebuilding forces a full scan.
      if (rng.Bernoulli(0.5)) lhs = make_lhs(&rng);
      store.FilterSurvivors(lhs, &current);
    }
    for (const Tuple& v : appends) store.Append(v, t);
    AnchorStore::Delta delta = store.Advance(t, &current);
    ref.Transition(since ? &lhs : nullptr, appends, t);

    ASSERT_EQ(store.Snapshot(), AsSorted(ref.anchors));
    ASSERT_EQ(current.SortedRows(), AsSorted(ref.current));
    ASSERT_EQ(store.valuations(), ref.anchors.size());
    std::size_t want_ts = 0;
    for (const auto& [val, ts] : ref.anchors) want_ts += ts.size();
    ASSERT_EQ(store.timestamps(), want_ts);
    // The mutation-driven delta must agree with whole-state comparison —
    // these bits choose what a delta checkpoint serializes.
    ASSERT_EQ(delta.anchors_changed, ref.anchors_changed);
    ASSERT_EQ(delta.current_changed, ref.current_changed);

    if (step % 7 == 0) {
      StateWriter got, want;
      store.EncodeSorted(&got);
      ref.Encode(&want);
      ASSERT_EQ(got.str(), want.str());
    }
  }
}

TEST(AnchorStoreDifferentialTest, OnceMatchesEagerReference) {
  for (const Regime& regime : kRegimes) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      RunDifferential(regime, Mode::kOnce, seed, 120);
    }
  }
}

TEST(AnchorStoreDifferentialTest, SinceIdentityMatchesEagerReference) {
  for (const Regime& regime : kRegimes) {
    for (std::uint64_t seed : {4u, 5u, 6u}) {
      RunDifferential(regime, Mode::kSinceIdentity, seed, 120);
    }
  }
}

TEST(AnchorStoreDifferentialTest, SinceProjectedMatchesEagerReference) {
  for (const Regime& regime : kRegimes) {
    for (std::uint64_t seed : {7u, 8u}) {
      RunDifferential(regime, Mode::kSinceProjected, seed, 120);
    }
  }
}

// A decoded + rehydrated store is indistinguishable from the original from
// then on: the wheel and membership flags are fully derived state.
TEST(AnchorStoreDifferentialTest, DecodedStoreContinuesIdentically) {
  for (const Regime& regime : kRegimes) {
    SCOPED_TRACE(regime.name);
    AnchorStore store;
    store.Configure(regime.interval, regime.policy);
    ReferenceStore ref;
    ref.interval = regime.interval;
    ref.policy = regime.policy;
    Relation current(IntCols({"a"}));

    Rng rng(11);
    Timestamp t = 0;
    auto drive = [&](AnchorStore* s, Relation* cur, Timestamp now,
                     const std::vector<Tuple>& appends) {
      for (const Tuple& v : appends) s->Append(v, now);
      return s->Advance(now, cur);
    };
    std::vector<Tuple> universe;
    for (int i = 0; i < 8; ++i) universe.push_back(T(I(i)));

    for (int step = 0; step < 40; ++step) {
      t += 1 + static_cast<Timestamp>(rng.Uniform(4));
      std::vector<Tuple> appends;
      for (const Tuple& v : universe) {
        if (rng.Bernoulli(0.3)) appends.push_back(v);
      }
      drive(&store, &current, t, appends);
      ref.Transition(nullptr, appends, t);
    }

    // Clone through the checkpoint codec.
    StateWriter w;
    store.EncodeSorted(&w);
    const std::string bytes = w.str();
    AnchorStore restored;
    restored.Configure(regime.interval, regime.policy);
    StateReader r(bytes);
    RTIC_ASSERT_OK(restored.DecodeReplace(&r));
    EXPECT_TRUE(r.AtEnd());
    Relation restored_current(IntCols({"a"}));
    for (const Tuple& row : ref.current) {
      restored_current.InsertUnchecked(row);
    }
    restored.Rehydrate(t, restored_current);
    ASSERT_EQ(restored.Snapshot(), store.Snapshot());

    // Both evolve identically afterwards — including long quiet gaps that
    // only the (rebuilt) wheel can handle correctly.
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("post-restore step=" + std::to_string(step));
      t += 1 + (step % 9 == 0 ? 12 : static_cast<Timestamp>(rng.Uniform(4)));
      std::vector<Tuple> appends;
      for (const Tuple& v : universe) {
        if (rng.Bernoulli(0.2)) appends.push_back(v);
      }
      AnchorStore::Delta d1 = drive(&store, &current, t, appends);
      AnchorStore::Delta d2 =
          drive(&restored, &restored_current, t, appends);
      ref.Transition(nullptr, appends, t);
      ASSERT_EQ(store.Snapshot(), AsSorted(ref.anchors));
      ASSERT_EQ(restored.Snapshot(), store.Snapshot());
      ASSERT_EQ(restored_current.SortedRows(), current.SortedRows());
      ASSERT_EQ(d1.anchors_changed, d2.anchors_changed);
      ASSERT_EQ(d1.current_changed, d2.current_changed);
    }
  }
}

TEST(AnchorStoreCodecTest, RejectsDuplicateValuations) {
  StateWriter w;
  w.WriteSize(2);
  w.WriteTuple(T(I(1)));
  w.WriteSize(1);
  w.WriteInt(5);
  w.WriteTuple(T(I(1)));
  w.WriteSize(1);
  w.WriteInt(6);
  AnchorStore store;
  store.Configure(TimeInterval(0, 8), PruningPolicy::kFull);
  StateReader r(w.str());
  Status s = store.DecodeReplace(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate checkpoint anchor valuation"),
            std::string::npos);
}

TEST(AnchorStoreCodecTest, RejectsNonAscendingTimestamps) {
  StateWriter w;
  w.WriteSize(1);
  w.WriteTuple(T(I(1)));
  w.WriteSize(2);
  w.WriteInt(5);
  w.WriteInt(5);
  AnchorStore store;
  store.Configure(TimeInterval(0, 8), PruningPolicy::kFull);
  StateReader r(w.str());
  Status s = store.DecodeReplace(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checkpoint anchor timestamps not ascending"),
            std::string::npos);
}

// ---- Relation::Erase (new primitive the store's publication relies on) --

TEST(RelationEraseTest, MaintainsMembershipAndIndexes) {
  Relation rel(IntCols({"a", "b"}));
  rel.InsertUnchecked(T(I(1), I(1)));
  rel.InsertUnchecked(T(I(1), I(2)));
  rel.InsertUnchecked(T(I(2), I(1)));
  // Build an index before erasing so index maintenance is observable.
  (void)rel.GetIndex({0});

  EXPECT_TRUE(rel.Erase(T(I(1), I(1))));
  EXPECT_FALSE(rel.Erase(T(I(1), I(1))));  // already gone
  EXPECT_FALSE(rel.Contains(T(I(1), I(1))));
  EXPECT_TRUE(rel.Contains(T(I(1), I(2))));
  EXPECT_EQ(rel.size(), 2u);

  const Relation::Index& idx = rel.GetIndex({0});
  const std::size_t h1 = HashTupleKey(T(I(1)), {0});
  auto it = idx.buckets.find(h1);
  // The erased row's pointer must be gone from its bucket.
  std::size_t live = 0;
  if (it != idx.buckets.end()) {
    for (const Tuple* row : it->second) {
      EXPECT_NE(*row, T(I(1), I(1)));
      ++live;
    }
  }
  EXPECT_EQ(live, 1u);  // (1,2) remains probeable

  // Copy-on-write: erasing from a copy must not disturb the original.
  Relation copy = rel;
  EXPECT_TRUE(copy.Erase(T(I(2), I(1))));
  EXPECT_TRUE(rel.Contains(T(I(2), I(1))));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(copy.size(), 1u);

  // Erasing the last row of a bucket removes the bucket entirely.
  EXPECT_TRUE(copy.Erase(T(I(1), I(2))));
  EXPECT_TRUE(copy.empty());
}

// ---- engine level -------------------------------------------------------

tl::PredicateCatalog PQRCatalog() {
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : PQRSchemas()) catalog[name] = schema;
  return catalog;
}

Database RandomPQState(Rng* rng, double p) {
  Database db = Unwrap(testing::BuildState(PQRSchemas(), ScenarioStep{}));
  Table* pt = Unwrap(db.GetMutableTable("P"));
  Table* qt = Unwrap(db.GetMutableTable("Q"));
  for (int v = 0; v < 6; ++v) {
    if (rng->Bernoulli(p)) (void)Unwrap(pt->Insert(T(I(v))));
    if (rng->Bernoulli(p)) (void)Unwrap(qt->Insert(T(I(v))));
  }
  return db;
}

// Engines linked through a SubplanDag must stay verdict- and
// checkpoint-byte-identical to a standalone engine; the reader reuses the
// writer's columnar stores instead of maintaining its own.
TEST(AnchorStoreEngineTest, SharedSubplansStayByteIdenticalToUnshared) {
  const std::string text = "forall a: P(a) implies P(a) since[1, 6] Q(a)";
  tl::PredicateCatalog catalog = PQRCatalog();
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));

  auto writer = Unwrap(IncrementalEngine::Create(*formula, catalog));
  auto reader = Unwrap(IncrementalEngine::Create(*formula, catalog));
  inc::SubplanDag dag;
  dag.Add(writer.get(), 0);
  dag.Add(reader.get(), 0);
  ASSERT_GT(reader->SharedSubplans(), 0u);
  // The writer writes the domain tracker, the since node and the verdict;
  // the reader only reads them.
  ASSERT_EQ(writer->WrittenObjects(), writer->network().nodes.size() + 2);
  ASSERT_EQ(reader->WrittenObjects(), 0u);
  auto solo = Unwrap(IncrementalEngine::Create(*formula, catalog));

  Rng rng(21);
  Timestamp t = 0;
  for (int step = 0; step < 50; ++step) {
    t += 1 + static_cast<Timestamp>(rng.Uniform(3));
    Database db = RandomPQState(&rng, 0.4);
    const bool v_writer = Unwrap(writer->OnTransition(db, t));
    const bool v_reader = Unwrap(reader->OnTransition(db, t));
    const bool v_solo = Unwrap(solo->OnTransition(db, t));
    ASSERT_EQ(v_writer, v_solo) << "step " << step;
    ASSERT_EQ(v_reader, v_solo) << "step " << step;
    if (step % 10 == 0) {
      const std::string want = Unwrap(solo->SaveState());
      ASSERT_EQ(Unwrap(writer->SaveState()), want) << "step " << step;
      ASSERT_EQ(Unwrap(reader->SaveState()), want) << "step " << step;
    }
  }
}

// Regression for the delta-checkpoint contract: a temporal node whose
// anchors and current relation did not change since the last save must not
// be serialized — and with an unbounded upper bound the store must
// recognize re-appeared anchors as no-ops (the earliest anchor dominates).
TEST(AnchorStoreEngineTest, SettledNodesStayOutOfDeltas) {
  const std::string text = "forall a: P(a) implies once[0, inf] Q(a)";
  tl::PredicateCatalog catalog = PQRCatalog();
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));
  auto engine = Unwrap(IncrementalEngine::Create(*formula, catalog));
  engine->BeginDeltaTracking();

  Database db = Unwrap(testing::BuildState(
      PQRSchemas(), ScenarioStep{0, {{"Q", {T(I(1))}}, {"P", {T(I(1))}}}}));
  (void)Unwrap(engine->OnTransition(db, 1));
  (void)Unwrap(engine->SaveStateDelta());
  engine->MarkStateSaved();

  // Same state re-applied: Q(1)'s anchor is dominated by the existing one,
  // so the once-node is untouched; only the clock advances.
  (void)Unwrap(engine->OnTransition(db, 2));
  const std::string quiet_a = Unwrap(engine->SaveStateDelta());
  engine->MarkStateSaved();
  (void)Unwrap(engine->OnTransition(db, 3));
  const std::string quiet_b = Unwrap(engine->SaveStateDelta());
  engine->MarkStateSaved();
  // Two quiet deltas differ only in the clock — identical size means no
  // node payloads were written.
  EXPECT_EQ(quiet_a.size(), quiet_b.size());

  // A genuinely new anchor must grow the delta.
  Database db2 = Unwrap(testing::BuildState(
      PQRSchemas(),
      ScenarioStep{0, {{"Q", {T(I(1)), T(I(2))}}, {"P", {T(I(1))}}}}));
  (void)Unwrap(engine->OnTransition(db2, 4));
  const std::string busy = Unwrap(engine->SaveStateDelta());
  EXPECT_GT(busy.size(), quiet_b.size());
}

// Shadow engine maintained purely through deltas, over temporal constraints
// whose membership flips on QUIET transitions (maturity crossings with no
// anchor mutation: the flags&1-only restore path that must keep the wheel).
// After the delta chain, the shadow continues live and must stay
// byte-identical — this exercises the restored expiry wheel end to end.
TEST(AnchorStoreEngineTest, TemporalShadowTracksViaDeltasAndContinues) {
  const char* kTexts[] = {
      "forall a: P(a) implies once[3, 10] Q(a)",
      "forall a: P(a) implies P(a) since[2, 9] Q(a)",
      "forall a: P(a) implies once[2, inf] Q(a)",
  };
  for (const char* text : kTexts) {
    SCOPED_TRACE(text);
    tl::PredicateCatalog catalog = PQRCatalog();
    tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));
    auto primary = Unwrap(IncrementalEngine::Create(*formula, catalog));
    auto shadow = Unwrap(IncrementalEngine::Create(*formula, catalog));
    primary->BeginDeltaTracking();
    RTIC_ASSERT_OK(shadow->LoadState(Unwrap(primary->SaveState())));
    primary->MarkStateSaved();

    Rng rng(31);
    Timestamp t = 0;
    for (int step = 1; step <= 45; ++step) {
      t += 1 + static_cast<Timestamp>(rng.Uniform(4));
      // Frequent empty updates create quiet maturity/expiry transitions.
      Database db = RandomPQState(&rng, rng.Bernoulli(0.4) ? 0.0 : 0.4);
      (void)Unwrap(primary->OnTransition(db, t));
      if (step % 5 == 0) {
        std::string delta = Unwrap(primary->SaveStateDelta());
        primary->MarkStateSaved();
        RTIC_ASSERT_OK(shadow->LoadStateDelta(delta));
        ASSERT_EQ(Unwrap(shadow->SaveState()), Unwrap(primary->SaveState()))
            << "shadow diverged at step " << step;
      }
    }
    // Continue both live: the shadow's rebuilt stores (wheel included) must
    // behave exactly like the primary's.
    for (int step = 0; step < 20; ++step) {
      t += 1 + (step % 6 == 0 ? 11 : static_cast<Timestamp>(rng.Uniform(3)));
      Database db = RandomPQState(&rng, 0.35);
      const bool vp = Unwrap(primary->OnTransition(db, t));
      const bool vs = Unwrap(shadow->OnTransition(db, t));
      ASSERT_EQ(vp, vs) << "post-chain step " << step;
    }
    EXPECT_EQ(Unwrap(shadow->SaveState()), Unwrap(primary->SaveState()));
  }
}

// Randomized verdict equivalence against the naive (full-history) engine
// across all anchor regimes, both pruning policies.
TEST(AnchorStoreEngineTest, MatchesNaiveEngineOnRandomHistories) {
  const char* kTexts[] = {
      "forall a: P(a) implies once[0, 6] Q(a)",
      "forall a: P(a) implies once[3, 10] Q(a)",
      "forall a: P(a) implies once[2, inf] Q(a)",
      "forall a: P(a) implies P(a) since[0, 8] Q(a)",
      "forall a: P(a) implies P(a) since[2, 9] Q(a)",
      "forall a: P(a) implies P(a) since[1, inf] Q(a)",
  };
  for (const char* text : kTexts) {
    for (PruningPolicy policy :
         {PruningPolicy::kFull, PruningPolicy::kExpiryOnly}) {
      SCOPED_TRACE(std::string(text) +
                   (policy == PruningPolicy::kFull ? " full" : " expiry"));
      Rng rng(41);
      std::vector<ScenarioStep> steps;
      Timestamp t = 0;
      for (int i = 0; i < 40; ++i) {
        t += 1 + static_cast<Timestamp>(rng.Uniform(4));
        ScenarioStep step;
        step.t = t;
        for (int v = 0; v < 5; ++v) {
          if (rng.Bernoulli(0.35)) step.tables["P"].push_back(T(I(v)));
          if (rng.Bernoulli(0.35)) step.tables["Q"].push_back(T(I(v)));
        }
        steps.push_back(std::move(step));
      }
      std::vector<bool> naive = Unwrap(testing::RunScenario(
          EngineKind::kNaive, text, PQRSchemas(), steps, policy));
      std::vector<bool> incremental = Unwrap(testing::RunScenario(
          EngineKind::kIncremental, text, PQRSchemas(), steps, policy));
      EXPECT_EQ(incremental, naive);
    }
  }
}

// Full checkpoint round-trip over a history long enough for the arena to
// compact and slots to be freed/reallocated: restored engine continues
// byte-identically.
TEST(AnchorStoreEngineTest, CheckpointRoundTripAfterChurn) {
  const std::string text = "forall a: P(a) implies once[1, 7] Q(a)";
  tl::PredicateCatalog catalog = PQRCatalog();
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));
  auto engine = Unwrap(IncrementalEngine::Create(*formula, catalog));

  Rng rng(51);
  Timestamp t = 0;
  for (int step = 0; step < 60; ++step) {
    t += 1 + static_cast<Timestamp>(rng.Uniform(3));
    Database db = RandomPQState(&rng, 0.5);
    (void)Unwrap(engine->OnTransition(db, t));
  }
  const std::string snapshot = Unwrap(engine->SaveState());
  auto restored = Unwrap(IncrementalEngine::Create(*formula, catalog));
  RTIC_ASSERT_OK(restored->LoadState(snapshot));
  ASSERT_EQ(Unwrap(restored->SaveState()), snapshot);
  for (int step = 0; step < 25; ++step) {
    t += 1 + static_cast<Timestamp>(rng.Uniform(3));
    Database db = RandomPQState(&rng, 0.5);
    const bool a = Unwrap(engine->OnTransition(db, t));
    const bool b = Unwrap(restored->OnTransition(db, t));
    ASSERT_EQ(a, b) << "step " << step;
  }
  EXPECT_EQ(Unwrap(restored->SaveState()), Unwrap(engine->SaveState()));
}

// The new observability counters: aux_valuations/aux_anchors reflect the
// stores' live content and settle to the pruned sizes.
TEST(AnchorStoreEngineTest, AuxCountersTrackLiveState) {
  const std::string text = "forall a: P(a) implies once[0, 4] Q(a)";
  tl::PredicateCatalog catalog = PQRCatalog();
  tl::FormulaPtr formula = Unwrap(tl::ParseFormula(text));
  auto engine = Unwrap(IncrementalEngine::Create(*formula, catalog));

  Database db = Unwrap(testing::BuildState(
      PQRSchemas(),
      ScenarioStep{0, {{"Q", {T(I(1)), T(I(2)), T(I(3))}}}}));
  (void)Unwrap(engine->OnTransition(db, 1));
  EXPECT_EQ(engine->AuxValuationCount(), 3u);
  EXPECT_EQ(engine->AuxTimestampCount(), 3u);

  // With lo = 0, dominance keeps one anchor per valuation.
  (void)Unwrap(engine->OnTransition(db, 2));
  EXPECT_EQ(engine->AuxValuationCount(), 3u);
  EXPECT_EQ(engine->AuxTimestampCount(), 3u);

  // Everything expires once the window has passed.
  Database empty = Unwrap(testing::BuildState(PQRSchemas(), ScenarioStep{}));
  (void)Unwrap(engine->OnTransition(empty, 10));
  EXPECT_EQ(engine->AuxValuationCount(), 0u);
  EXPECT_EQ(engine->AuxTimestampCount(), 0u);
}

}  // namespace
}  // namespace rtic
