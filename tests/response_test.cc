// Tests for bounded-future response constraints: shape validation, the
// obligation life cycle (trigger / discharge / expire), delayed-verdict
// attribution, and a randomized comparison against an offline reference
// checker that sees the whole history at once.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "engines/response/response_engine.h"
#include "monitor/monitor.h"
#include "tests/engine_test_util.h"

namespace rtic {
namespace {

using testing::BuildState;
using testing::I;
using testing::IntSchema;
using testing::PQRSchemas;
using testing::ScenarioStep;
using testing::T;
using testing::Unwrap;

tl::PredicateCatalog PQRCatalog() {
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : PQRSchemas()) catalog[name] = schema;
  return catalog;
}

std::unique_ptr<ResponseEngine> MakeResponse(const std::string& text) {
  tl::FormulaPtr f = Unwrap(tl::ParseFormula(text));
  return Unwrap(ResponseEngine::Create(*f, PQRCatalog()));
}

// ---- shape validation --------------------------------------------------------

TEST(ResponseShapeTest, AcceptsCanonicalShape) {
  EXPECT_TRUE(MakeResponse(
                  "forall a: P(a) implies eventually[0, 10] Q(a)") != nullptr);
}

TEST(ResponseShapeTest, LooksLikeDetector) {
  tl::FormulaPtr yes = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies eventually[0, 5] Q(a)"));
  tl::FormulaPtr no1 = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies once[0, 5] Q(a)"));
  tl::FormulaPtr no2 = Unwrap(tl::ParseFormula("forall a: P(a) implies Q(a)"));
  EXPECT_TRUE(ResponseEngine::LooksLikeResponseConstraint(*yes));
  EXPECT_FALSE(ResponseEngine::LooksLikeResponseConstraint(*no1));
  EXPECT_FALSE(ResponseEngine::LooksLikeResponseConstraint(*no2));
}

TEST(ResponseShapeTest, RejectsUnboundedWindow) {
  tl::FormulaPtr f = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies eventually[0, inf] Q(a)"));
  auto r = ResponseEngine::Create(*f, PQRCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bounded"), std::string::npos);
}

TEST(ResponseShapeTest, RejectsWrongShape) {
  for (const char* text : {
           "forall a: P(a) and eventually[0, 5] Q(a)",
           "forall a: eventually[0, 5] Q(a)",
           "forall a: P(a) implies Q(a)",
       }) {
    tl::FormulaPtr f = Unwrap(tl::ParseFormula(text));
    EXPECT_FALSE(ResponseEngine::Create(*f, PQRCatalog()).ok()) << text;
  }
}

TEST(ResponseShapeTest, RejectsTemporalBodies) {
  tl::FormulaPtr f1 = Unwrap(tl::ParseFormula(
      "forall a: once P(a) implies eventually[0, 5] Q(a)"));
  EXPECT_EQ(ResponseEngine::Create(*f1, PQRCatalog()).status().code(),
            StatusCode::kUnimplemented);
  tl::FormulaPtr f2 = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies eventually[0, 5] once Q(a)"));
  EXPECT_EQ(ResponseEngine::Create(*f2, PQRCatalog()).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ResponseShapeTest, RejectsUnboundResponseVariables) {
  tl::FormulaPtr f = Unwrap(tl::ParseFormula(
      "forall a, b: P(a) implies eventually[0, 5] R(a, b)"));
  auto r = ResponseEngine::Create(*f, PQRCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not bound by the trigger"),
            std::string::npos);
}

TEST(ResponseShapeTest, PastEnginesRejectEventually) {
  tl::FormulaPtr f = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies eventually[0, 5] Q(a)"));
  EXPECT_FALSE(IncrementalEngine::Create(*f, PQRCatalog()).ok());
}

// ---- obligation life cycle ---------------------------------------------------------

TEST(ResponseEngineTest, DischargedWithinWindow) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 5] Q(a)");
  const auto schemas = PQRSchemas();
  // Trigger at t=1; response at t=4 (distance 3): no violation ever.
  std::vector<ScenarioStep> steps{
      {1, {{"P", {T(I(7))}}}}, {4, {{"Q", {T(I(7))}}}}, {10, {}}, {20, {}}};
  for (const ScenarioStep& step : steps) {
    Database state = Unwrap(BuildState(schemas, step));
    EXPECT_TRUE(Unwrap(engine->OnTransition(state, step.t)))
        << "at t=" << step.t;
  }
  EXPECT_EQ(engine->PendingObligations(), 0u);
}

TEST(ResponseEngineTest, ExpiryAttributedToWindowCloseState) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 5] Q(a)");
  const auto schemas = PQRSchemas();
  // Trigger at t=1, never answered. The window [1, 6] closes at the first
  // state with distance >= 5: t=7.
  std::vector<std::pair<Timestamp, bool>> script{
      {1, true}, {3, true}, {7, false}, {9, true}};
  for (auto [t, want] : script) {
    ScenarioStep step{t, {}};
    if (t == 1) step.tables["P"] = {T(I(7))};
    Database state = Unwrap(BuildState(schemas, step));
    EXPECT_EQ(Unwrap(engine->OnTransition(state, t)), want) << "t=" << t;
    if (!want) {
      Relation c = Unwrap(engine->CurrentCounterexamples(state));
      EXPECT_TRUE(c.Contains(T(I(7))));
      ASSERT_EQ(engine->LastExpired().size(), 1u);
      EXPECT_EQ(engine->LastExpired()[0].trigger_time, 1);
    }
  }
}

TEST(ResponseEngineTest, ImmediateResponseDischargesAtZeroDistance) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 5] Q(a)");
  const auto schemas = PQRSchemas();
  ScenarioStep step{1, {{"P", {T(I(2))}}, {"Q", {T(I(2))}}}};
  Database state = Unwrap(BuildState(schemas, step));
  EXPECT_TRUE(Unwrap(engine->OnTransition(state, 1)));
  EXPECT_EQ(engine->PendingObligations(), 0u);
}

TEST(ResponseEngineTest, EarlyResponseDoesNotCountWhenLoPositive) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[2, 5] Q(a)");
  const auto schemas = PQRSchemas();
  // Response at distance 1 (< lo): does not discharge; window closes unmet.
  std::vector<std::pair<ScenarioStep, bool>> script{
      {{1, {{"P", {T(I(3))}}}}, true},
      {{2, {{"Q", {T(I(3))}}}}, true},   // too early
      {{8, {}}, false},                  // distance 7 >= 5: expired
  };
  for (auto& [step, want] : script) {
    Database state = Unwrap(BuildState(schemas, step));
    EXPECT_EQ(Unwrap(engine->OnTransition(state, step.t)), want)
        << "t=" << step.t;
  }
}

TEST(ResponseEngineTest, PerEntityObligations) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 4] Q(a)");
  const auto schemas = PQRSchemas();
  // Entities 1 and 2 triggered at t=1; only 1 answered.
  std::vector<ScenarioStep> steps{
      {1, {{"P", {T(I(1)), T(I(2))}}}},
      {3, {{"Q", {T(I(1))}}}},
      {6, {}},  // distance 5 >= 4: entity 2 expires
  };
  Database s0 = Unwrap(BuildState(schemas, steps[0]));
  EXPECT_TRUE(Unwrap(engine->OnTransition(s0, 1)));
  EXPECT_EQ(engine->PendingObligations(), 2u);
  Database s1 = Unwrap(BuildState(schemas, steps[1]));
  EXPECT_TRUE(Unwrap(engine->OnTransition(s1, 3)));
  EXPECT_EQ(engine->PendingObligations(), 1u);
  Database s2 = Unwrap(BuildState(schemas, steps[2]));
  EXPECT_FALSE(Unwrap(engine->OnTransition(s2, 6)));
  Relation c = Unwrap(engine->CurrentCounterexamples(s2));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.Contains(T(I(2))));
}

TEST(ResponseEngineTest, RepeatedTriggersAreIndependentObligations) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 3] Q(a)");
  const auto schemas = PQRSchemas();
  // Trigger at 1 and 3; a response at 4 is within both windows ([1,4] and
  // [3,6]): both discharged at once.
  for (auto [t, p, q] : {std::tuple<Timestamp, bool, bool>{1, true, false},
                         {3, true, false},
                         {4, false, true},
                         {10, false, false}}) {
    ScenarioStep step{t, {}};
    if (p) step.tables["P"] = {T(I(5))};
    if (q) step.tables["Q"] = {T(I(5))};
    Database state = Unwrap(BuildState(schemas, step));
    EXPECT_TRUE(Unwrap(engine->OnTransition(state, t))) << "t=" << t;
  }
  EXPECT_EQ(engine->PendingObligations(), 0u);
}

TEST(ResponseEngineTest, ObligationSpaceIsBounded) {
  auto engine = MakeResponse("forall a: P(a) implies eventually[0, 5] Q(a)");
  const auto schemas = PQRSchemas();
  // P(0..2) triggers at every state, Q answers every state: discharged
  // immediately; pending stays 0 regardless of history length.
  for (Timestamp t = 1; t <= 300; ++t) {
    ScenarioStep step{t, {{"P", {T(I(0)), T(I(1)), T(I(2))}},
                          {"Q", {T(I(0)), T(I(1)), T(I(2))}}}};
    Database state = Unwrap(BuildState(schemas, step));
    (void)Unwrap(engine->OnTransition(state, t));
    EXPECT_LE(engine->StorageRows(), 3u * 6u);
  }
}

// ---- monitor integration ---------------------------------------------------------

TEST(ResponseMonitorTest, RoutedAutomatically) {
  ConstraintMonitor monitor;  // engine kind irrelevant for response
  RTIC_ASSERT_OK(monitor.CreateTable("Raise", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.CreateTable("Ack", IntSchema({"a"})));
  RTIC_ASSERT_OK(monitor.RegisterConstraint(
      "respond", "forall a: Raise(a) implies eventually[0, 10] Ack(a)"));

  UpdateBatch raise(1);
  raise.Insert("Raise", T(I(42)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(raise)).empty());

  UpdateBatch clear(2);
  clear.Delete("Raise", T(I(42)));
  EXPECT_TRUE(Unwrap(monitor.ApplyUpdate(clear)).empty());

  EXPECT_TRUE(Unwrap(monitor.Tick(10)).empty());  // distance 9 < 10
  std::vector<Violation> v = Unwrap(monitor.Tick(11));  // distance 10: closed
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].timestamp, 11);
  EXPECT_EQ(v[0].witnesses[0], T(I(42)));
}

// ---- randomized comparison with an offline reference -------------------------------

/// Offline reference: with the whole history known, obligation (ν, i) is
/// met iff some state j >= i has t_j - t_i in [a, b] and response(ν)@j.
/// An unmet obligation is reported at the first state k with
/// t_k - t_i >= b. Returns the set of (report_state_index, entity).
std::set<std::pair<std::size_t, std::int64_t>> OfflineExpected(
    const std::vector<ScenarioStep>& steps, Timestamp lo, Timestamp hi) {
  std::set<std::pair<std::size_t, std::int64_t>> out;
  auto holds = [&](std::size_t j, const char* table, std::int64_t a) {
    auto it = steps[j].tables.find(table);
    if (it == steps[j].tables.end()) return false;
    for (const Tuple& row : it->second) {
      if (row.at(0).AsInt64() == a) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    for (std::int64_t a = 0; a <= 2; ++a) {
      if (!holds(i, "P", a)) continue;
      bool met = false;
      for (std::size_t j = i; j < steps.size(); ++j) {
        Timestamp d = steps[j].t - steps[i].t;
        if (d > hi) break;
        if (d >= lo && holds(j, "Q", a)) {
          met = true;
          break;
        }
      }
      if (met) continue;
      for (std::size_t k = i; k < steps.size(); ++k) {
        if (steps[k].t - steps[i].t >= hi) {
          out.emplace(k, a);
          break;
        }
      }
      // If the history ends before the window closes, the obligation is
      // still open: not reported (matches the online engine).
    }
  }
  return out;
}

class ResponseRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseRandomTest, OnlineMatchesOfflineReference) {
  Rng rng(GetParam());
  const Timestamp lo = rng.UniformInt(0, 2);
  const Timestamp hi = lo + rng.UniformInt(1, 6);
  std::string text = "forall a: P(a) implies eventually[" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "] Q(a)";
  auto engine = MakeResponse(text);
  const auto schemas = PQRSchemas();

  std::vector<ScenarioStep> steps;
  Timestamp t = 0;
  for (int i = 0; i < 30; ++i) {
    t += rng.UniformInt(1, 3);
    ScenarioStep step{t, {}};
    for (std::int64_t a = 0; a <= 2; ++a) {
      if (rng.Bernoulli(0.3)) step.tables["P"].push_back(T(I(a)));
      if (rng.Bernoulli(0.3)) step.tables["Q"].push_back(T(I(a)));
    }
    steps.push_back(std::move(step));
  }

  // The same stream also runs through an engine that a fresh engine
  // replaces every `every` states, restored from its SaveState: it must
  // match the uninterrupted engine at every state.
  const std::size_t every = 1 + GetParam() % 5;
  auto restored = MakeResponse(text);

  std::set<std::pair<std::size_t, std::int64_t>> got;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    Database state = Unwrap(BuildState(schemas, steps[k]));
    bool ok = Unwrap(engine->OnTransition(state, steps[k].t));
    if (!ok) {
      for (const auto& e : engine->LastExpired()) {
        got.emplace(k, e.valuation.at(0).AsInt64());
      }
    } else {
      EXPECT_TRUE(engine->LastExpired().empty());
    }

    if (k > 0 && k % every == 0) {
      const std::string saved = Unwrap(restored->SaveState());
      restored = MakeResponse(text);
      RTIC_ASSERT_OK(restored->LoadState(saved));
    }
    EXPECT_EQ(Unwrap(restored->OnTransition(state, steps[k].t)), ok)
        << text << " at state " << k << ", restored every " << every;
    ASSERT_EQ(restored->LastExpired().size(), engine->LastExpired().size());
    for (std::size_t i = 0; i < engine->LastExpired().size(); ++i) {
      EXPECT_EQ(restored->LastExpired()[i].valuation,
                engine->LastExpired()[i].valuation);
      EXPECT_EQ(restored->LastExpired()[i].trigger_time,
                engine->LastExpired()[i].trigger_time);
    }
    EXPECT_EQ(restored->PendingObligations(), engine->PendingObligations());
  }
  EXPECT_EQ(got, OfflineExpected(steps, lo, hi)) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseRandomTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace rtic
