// Soundness of the static domain analysis (tl/domain_safety.h), fuzzed over
// seeded random closed constraints (tests/formula_gen.h) and random delta
// histories. For every constraint the analysis calls domain-free:
//   * no evaluation an engine makes over its own tree — the verdict, every
//     temporal node's body, the counterexamples; a response engine's trigger
//     and response — sets EvalScratch::domain_consulted;
//   * the incremental, active and response engines keep no domain tracker,
//     so an evaluation of theirs that reached the domain would fail with
//     Status::Internal: every transition and every counterexample
//     extraction succeeds, and the past-only engines report the naive
//     engine's verdicts and counterexamples (its trackers are always
//     maintained).
// Constraints that read the domain run through the engines the same way, as
// a check that their trackers are still maintained. Every assertion message
// carries the seed.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engines/response/response_engine.h"
#include "tests/engine_test_util.h"
#include "tests/formula_gen.h"
#include "tl/normalizer.h"

namespace rtic {
namespace {

using testing::ConsultsDomain;
using testing::EngineEvaluationsConsultDomain;
using testing::FormulaGen;
using testing::I;
using testing::PQRSchemas;
using testing::RandomConstraint;
using testing::T;
using testing::Unwrap;
using tl::Formula;
using tl::FormulaPtr;

constexpr int kSteps = 12;

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

bool HasTemporal(const Formula& f) {
  if (tl::IsTemporal(f.kind())) return true;
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (HasTemporal(f.child(i))) return true;
  }
  return false;
}

/// A random present-state formula with free variables exactly `vars`.
FormulaPtr PresentState(FormulaGen* gen, const std::vector<std::string>& vars) {
  FormulaPtr f = gen->Gen(vars, 2);
  while (HasTemporal(*f)) f = gen->Gen(vars, 2);
  return f;
}

/// `forall x: trigger implies eventually[lo, hi] response`.
FormulaPtr RandomResponseConstraint(Rng* rng) {
  FormulaGen gen(rng);
  FormulaPtr trigger = PresentState(&gen, {"x"});
  FormulaPtr response =
      PresentState(&gen, rng->Bernoulli(0.8) ? std::vector<std::string>{"x"}
                                             : std::vector<std::string>{});
  const Timestamp lo = rng->UniformInt(0, 2);
  return Formula::Forall(
      {"x"}, Formula::Implies(
                 std::move(trigger),
                 Formula::Eventually(
                     TimeInterval(lo, lo + rng->UniformInt(0, 4)),
                     std::move(response))));
}

tl::PredicateCatalog Catalog() {
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : PQRSchemas()) catalog[name] = schema;
  return catalog;
}

Database EmptyState() {
  Database db;
  for (const auto& [name, schema] : PQRSchemas()) {
    EXPECT_TRUE(db.CreateTable(name, schema).ok());
  }
  return db;
}

class DomainFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DomainFuzzTest, DomainFreeEvaluationsNeverReachTheDomain) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const tl::PredicateCatalog catalog = Catalog();

  for (int round = 0; round < 4; ++round) {
    FormulaPtr constraint = RandomConstraint(&rng);
    const std::string trace = "seed=" + std::to_string(seed) + " round=" +
                              std::to_string(round) + " constraint: " +
                              constraint->ToString();
    SCOPED_TRACE(trace);

    auto naive = Unwrap(NaiveEngine::Create(*constraint, catalog));
    auto incremental = Unwrap(IncrementalEngine::Create(*constraint, catalog));
    auto active = Unwrap(ActiveEngine::Create(*constraint, catalog));
    // The question each past-only engine asks, of its own normalized tree
    // (the active engine normalizes the same way).
    const Formula& tree = incremental->normalized_constraint();
    const tl::Analysis analysis = Unwrap(tl::Analyze(tree, catalog));

    Database mirror = EmptyState();
    Timestamp t = 0;
    for (int step = 0; step < kSteps; ++step) {
      t += rng.UniformInt(1, 3);
      ASSERT_TRUE(RandomDelta(&rng, t).Apply(&mirror).ok());
      if (!analysis.reads_domain()) {
        ASSERT_FALSE(EngineEvaluationsConsultDomain(tree, analysis, mirror))
            << trace << " consulted the domain at t=" << t;
      }

      const bool v_naive = Unwrap(naive->OnTransition(mirror, t));
      Result<bool> v_inc = incremental->OnTransition(mirror, t);
      Result<bool> v_act = active->OnTransition(mirror, t);
      ASSERT_TRUE(v_inc.ok()) << trace << " incremental at t=" << t << ": "
                              << v_inc.status().ToString();
      ASSERT_TRUE(v_act.ok()) << trace << " active at t=" << t << ": "
                              << v_act.status().ToString();
      ASSERT_EQ(v_naive, *v_inc) << trace << " naive vs incremental at t="
                                 << t;
      ASSERT_EQ(v_naive, *v_act) << trace << " naive vs active at t=" << t;
      if (v_naive) continue;

      Relation c_naive = Unwrap(naive->CurrentCounterexamples(mirror));
      Result<Relation> c_inc = incremental->CurrentCounterexamples(mirror);
      Result<Relation> c_act = active->CurrentCounterexamples(mirror);
      ASSERT_TRUE(c_inc.ok()) << trace << " incremental counterexamples at t="
                              << t << ": " << c_inc.status().ToString();
      ASSERT_TRUE(c_act.ok()) << trace << " active counterexamples at t=" << t
                              << ": " << c_act.status().ToString();
      ASSERT_EQ(c_naive, *c_inc) << trace << " at t=" << t;
      ASSERT_EQ(c_naive, *c_act) << trace << " at t=" << t;
    }
  }

  for (int round = 0; round < 2; ++round) {
    FormulaPtr constraint = RandomResponseConstraint(&rng);
    const std::string trace = "seed=" + std::to_string(seed) +
                              " response round=" + std::to_string(round) +
                              " constraint: " + constraint->ToString();
    SCOPED_TRACE(trace);
    auto engine = Unwrap(ResponseEngine::Create(*constraint, catalog));
    // The response engine evaluates its trigger and its response.
    const tl::Analysis analysis = Unwrap(tl::Analyze(*constraint, catalog));
    const Formula& trigger = constraint->child(0).child(0);
    const Formula& response = constraint->child(0).child(1).child(0);

    Database mirror = EmptyState();
    Timestamp t = 0;
    for (int step = 0; step < kSteps; ++step) {
      t += rng.UniformInt(1, 3);
      ASSERT_TRUE(RandomDelta(&rng, t).Apply(&mirror).ok());
      if (!analysis.reads_domain()) {
        ASSERT_FALSE(ConsultsDomain(trigger, false, analysis, mirror) ||
                     ConsultsDomain(response, false, analysis, mirror))
            << trace << " consulted the domain at t=" << t;
      }
      Result<bool> holds = engine->OnTransition(mirror, t);
      ASSERT_TRUE(holds.ok()) << trace << " at t=" << t << ": "
                              << holds.status().ToString();
      RTIC_ASSERT_OK(engine->CurrentCounterexamples(mirror).status());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 61));

// The fuzzer above checks only what the analysis calls domain-free, so it
// must call enough of the generated constraints that.
TEST(DomainFuzzCoverageTest, ManyRandomConstraintsAreDomainFree) {
  Rng rng(20261020);
  const tl::PredicateCatalog catalog = Catalog();
  int free = 0;
  int reads = 0;
  for (int i = 0; i < 400; ++i) {
    FormulaPtr normalized = tl::NormalizeForEngines(*RandomConstraint(&rng));
    const tl::Analysis analysis = Unwrap(tl::Analyze(*normalized, catalog));
    ++(analysis.reads_domain() ? reads : free);
  }
  EXPECT_GE(free, 100) << free << " of 400 domain-free";
  EXPECT_GE(reads, 40) << reads << " of 400 read the domain";
}

}  // namespace
}  // namespace rtic
