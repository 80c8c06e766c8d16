// Shared atom scans (fo/scan_cache.h): a monitor's incremental and response
// engines evaluate atoms through one cache with one slot per atom shape, so
// a changed table is scanned once per shape, not once per atom per engine.
//
// The battery registers, in one monitor, atoms over one table that differ
// only by variable order, a repeated variable, a constant value or
// variable names, plus a response constraint over the same table, and
// checks every verdict and every per-constraint checkpoint entry against
// one single-constraint monitor per constraint (nothing shared) over random
// streams, through LoadState and LoadStateDelta restores and an
// UnregisterConstraint mid-stream. A cache whose shape key dropped the
// constants or the repeated-variable checks, or whose hits ignored the
// table version, would hand one atom another atom's rows (or stale ones).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fo/scan_cache.h"
#include "monitor/monitor.h"
#include "tests/engine_test_util.h"

namespace rtic {
namespace {

using testing::CheckpointedConstraints;
using testing::D;
using testing::I;
using testing::IntSchema;
using testing::T;
using testing::Unwrap;

using Registrations = std::vector<std::pair<std::string, std::string>>;

// P(x, y), P(y, x), P(x, x), P(1, y), P(2, y) and P(a, b) over one binary
// table; R(x, y, x) and R(x, y, y) have the same output positions and differ
// only in their repeated-variable checks. Each constraint holds one shape of
// P or R (its other atoms are Q(v)), so the single-constraint reference
// monitors never put two of these shapes in one cache: a shape key that
// merged two of them would corrupt the shared monitor only.
const Registrations& Battery() {
  static const Registrations kBattery = {
      {"straight", "forall x, y: P(x, y) implies once[0, 2] Q(x)"},
      {"swapped", "forall x, y: P(y, x) implies not once[1, 3] Q(x)"},
      {"diagonal", "forall x: once[1, 3] P(x, x) implies Q(x)"},
      {"one", "forall y: P(1, y) implies once[0, 4] Q(y)"},
      {"two", "forall y: once[0, 2] P(2, y) implies not Q(y)"},
      {"names", "forall a, b: P(a, b) implies not once[2, 5] Q(b)"},
      {"first", "forall x, y: R(x, y, x) implies once[0, 3] Q(y)"},
      {"last", "forall x, y: once[0, 3] R(x, y, y) implies Q(x)"},
      {"answer", "forall x, y: P(x, y) implies eventually[0, 3] Q(y)"},
  };
  return kBattery;
}

std::unique_ptr<ConstraintMonitor> MakeMonitor(
    const Registrations& constraints) {
  MonitorOptions options;
  options.max_witnesses = 1000000;  // report full counterexample sets
  auto monitor = std::make_unique<ConstraintMonitor>(options);
  EXPECT_TRUE(monitor->CreateTable("P", IntSchema({"a", "b"})).ok());
  EXPECT_TRUE(monitor->CreateTable("Q", IntSchema({"a"})).ok());
  EXPECT_TRUE(monitor->CreateTable("R", IntSchema({"a", "b", "c"})).ok());
  for (const auto& [name, text] : constraints) {
    Status s = monitor->RegisterConstraint(name, text);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
  return monitor;
}

std::vector<std::string> Render(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const Violation& v : violations) out.push_back(v.ToString());
  return out;
}

/// One single-constraint monitor per constraint: nothing is shared, so
/// every engine scans for itself.
class SoloMonitors {
 public:
  explicit SoloMonitors(const Registrations& constraints) {
    for (const auto& c : constraints) {
      monitors_.emplace_back(c.first, MakeMonitor({c}));
    }
  }

  std::vector<std::string> Apply(const UpdateBatch& batch) {
    std::vector<Violation> all;
    for (auto& [name, monitor] : monitors_) {
      for (Violation& v : Unwrap(monitor->ApplyUpdate(batch))) {
        all.push_back(std::move(v));
      }
    }
    return Render(all);
  }

  std::vector<std::string> Checkpointed() const {
    std::vector<std::string> out;
    for (const auto& [name, monitor] : monitors_) {
      out.push_back(
          CheckpointedConstraints(Unwrap(monitor->SaveState())).at(0));
    }
    return out;
  }

  void Drop(const std::string& name) {
    std::erase_if(monitors_, [&](const auto& m) { return m.first == name; });
  }

 private:
  std::vector<std::pair<std::string, std::unique_ptr<ConstraintMonitor>>>
      monitors_;
};

/// Random churn over P (values 0..2), R (values 0..1) and Q.
UpdateBatch RandomBatch(Rng* rng, Timestamp t) {
  UpdateBatch batch(t);
  for (std::int64_t a = 0; a <= 2; ++a) {
    for (std::int64_t b = 0; b <= 2; ++b) {
      if (rng->Bernoulli(0.2)) batch.Insert("P", T(I(a), I(b)));
      if (rng->Bernoulli(0.2)) batch.Delete("P", T(I(a), I(b)));
    }
    if (rng->Bernoulli(0.3)) batch.Insert("Q", T(I(a)));
    if (rng->Bernoulli(0.3)) batch.Delete("Q", T(I(a)));
  }
  for (std::int64_t a = 0; a <= 1; ++a) {
    for (std::int64_t b = 0; b <= 1; ++b) {
      for (std::int64_t c = 0; c <= 1; ++c) {
        if (rng->Bernoulli(0.15)) batch.Insert("R", T(I(a), I(b), I(c)));
        if (rng->Bernoulli(0.15)) batch.Delete("R", T(I(a), I(b), I(c)));
      }
    }
  }
  return batch;
}

TEST(SharedScanTest, AtomShapesMatchSoloMonitors) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string trace = "seed=" + std::to_string(seed);
    SCOPED_TRACE(trace);
    Rng rng(seed);
    Registrations registered = Battery();
    SoloMonitors solo(registered);
    auto shared = MakeMonitor(registered);
    shared->BeginDeltaTracking();
    std::string base;
    Timestamp t = 0;
    for (int step = 0; step < 40; ++step) {
      t += rng.UniformInt(1, 2);
      const UpdateBatch batch = RandomBatch(&rng, t);
      ASSERT_EQ(solo.Apply(batch), Render(Unwrap(shared->ApplyUpdate(batch))))
          << trace << " diverges at step " << step;
      if (step == 9) {
        // In-place restore: every table gets a fresh id, so every slot
        // misses once.
        const std::string blob = Unwrap(shared->SaveState());
        ASSERT_EQ(CheckpointedConstraints(blob), solo.Checkpointed());
        RTIC_ASSERT_OK(shared->LoadState(blob));
      } else if (step == 14) {
        base = Unwrap(shared->SaveState());
        shared->BeginDeltaTracking();
      } else if (step == 19) {
        // Base + delta into a fresh monitor, which carries on instead.
        const std::string delta = Unwrap(shared->SaveStateDelta());
        auto restored = MakeMonitor(registered);
        restored->BeginDeltaTracking();
        RTIC_ASSERT_OK(restored->LoadState(base));
        RTIC_ASSERT_OK(restored->LoadStateDelta(delta));
        shared = std::move(restored);
        ASSERT_EQ(CheckpointedConstraints(Unwrap(shared->SaveState())),
                  solo.Checkpointed());
      } else if (step == 24) {
        // The first-registered constraint bound the P(x, y) slot first and
        // writes shared objects; P(a, b) keeps reading the slot.
        RTIC_ASSERT_OK(shared->UnregisterConstraint("straight"));
        solo.Drop("straight");
        std::erase_if(registered,
                      [](const auto& c) { return c.first == "straight"; });
      }
    }
    ASSERT_EQ(CheckpointedConstraints(Unwrap(shared->SaveState())),
              solo.Checkpointed());
  }
}

// Eight constraints read P through the same atom shape; only the first
// evaluation after P changes scans it, the other seven (and every witness
// extraction) find its rows. A batch that leaves P alone scans nothing,
// because every kept result over P is still valid.
TEST(SharedScanTest, ConstraintsOverOneTableScanItOncePerVersion) {
  Registrations constraints;
  for (int k = 0; k < 8; ++k) {
    constraints.emplace_back(
        "c" + std::to_string(k),
        "forall x, y: P(x, y) implies y != " + std::to_string(k));
  }
  auto monitor = MakeMonitor(constraints);
  Rng rng(7);
  std::size_t versions = 0;
  std::uint64_t last_version = 0;
  for (Timestamp t = 1; t <= 60; ++t) {
    UpdateBatch batch(t);
    if (rng.Bernoulli(0.5)) {
      batch.Insert("P", T(I(rng.UniformInt(0, 9)), I(rng.UniformInt(0, 9))));
    }
    if (rng.Bernoulli(0.3)) {
      batch.Delete("P", T(I(rng.UniformInt(0, 9)), I(rng.UniformInt(0, 9))));
    }
    batch.Insert("Q", T(I(t)));
    (void)Unwrap(monitor->ApplyUpdate(batch));
    const std::uint64_t version =
        Unwrap(monitor->database().GetTable("P"))->version();
    if (t == 1 || version != last_version) ++versions;
    last_version = version;
  }
  EXPECT_GT(monitor->total_violations(), 0u);
  EXPECT_EQ(monitor->scan_cache().live_slots(), 1u);
  EXPECT_EQ(monitor->scan_cache().scans(), versions)
      << "8 constraints over P should scan it once per version, not up to "
      << 8 * versions << " times";
}

TEST(SharedScanTest, UnregisteringTheLastReaderFreesItsSlot) {
  auto monitor = MakeMonitor({
      {"plain", "forall x, y: P(x, y) implies Q(x)"},
      {"renamed", "forall a, b: P(a, b) implies once[0, 3] Q(a)"},
      {"constant", "forall y: P(1, y) implies Q(y)"},
  });
  UpdateBatch batch(1);
  batch.Insert("P", T(I(1), I(2)));
  batch.Insert("Q", T(I(1)));
  (void)Unwrap(monitor->ApplyUpdate(batch));
  // P(x, y) and P(a, b) share a slot; P(1, y) and Q(x) / Q(a) / Q(y) have
  // their own (Q's atoms differ only in names: one slot).
  EXPECT_EQ(monitor->scan_cache().live_slots(), 3u);
  RTIC_ASSERT_OK(monitor->UnregisterConstraint("constant"));
  EXPECT_EQ(monitor->scan_cache().live_slots(), 2u);
  RTIC_ASSERT_OK(monitor->UnregisterConstraint("plain"));
  EXPECT_EQ(monitor->scan_cache().live_slots(), 2u);  // "renamed" reads both
  RTIC_ASSERT_OK(monitor->UnregisterConstraint("renamed"));
  EXPECT_EQ(monitor->scan_cache().live_slots(), 0u);
}

TEST(SharedScanTest, ShapeKeysCompareConstantsAsTypedValues) {
  fo::ScanCache cache;
  const Relation::Layout layout =
      Relation::MakeLayout({Column{"y", ValueType::kInt64}});
  auto shape = [](Value constant) {
    fo::ScanCache::Shape s;
    s.table = "P";
    s.var_pos = {1};
    s.const_checks = {{0, std::move(constant)}};
    return s;
  };
  const fo::ScanCache::SlotId int_one = cache.Bind(shape(I(1)), layout);
  const fo::ScanCache::SlotId double_one = cache.Bind(shape(D(1.0)), layout);
  const fo::ScanCache::SlotId int_one_again = cache.Bind(shape(I(1)), layout);
  EXPECT_NE(int_one, double_one);
  EXPECT_EQ(int_one, int_one_again);
  EXPECT_EQ(cache.live_slots(), 2u);
  cache.Release(int_one);
  EXPECT_EQ(cache.live_slots(), 2u);
  cache.Release(int_one_again);
  cache.Release(double_one);
  EXPECT_EQ(cache.live_slots(), 0u);
}

}  // namespace
}  // namespace rtic
