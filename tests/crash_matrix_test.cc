// The crash matrix: for EVERY mutating file-system operation in a durable
// payroll run, kill the "process" at exactly that operation (cycling through
// fail/short/bit-flip faults), recover from disk with a healthy file system,
// finish the workload, and require
//
//   1. the recovered transition count is i or i+1, where i is the number of
//      batches acked before the crash (the one in flight may or may not
//      have become durable — never anything else),
//   2. every violation reported after recovery matches the uninterrupted
//      reference run exactly, and
//   3. the final checkpoint payload is byte-identical to the reference's.
//
// A fault can also land inside a periodic checkpoint write, which the
// monitor logs and retries instead of failing the batch — then the run
// completes without a crash and every batch must be acked.
//
// The matrix runs under kAlways, on the default and a short delta chain,
// with and without compressed checkpoints. This is the subsystem's
// end-to-end correctness argument: no fault point loses an acked batch,
// resurrects an unacked one, or perturbs checking.
//
// A sharded tenant faces the same sweep: a durable 4-shard library run owns
// one log and one checkpoint chain, so after every fault the recovered
// verdicts and merged counters must equal the uninterrupted *unsharded*
// run's, and the final sharded checkpoint the uninterrupted sharded run's.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "shard/sharded_monitor.h"
#include "tests/test_util.h"
#include "wal/file.h"
#include "workload/generators.h"

namespace rtic {
namespace {

using testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_crash_matrix_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

struct MatrixParams {
  std::size_t num_employees = 10;
  std::size_t length = 200;
  std::uint64_t seed = 7;
  std::size_t checkpoint_interval = 25;
  std::size_t checkpoint_delta_chain = 8;  // the default: deltas active
  bool checkpoint_compression = false;
};

workload::Workload MakeWorkload(const MatrixParams& p) {
  workload::PayrollParams params;
  params.num_employees = p.num_employees;
  params.length = p.length;
  params.seed = p.seed;
  return workload::MakePayrollWorkload(params);
}

std::unique_ptr<ConstraintMonitor> MakeMonitor(const workload::Workload& wl,
                                               const MatrixParams& p,
                                               const std::string& dir,
                                               wal::Fs* fs) {
  MonitorOptions options;
  options.wal_dir = dir;
  options.sync_policy = wal::SyncPolicy::kAlways;
  options.checkpoint_interval = p.checkpoint_interval;
  options.checkpoint_delta_chain = p.checkpoint_delta_chain;
  options.checkpoint_compression = p.checkpoint_compression;
  options.wal_fs = fs;
  auto monitor = std::make_unique<ConstraintMonitor>(std::move(options));
  for (const auto& [name, schema] : wl.schema) {
    RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
  }
  for (const auto& [name, text] : wl.constraints) {
    RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
  }
  return monitor;
}

std::string Render(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) out += v.ToString() + "\n";
  return out;
}

// Sanitizer builds can subsample the matrix: RTIC_MATRIX_STRIDE=n tests
// every n-th trigger (with a rotating offset so repeated runs still cover
// different operations). Unset or 1 means exhaustive.
std::uint64_t MatrixStride() {
  const char* env = std::getenv("RTIC_MATRIX_STRIDE");
  if (env == nullptr) return 1;
  const long value = std::atol(env);
  return value > 1 ? static_cast<std::uint64_t>(value) : 1;
}

void RunCrashMatrix(const MatrixParams& params) {
  const workload::Workload wl = MakeWorkload(params);

  // Reference: an uninterrupted durable run through a counting-only
  // fault-injecting fs, giving per-batch violations, the final state, and
  // the total number of mutating fs operations to attack.
  std::vector<std::string> reference_violations;
  std::string reference_state;
  std::uint64_t total_ops = 0;
  {
    const std::string dir = MakeTempDir();
    wal::FaultInjectingFs fs(wal::DefaultFs(), /*trigger_op=*/0,
                             wal::FaultKind::kFailWrite);
    auto monitor = MakeMonitor(wl, params, dir + "/wal", &fs);
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (const UpdateBatch& batch : wl.batches) {
      reference_violations.push_back(
          Render(Unwrap(monitor->ApplyUpdate(batch))));
    }
    reference_state = Unwrap(monitor->SaveState());
    total_ops = fs.ops();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(total_ops, 2 * wl.batches.size())
      << "kAlways must append and sync every batch";

  const std::uint64_t stride = MatrixStride();
  for (std::uint64_t trigger = 1; trigger <= total_ops; trigger += stride) {
    const wal::FaultKind kind = static_cast<wal::FaultKind>(trigger % 3);
    const std::string root = MakeTempDir();
    const std::string dir = root + "/wal";
    SCOPED_TRACE("trigger=" + std::to_string(trigger) +
                 " kind=" + std::to_string(trigger % 3));

    // Run until the injected fault surfaces as an ApplyUpdate error. A
    // fault confined to the final batch's periodic checkpoint is logged
    // and swallowed (the batch itself is already durable), so the loop can
    // also complete cleanly — then every batch must have been acked.
    std::size_t acked = 0;
    {
      wal::FaultInjectingFs fs(wal::DefaultFs(), trigger, kind);
      auto monitor = MakeMonitor(wl, params, dir, &fs);
      RTIC_ASSERT_OK(monitor->Recover().status());
      bool crashed = false;
      for (const UpdateBatch& batch : wl.batches) {
        if (!monitor->ApplyUpdate(batch).ok()) {
          crashed = true;
          break;
        }
        ++acked;
      }
      if (!crashed) {
        ASSERT_EQ(acked, wl.batches.size())
            << "a run can only survive its fault if the fault hit a "
               "retryable checkpoint write after the last batch was acked";
      }
      // The monitor is abandoned here — buffered bytes die with it.
    }

    // Recover on a healthy file system and finish the workload.
    auto monitor = MakeMonitor(wl, params, dir, nullptr);
    wal::RecoveryStats stats = Unwrap(monitor->Recover());
    const std::size_t recovered = monitor->transition_count();
    ASSERT_TRUE(recovered == acked || recovered == acked + 1)
        << "acked " << acked << " but recovered " << recovered
        << " (checkpoint_seq " << stats.checkpoint_seq << ", last_seq "
        << stats.last_seq << ")";
    for (std::size_t j = recovered; j < wl.batches.size(); ++j) {
      std::string rendered = Render(Unwrap(monitor->ApplyUpdate(
          wl.batches[j])));
      ASSERT_EQ(rendered, reference_violations[j]) << "batch " << j;
    }
    ASSERT_EQ(Unwrap(monitor->SaveState()), reference_state);
    std::filesystem::remove_all(root);
  }
}

// The default configuration: delta checkpoints active (chain limit 8), so
// the sweep attacks every fault point of base writes, delta writes, chain
// garbage collection, and the directory fsyncs that make renames/unlinks
// durable.
TEST(CrashMatrixTest, EveryFaultPointRecoversExactly) {
  RunCrashMatrix(MatrixParams{});
}

// The same sweep with compressed checkpoints on the default delta chain:
// every fault point also crosses the compressed-frame encode/decode path
// (final-state comparisons use the uncompressed SaveState, so
// byte-identity still holds).
TEST(CrashMatrixTest, CompressedEveryFaultPointRecoversExactly) {
  MatrixParams params;
  params.num_employees = 8;
  params.length = 80;
  params.seed = 11;
  params.checkpoint_interval = 10;
  params.checkpoint_compression = true;
  RunCrashMatrix(params);
}

// A short-chain sweep with compression on the direct path: chain limit 2
// forces frequent base/delta alternation, so base-forcing, chain GC, and
// fallback-to-base recovery face every fault point at high frequency.
TEST(CrashMatrixTest, ShortChainCompressedEveryFaultPointRecoversExactly) {
  MatrixParams params;
  params.num_employees = 8;
  params.length = 80;
  params.seed = 23;
  params.checkpoint_interval = 10;
  params.checkpoint_delta_chain = 2;
  params.checkpoint_compression = true;
  RunCrashMatrix(params);
}

// ---- the sharded matrix ------------------------------------------------

std::unique_ptr<shard::ShardedMonitor> MakeShardedMonitor(
    const workload::Workload& wl, const std::string& dir, wal::Fs* fs) {
  MonitorOptions options;
  options.wal_dir = dir;
  options.sync_policy = wal::SyncPolicy::kAlways;
  // A checkpoint every 5 batches with chains of at most 2 deltas: base
  // writes, delta writes and the GC after each base all face the sweep.
  options.checkpoint_interval = 5;
  options.checkpoint_delta_chain = 2;
  options.wal_fs = fs;
  auto monitor = Unwrap(shard::ShardedMonitor::Create(4, std::move(options)));
  for (const auto& [name, schema] : wl.schema) {
    RTIC_EXPECT_OK(monitor->CreateTable(name, schema));
  }
  for (const auto& [name, text] : wl.constraints) {
    RTIC_EXPECT_OK(monitor->RegisterConstraint(name, text));
  }
  return monitor;
}

/// total_violations() and every constraint's transitions/violations pair.
std::string Counters(const MonitorLike& monitor) {
  std::string out = "total " + std::to_string(monitor.total_violations());
  for (const ConstraintStats& s : monitor.Stats()) {
    out += "; " + s.name + " " + std::to_string(s.transitions) + "/" +
           std::to_string(s.violations);
  }
  return out;
}

TEST(CrashMatrixTest, ShardedEveryFaultPointRecoversExactly) {
  workload::LibraryParams params;
  params.num_patrons = 24;
  params.num_books = 40;
  params.length = 60;
  params.nonmember_prob = 0.2;
  params.seed = 17;
  const workload::Workload wl = workload::MakeLibraryWorkload(params);

  // The contract: the uninterrupted unsharded run's verdicts, and its
  // counters after each prefix (counters[i] after i batches).
  std::vector<std::string> reference_violations;
  std::vector<std::string> reference_counters;
  {
    ConstraintMonitor monitor;
    for (const auto& [name, schema] : wl.schema) {
      RTIC_ASSERT_OK(monitor.CreateTable(name, schema));
    }
    for (const auto& [name, text] : wl.constraints) {
      RTIC_ASSERT_OK(monitor.RegisterConstraint(name, text));
    }
    reference_counters.push_back(Counters(monitor));
    for (const UpdateBatch& batch : wl.batches) {
      reference_violations.push_back(
          Render(Unwrap(monitor.ApplyUpdate(batch))));
      reference_counters.push_back(Counters(monitor));
    }
  }
  // The uninterrupted sharded run: its final checkpoint, and the number of
  // mutating fs operations to attack.
  std::string reference_state;
  std::uint64_t total_ops = 0;
  {
    const std::string root = MakeTempDir();
    wal::FaultInjectingFs fs(wal::DefaultFs(), /*trigger_op=*/0,
                             wal::FaultKind::kFailWrite);
    auto monitor = MakeShardedMonitor(wl, root + "/wal", &fs);
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < wl.batches.size(); ++i) {
      ASSERT_EQ(Render(Unwrap(monitor->ApplyUpdate(wl.batches[i]))),
                reference_violations[i])
          << "batch " << i;
    }
    std::size_t violating_shards = 0;
    for (std::size_t k = 0; k < monitor->shard_count(); ++k) {
      violating_shards += monitor->shard(k).total_violations() > 0 ? 1 : 0;
    }
    ASSERT_GE(violating_shards, 2u) << "violations must span shards";
    reference_state = Unwrap(monitor->SaveState());
    total_ops = fs.ops();
    std::filesystem::remove_all(root);
  }
  ASSERT_GT(total_ops, 2 * wl.batches.size())
      << "kAlways must append and sync every batch";

  const std::uint64_t stride = MatrixStride();
  for (std::uint64_t trigger = 1; trigger <= total_ops; trigger += stride) {
    const wal::FaultKind kind = static_cast<wal::FaultKind>(trigger % 3);
    const std::string root = MakeTempDir();
    const std::string dir = root + "/wal";
    SCOPED_TRACE("trigger=" + std::to_string(trigger) +
                 " kind=" + std::to_string(trigger % 3));

    std::size_t acked = 0;
    {
      wal::FaultInjectingFs fs(wal::DefaultFs(), trigger, kind);
      auto monitor = MakeShardedMonitor(wl, dir, &fs);
      RTIC_ASSERT_OK(monitor->Recover().status());
      bool crashed = false;
      for (const UpdateBatch& batch : wl.batches) {
        if (!monitor->ApplyUpdate(batch).ok()) {
          crashed = true;
          break;
        }
        ++acked;
      }
      if (!crashed) {
        ASSERT_EQ(acked, wl.batches.size())
            << "a run can only survive its fault if the fault hit a "
               "retryable checkpoint write after the last batch was acked";
      }
    }

    auto monitor = MakeShardedMonitor(wl, dir, nullptr);
    wal::RecoveryStats stats = Unwrap(monitor->Recover());
    const std::size_t recovered = monitor->transition_count();
    ASSERT_TRUE(recovered == acked || recovered == acked + 1)
        << "acked " << acked << " but recovered " << recovered
        << " (checkpoint_seq " << stats.checkpoint_seq << ", last_seq "
        << stats.last_seq << ")";
    ASSERT_EQ(Counters(*monitor), reference_counters[recovered]);
    for (std::size_t j = recovered; j < wl.batches.size(); ++j) {
      ASSERT_EQ(Render(Unwrap(monitor->ApplyUpdate(wl.batches[j]))),
                reference_violations[j])
          << "batch " << j;
      ASSERT_EQ(Counters(*monitor), reference_counters[j + 1])
          << "batch " << j;
    }
    ASSERT_EQ(Unwrap(monitor->SaveState()), reference_state);
    std::filesystem::remove_all(root);
  }
}

}  // namespace
}  // namespace rtic
