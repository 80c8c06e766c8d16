// ConstraintMonitor: the library's public entry point.
//
//   ConstraintMonitor monitor;                        // incremental engine
//   monitor.CreateTable("Emp", schema);
//   monitor.RegisterConstraint("no_pay_cut",
//       "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies "
//       "s >= s0");
//   UpdateBatch batch(/*timestamp=*/17);
//   batch.Insert("Emp", {Value::Int64(1), Value::Int64(50000)});
//   auto violations = monitor.ApplyUpdate(batch);     // [] or reports
//
// Each ApplyUpdate commits one history state (timestamps strictly
// increasing) and checks every registered constraint at that state, on
// the calling thread and in registration order, returning violation
// reports with counterexample witnesses. With
// MonitorOptions::wal_dir set, the monitor owns one DurableLog
// (monitor/durable_log.h) that logs, checkpoints and ships its state.

#ifndef RTIC_MONITOR_MONITOR_H_
#define RTIC_MONITOR_MONITOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "engines/checker_engine.h"
#include "engines/incremental/pruning.h"
#include "engines/incremental/subplan_dag.h"
#include "fo/scan_cache.h"
#include "monitor/monitor_iface.h"
#include "storage/update_batch.h"
#include "tl/analyzer.h"
#include "tl/ast.h"
#include "wal/recovery.h"

namespace rtic {

class DurableLog;

/// Which checking strategy newly registered constraints use.
enum class EngineKind {
  kIncremental,  // bounded history encoding (default; the paper's method)
  kNaive,        // full-history re-evaluation (baseline)
  kActive,       // ECA trigger programs on the active-DBMS substrate
};

/// Stable engine-kind name ("incremental", "naive", "active").
const char* EngineKindToString(EngineKind kind);

/// Monitor-wide configuration.
struct MonitorOptions {
  EngineKind engine = EngineKind::kIncremental;

  /// Pruning policy for incremental/active engines.
  PruningPolicy pruning = PruningPolicy::kFull;

  /// Extra constants always part of the active domain (useful when a
  /// constraint must quantify over values not yet stored anywhere).
  std::vector<Value> domain_constants;

  /// Maximum counterexample rows reported per violation.
  std::size_t max_witnesses = 10;

  /// Ignored: every monitor checks its constraints on the calling thread.
  /// Kept only so that existing callers still compile; it is to be
  /// deleted.
  std::size_t num_threads = 1;

  /// Durability. Empty (the default) keeps the purely in-memory monitor —
  /// no WAL, no checkpoint files, behavior byte-identical to before the
  /// durability subsystem existed. Non-empty names a directory for WAL
  /// segments and checkpoints; the monitor then requires one Recover()
  /// call (after tables and constraints are registered, before the first
  /// update) and logs every accepted batch before applying it.
  std::string wal_dir;

  /// When an accepted batch becomes durable (durable mode only).
  wal::SyncPolicy sync_policy = wal::SyncPolicy::kBatch;

  /// Accepted batches between automatic checkpoints; 0 disables periodic
  /// checkpointing, leaving recovery to replay the whole log.
  std::size_t checkpoint_interval = 64;

  /// Maximum delta checkpoints chained onto one full snapshot before a new
  /// full snapshot is forced (durable mode only). With deltas enabled a
  /// periodic checkpoint serializes only what changed since the previous
  /// one — cost proportional to churn, not state size. 0 makes every
  /// checkpoint a full snapshot (the pre-delta behavior). Larger values
  /// amortize snapshots over more churn at the price of recovery
  /// installing a longer base+delta chain and the WAL being retained back
  /// to the base.
  std::size_t checkpoint_delta_chain = 8;

  /// Compress checkpoint payloads (durable mode only) with the built-in
  /// dictionary+RLE codec (see common/compress.h). Recovery auto-detects,
  /// so compressed and uncompressed checkpoints interoperate freely —
  /// flipping this option never invalidates existing files.
  bool checkpoint_compression = false;

  /// WAL segment rotation threshold in bytes.
  std::size_t wal_segment_bytes = 4u << 20;

  /// File system used by the durability subsystem; nullptr means the real
  /// one. Tests substitute a wal::FaultInjectingFs to crash on demand.
  wal::Fs* wal_fs = nullptr;

  /// Log-shipping replication (durable mode only). Empty (the default)
  /// disables it. A "host:port" address makes Recover() connect to a
  /// listening StandbyMonitor (see replication/standby.h) and start a
  /// background thread that ships sealed WAL segments and checkpoint
  /// files every ship_interval_micros. Connection failure fails
  /// Recover(); a connection lost later is logged and shipping stops (the
  /// persisted ship watermark keeps unacknowledged segments until a new
  /// session catches the standby up — see docs/OPERATIONS.md).
  std::string replication_standby;

  /// Pause between shipping passes of the background shipper thread.
  std::uint64_t ship_interval_micros = 50000;
};

// ConstraintStats and Violation moved to monitor/monitor_iface.h (the
// MonitorLike vocabulary); this header re-exports them via its include.

/// Cumulative checkpoint-write statistics (durable mode; the cost measure
/// of experiment E13). Bytes are the sizes actually written to disk, after
/// compression when enabled.
struct CheckpointStats {
  std::size_t bases = 0;          // full snapshots written
  std::size_t deltas = 0;         // delta checkpoints written
  std::size_t failures = 0;       // failed attempts (retried next interval)
  std::uint64_t base_bytes = 0;   // bytes across all full snapshots
  std::uint64_t delta_bytes = 0;  // bytes across all deltas
  std::int64_t total_micros = 0;  // cumulative build+write wall time
  std::int64_t max_micros = 0;    // worst single checkpoint pause
  std::int64_t last_micros = 0;   // most recent checkpoint pause
};

/// The monitor: owns the evolving database and one checker per constraint.
/// It is the wal::ReplayTarget its own DurableLog recovers into.
class ConstraintMonitor : public MonitorLike, private wal::ReplayTarget {
 public:
  explicit ConstraintMonitor(MonitorOptions options = {});
  ~ConstraintMonitor() override;

  ConstraintMonitor(const ConstraintMonitor&) = delete;
  ConstraintMonitor& operator=(const ConstraintMonitor&) = delete;

  /// Creates a monitored table.
  Status CreateTable(const std::string& name, Schema schema) override;

  /// Parses, analyzes, and compiles a constraint. Constraints registered
  /// after updates have been applied see only subsequent history (their
  /// temporal operators start from an empty past).
  Status RegisterConstraint(const std::string& name,
                            const std::string& text) override;

  /// Same, from an already-built formula.
  Status RegisterConstraintFormula(const std::string& name,
                                   const tl::Formula& formula);

  /// Registers a constraint backed by a caller-supplied checker engine
  /// instead of a compiled built-in one. The engine must honor the
  /// CheckerEngine contract; the constraint participates in stats,
  /// checkpoints, and violation reports like any other. This is the entry
  /// point for custom checking strategies and for tests that inject
  /// failing engines.
  Status RegisterConstraintEngine(const std::string& name,
                                  std::unique_ptr<CheckerEngine> engine);

  /// Stops checking a constraint and discards its auxiliary state.
  Status UnregisterConstraint(const std::string& name);

  /// Durable mode (wal_dir set) only: restores the newest checkpoint,
  /// replays the WAL tail through the normal commit path (torn or corrupt
  /// tails are truncated, logged, and never fatal), and arms the log for
  /// subsequent updates. Must be called exactly once, after every
  /// CreateTable/RegisterConstraint and before the first update. Requires
  /// a checkpointable engine configuration (see SaveState()). Fails with
  /// FailedPrecondition, leaving every file in place, when the newest
  /// checkpoint was written under another registration (see LoadState())
  /// or wal_dir holds an older release's per-shard layout.
  Result<wal::RecoveryStats> Recover() override;

  /// Commits one transition: applies the batch (timestamp must exceed the
  /// previous one), checks every constraint, returns the violations. In
  /// durable mode the batch is validated and appended to the WAL first; a
  /// logging failure means the batch was not applied (and, conversely, a
  /// reported failure may still leave the batch durable — after recovery
  /// the transition count is either side of such a failure).
  Result<std::vector<Violation>> ApplyUpdate(const UpdateBatch& batch) override;

  /// Pure clock tick: a transition that changes no tuples. Real-time
  /// constraints can newly fail as deadlines expire even without updates.
  Result<std::vector<Violation>> Tick(Timestamp t) override;

  /// The current database state.
  const Database& database() const { return db_; }

  /// Timestamp of the last committed transition (0 before the first).
  Timestamp current_time() const override { return current_time_; }

  /// Number of transitions committed.
  std::size_t transition_count() const override { return transition_count_; }

  /// Registered constraint names, in registration order.
  std::vector<std::string> ConstraintNames() const override;

  /// Analyzer warnings produced when `name` was registered.
  Result<std::vector<std::string>> WarningsFor(const std::string& name) const;

  /// Total auxiliary/history rows retained across all constraint checkers
  /// (the space metric of experiment E2).
  std::size_t TotalStorageRows() const override;

  /// Violations accumulated since construction (all constraints).
  std::size_t total_violations() const override { return total_violations_; }

  /// Per-constraint checking statistics, in registration order.
  std::vector<ConstraintStats> Stats() const override;

  /// Serializes the whole monitor — current database, clock, and every
  /// constraint checker's state — to a portable checkpoint. Requires every
  /// registered constraint to use a checkpointable engine (incremental or
  /// response); fails with Unimplemented otherwise.
  Result<std::string> SaveState() const;

  /// Restores a SaveState() checkpoint into a monitor with the SAME tables
  /// and constraints registered (names, order and schemas are validated;
  /// a mismatch, or a sharded RTICSHD1 checkpoint, is FailedPrecondition).
  /// Replaces the database, all checker state, and the per-constraint
  /// transition/violation counters (so Stats() stays consistent with
  /// total_violations() across recovery); per-constraint timing statistics
  /// restart from zero. Accepts the current RTICMON3 format, legacy
  /// RTICMON2 checkpoints (recorded before delta checkpoints existed), and
  /// compressed frames of either; checkpoints from before RTICMON2 are
  /// rejected with InvalidArgument.
  Status LoadState(const std::string& data);

  /// Arms delta-checkpoint tracking (table-level change sets in the
  /// monitor plus per-engine dirty tracking) and makes the current state
  /// the baseline the next SaveStateDelta() diffs against; call it again
  /// after saving a base to chain deltas onto that base. Recover() arms
  /// this automatically when checkpoint_delta_chain > 0; call it directly
  /// only to use SaveStateDelta()/LoadStateDelta() without a WAL.
  void BeginDeltaTracking();

  /// Serializes only what changed since the last checkpoint baseline
  /// (the last SaveStateDelta/LoadState/LoadStateDelta that reset
  /// tracking): table-level row deltas plus per-engine delta or full
  /// blobs. Requires BeginDeltaTracking(). Unlike the const SaveState(),
  /// a successful call makes the current state the new baseline.
  Result<std::string> SaveStateDelta();

  /// Applies a SaveStateDelta() blob on top of monitor state equal to the
  /// parent checkpoint's (validated via the transition count). Used by
  /// recovery to install base+delta chains.
  Status LoadStateDelta(const std::string& data);

  /// Checkpoint-write statistics (durable mode; zeros otherwise).
  const CheckpointStats& checkpoint_stats() const;

  /// The configuration this monitor runs with.
  const MonitorOptions& options() const { return options_; }

  /// The atom scans this monitor's incremental and response engines share
  /// (introspection for tests and measurements).
  const fo::ScanCache& scan_cache() const { return *scans_; }

 private:
  struct Registered;

  /// Rows added to / removed from one table since the checkpoint baseline.
  /// Ordered sets so delta payloads are byte-deterministic.
  struct TableDelta {
    std::set<Tuple> removed;
    std::set<Tuple> added;
  };

  /// Folds one about-to-be-applied batch into the table delta trackers.
  /// Must run against the pre-Apply database: Apply()'s no-op semantics
  /// (deleting an absent row, inserting a present one) mean the effective
  /// change depends on what is currently stored.
  void TrackBatchDelta(const UpdateBatch& batch);

  /// Declares the current state the checkpoint baseline: clears table
  /// deltas, records the parent transition count, and marks every engine's
  /// state saved.
  void ResetCheckpointTracking();

  /// ApplyUpdate's work, logging to `log` when non-null (replay passes
  /// none) and writing the periodic checkpoint when due.
  Result<std::vector<Violation>> Commit(const UpdateBatch& batch,
                                        DurableLog* log);

  // wal::ReplayTarget, driven by log_ during Recover() and at checkpoints.
  Status RestoreCheckpoint(const std::string& payload) override {
    return LoadState(payload);
  }
  Status RestoreCheckpointDelta(const std::string& payload) override {
    return LoadStateDelta(payload);
  }
  Status Replay(const UpdateBatch& batch) override {
    // Violations were already reported when the batch was first accepted.
    return Commit(batch, nullptr).status();
  }
  Result<std::string> CaptureCheckpoint() override;
  Result<std::string> CaptureCheckpointDelta() override {
    return SaveStateDelta();
  }

  /// Checks `c` against the just-committed state: whether it holds, and
  /// its violation report (witnesses included) when it does not.
  /// `nanos` receives the wall time of the engine's transition.
  Result<bool> CheckConstraint(Registered& c, std::int64_t* nanos,
                               Violation* violation);

  MonitorOptions options_;
  Database db_;
  Timestamp current_time_ = 0;
  std::size_t transition_count_ = 0;
  std::size_t total_violations_ = 0;
  std::vector<std::unique_ptr<Registered>> constraints_;
  // Links the incremental engines, so each shared subplan is kept once.
  inc::SubplanDag dag_;
  // One scan per table version and atom shape for all incremental and
  // response engines (fo/scan_cache.h).
  std::shared_ptr<fo::ScanCache> scans_ = std::make_shared<fo::ScanCache>();

  // Delta-checkpoint tracking (armed by BeginDeltaTracking()).
  bool delta_tracking_ = false;
  std::map<std::string, TableDelta> table_deltas_;
  std::size_t checkpoint_parent_transitions_ = 0;

  std::unique_ptr<DurableLog> log_;  // non-null once Recover() succeeded
};

}  // namespace rtic

#endif  // RTIC_MONITOR_MONITOR_H_
