// ShardedMonitor: a MonitorLike that horizontally partitions one logical
// monitor across N inner ConstraintMonitors ("shards").
//
// Each table declares a partition key column (default 0); the router
// sends every tuple to shard StableValueHash(key) % N, and every shard
// sees every timestamp (empty sub-batches are clock ticks — metric
// temporal operators move with the clock, so shards must tick in
// lockstep). Constraints are classified at registration (see
// classifier.h): partition-local ones are registered on every shard and
// checked against co-partitioned state only; everything else goes to the
// cross-shard coordinator. Per-shard verdicts are merged deterministically
// in registration order, byte-identical to an unsharded ConstraintMonitor
// over the same history (tests/sharded_monitor_test.cc proves this
// differentially). ApplyUpdate applies the shards, then the coordinator,
// one after another on the calling thread.
//
// The coordinator is one more in-memory ConstraintMonitor that sees every
// transition unrouted (the whole batch, every tick), so a cross-shard
// constraint checks against exactly the state an unsharded monitor would
// hold. It is activated lazily: a sharded monitor whose constraints all
// classify partition-local never constructs it and pays nothing for it (no
// shadow database, no share of the checkpoint). Activated after updates
// have been applied (in-memory mode only), it is seeded with the union of
// the shard databases as one batch at the current timestamp, after which
// the newly registered constraint sees precisely what an unsharded monitor
// shows a late-registered constraint: the current state, an empty temporal
// past.
//
// Durability: with MonitorOptions::wal_dir set, the sharded monitor owns
// one DurableLog (monitor/durable_log.h), like an unsharded monitor: each
// batch is logged unrouted, once, before the in-memory shards and
// coordinator apply it, and each checkpoint is one RTICSHD1 payload
// (docs/FORMATS.md §5.5). Restrictions in durable mode: cross-shard
// constraints must be registered before Recover() (the log does not hold
// the seed batch of a coordinator brought up later, so no recovery could
// reproduce it), and replication_standby is rejected (a standby cannot yet
// promote a sharded mirror).

#ifndef RTIC_SHARD_SHARDED_MONITOR_H_
#define RTIC_SHARD_SHARDED_MONITOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "monitor/monitor.h"
#include "monitor/monitor_iface.h"
#include "shard/classifier.h"
#include "shard/partitioner.h"
#include "wal/recovery.h"

namespace rtic {

class DurableLog;

namespace shard {

class ShardedMonitor : public MonitorLike, private wal::ReplayTarget {
 public:
  /// Validates the configuration (1 <= shard_count <= 1024, no
  /// replication) and builds the shard fleet. `options` apply to every
  /// shard except: wal_dir is cleared (the sharded monitor owns the log),
  /// and replication_standby must be empty.
  static Result<std::unique_ptr<ShardedMonitor>> Create(
      std::size_t shard_count, MonitorOptions options = {});

  ~ShardedMonitor() override;

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  // ---- MonitorLike ------------------------------------------------------

  /// Creates the table on every shard, partitioned by column 0.
  Status CreateTable(const std::string& name, Schema schema) override;

  /// Parses, analyzes, classifies, and registers the constraint —
  /// on every shard (partition-local) or on the coordinator
  /// (cross-shard).
  Status RegisterConstraint(const std::string& name,
                            const std::string& text) override;

  /// Durable mode only: restores the tenant's newest checkpoint chain
  /// (shards, coordinator, clock and merged counters together) and replays
  /// the log tail through the router. Same contract as
  /// ConstraintMonitor::Recover(); another shard count or other key
  /// columns are a registration mismatch.
  Result<wal::RecoveryStats> Recover() override;

  /// Routes the batch, applies every sub-batch (plus the full batch to
  /// the active coordinator) in lockstep, and merges the verdicts. The
  /// batch is validated, and in durable mode logged, before any shard
  /// applies it.
  Result<std::vector<Violation>> ApplyUpdate(const UpdateBatch& batch) override;

  Result<std::vector<Violation>> Tick(Timestamp t) override;

  Timestamp current_time() const override { return current_time_; }
  std::size_t transition_count() const override { return transition_count_; }
  std::size_t total_violations() const override { return total_violations_; }
  std::vector<std::string> ConstraintNames() const override;

  /// Registration-order stats. Partition-local entries aggregate across
  /// shards (times/storage sum, worst check is the max of maxes);
  /// violations/transitions are the merged monitor-level counters.
  std::vector<ConstraintStats> Stats() const override;

  std::size_t TotalStorageRows() const override;

  /// Serializes the whole sharded monitor as one RTICSHD1 base checkpoint
  /// (docs/FORMATS.md §5.5), the payload Recover() restores. Fails with
  /// Unimplemented when a shard cannot checkpoint (see
  /// ConstraintMonitor::SaveState()).
  Result<std::string> SaveState() const;

  // ---- sharding surface -------------------------------------------------

  /// CreateTable with an explicit partition key column.
  Status CreateTablePartitioned(const std::string& name, Schema schema,
                                std::size_t key_column);

  /// Stops checking a constraint everywhere it was registered.
  Status UnregisterConstraint(const std::string& name);

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard k's inner monitor (tests and benchmarks inspect state).
  const ConstraintMonitor& shard(std::size_t k) const { return *shards_[k]; }

  /// True once a cross-shard constraint forced the coordinator up.
  bool coordinator_active() const { return coordinator_ != nullptr; }

  /// How `name` classified at registration.
  Result<Classification> ClassificationFor(const std::string& name) const;

  /// Registered constraints that classified partition-local.
  std::size_t PartitionLocalCount() const;

  /// PartitionLocalCount() / registered count (1.0 when none registered —
  /// an empty monitor needs no coordinator).
  double PartitionLocalFraction() const;

 private:
  struct Entry {
    std::string name;
    Classification cls;
    std::size_t transitions = 0;  // transitions since registration (merged)
    std::size_t violations = 0;   // violated transitions (merged)
  };

  ShardedMonitor(MonitorOptions options, std::size_t shard_count);

  bool durable() const { return !options_.wal_dir.empty(); }

  /// Brings the coordinator up (first cross-shard registration), seeding
  /// it with the union of the shard databases as one batch at the current
  /// timestamp when updates already ran (in-memory mode only).
  Status EnsureCoordinator();

  /// The shards, then the coordinator when active.
  std::vector<ConstraintMonitor*> Inners() const;

  /// ApplyUpdate's work, logging to `log` when non-null (replay passes
  /// none) and writing the periodic checkpoint when due.
  Result<std::vector<Violation>> Commit(const UpdateBatch& batch,
                                        DurableLog* log);

  /// One RTICSHD1 base or delta payload around `inner(m)` for each of
  /// Inners().
  Result<std::string> Serialize(
      bool delta,
      const std::function<Result<std::string>(ConstraintMonitor*)>& inner)
      const;

  /// Parses and validates an RTICSHD1 base or delta payload, then installs
  /// it (each inner payload through LoadState or LoadStateDelta). A
  /// payload written under another registration is FailedPrecondition and
  /// changes nothing.
  Status Restore(const std::string& data, bool delta);

  // wal::ReplayTarget, driven by log_ during Recover() and at checkpoints.
  Status RestoreCheckpoint(const std::string& payload) override {
    return Restore(payload, /*delta=*/false);
  }
  Status RestoreCheckpointDelta(const std::string& payload) override {
    return Restore(payload, /*delta=*/true);
  }
  Status Replay(const UpdateBatch& batch) override {
    return Commit(batch, nullptr).status();
  }
  Result<std::string> CaptureCheckpoint() override;
  Result<std::string> CaptureCheckpointDelta() override;

  MonitorOptions options_;
  Partitioner partitioner_;
  tl::PredicateCatalog catalog_;  // every table's schema
  std::vector<std::unique_ptr<ConstraintMonitor>> shards_;
  std::unique_ptr<ConstraintMonitor> coordinator_;  // null until needed
  std::vector<Entry> entries_;                      // registration order
  Timestamp current_time_ = 0;
  std::size_t transition_count_ = 0;
  std::size_t total_violations_ = 0;
  std::unique_ptr<DurableLog> log_;  // non-null once Recover() succeeded
};

}  // namespace shard
}  // namespace rtic

#endif  // RTIC_SHARD_SHARDED_MONITOR_H_
