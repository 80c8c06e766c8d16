// The cross-shard coordinator: the full-stream fallback for constraints
// the classifier cannot prove partition-local.
//
// The coordinator is one ordinary ConstraintMonitor, owned by the
// ShardedMonitor, that sees EVERY
// transition unrouted (the whole batch, every tick), so a cross-shard
// constraint checks against exactly the state an unsharded monitor would
// hold. It is lazily activated: a sharded monitor whose constraints all
// classify partition-local never constructs it and pays zero coordinator
// overhead (no shadow database, no share of the checkpoint). It is always
// in-memory: a durable sharded monitor logs every batch once, for the
// shards and the coordinator together, and checkpoints the coordinator's
// state inside its own.
//
// Late activation (first cross-shard constraint registered after updates
// have been applied, in-memory mode only) seeds the coordinator's
// database with the union of the shard databases via one synthetic batch
// at the current timestamp — after which registering the constraint sees
// precisely what an unsharded monitor would show a late-registered
// constraint: the current state, an empty temporal past. The tenant's log
// does not hold that seed batch, so no recovery could reproduce it, and
// durable sharded monitors require cross-shard constraints to be
// registered before Recover().
//
// This header also hosts the deterministic violation merge: the function
// that folds per-shard verdicts for a partition-local constraint into
// the byte-identical unsharded report.

#ifndef RTIC_SHARD_COORDINATOR_H_
#define RTIC_SHARD_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "monitor/monitor.h"

namespace rtic {
namespace shard {

/// Merges one partition-local constraint's per-shard violations (the
/// entries named `name` in each shard's report, if any) into the
/// unsharded report. Witness lists are per-shard sorted prefixes of
/// disjoint row sets, so: concatenate, sort, dedupe, truncate to
/// `max_witnesses`. Byte-identical to the single monitor because any row
/// in the global sorted top-K has fewer than K predecessors globally, a
/// fortiori within its own shard — per-shard truncation to K never drops
/// a globally surviving row. Returns false when no shard violated.
bool MergeShardViolations(const std::string& name,
                          const std::vector<std::vector<Violation>>& per_shard,
                          std::size_t max_witnesses, Violation* merged);

}  // namespace shard
}  // namespace rtic

#endif  // RTIC_SHARD_COORDINATOR_H_
