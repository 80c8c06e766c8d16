// MonitorLike: the abstract surface a constraint monitor presents to
// callers that do not care how checking is organized behind it — the RTIC
// server drives tenants through this interface, so a tenant can be one
// ConstraintMonitor or a ShardedMonitor (N partitioned monitors behind a
// router and a cross-shard coordinator, see src/shard) without the
// front-end knowing. Either owns at most one log (monitor/durable_log.h).
//
// The Violation and ConstraintStats value types live here too: they are
// the interface's vocabulary, produced identically by every
// implementation (the sharded monitor's merge is byte-identical to the
// single monitor's output — see tests/sharded_monitor_test.cc).

#ifndef RTIC_MONITOR_MONITOR_IFACE_H_
#define RTIC_MONITOR_MONITOR_IFACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/update_batch.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "wal/recovery.h"

namespace rtic {

/// Cumulative checking statistics for one registered constraint.
struct ConstraintStats {
  std::string name;
  std::size_t transitions = 0;      // states this checker has processed
  std::size_t violations = 0;       // states at which it was violated
  std::int64_t total_check_micros = 0;  // cumulative OnTransition wall time
  std::int64_t max_check_micros = 0;    // worst single check
  std::int64_t last_check_micros = 0;   // most recent check's wall time
  std::size_t storage_rows = 0;     // aux/history rows currently retained
  std::size_t shared_subplans = 0;  // subplan handles coalesced with earlier
                                    // constraints (incremental engines with
                                    // sharing enabled; 0 otherwise)
  std::size_t aux_valuations = 0;   // distinct valuations in temporal aux
                                    // tables (0 for engines without them)
  std::size_t aux_anchors = 0;      // anchor timestamps retained in temporal
                                    // aux tables (bounded-history measure)

  /// Mean per-state check time in microseconds (0 before any state).
  double MeanCheckMicros() const {
    return transitions == 0
               ? 0.0
               : static_cast<double>(total_check_micros) /
                     static_cast<double>(transitions);
  }

  /// One-line report.
  std::string ToString() const;
};

/// One constraint violation at one history state.
struct Violation {
  std::string constraint_name;
  Timestamp timestamp = 0;

  /// Names of the violated constraint's outermost forall variables (empty
  /// when the constraint is not of `forall ...:` shape).
  std::vector<std::string> witness_columns;

  /// Up to MonitorOptions::max_witnesses counterexample valuations.
  std::vector<Tuple> witnesses;

  /// Human-readable one-line report.
  std::string ToString() const;
};

/// Abstract monitor: tables, constraints, transitions, verdicts. Every
/// method matches ConstraintMonitor's semantics (see monitor.h for the
/// authoritative contracts); implementations must return identical
/// verdicts for identical histories.
class MonitorLike {
 public:
  virtual ~MonitorLike() = default;

  /// Creates a monitored table (before the first update only).
  virtual Status CreateTable(const std::string& name, Schema schema) = 0;

  /// Parses, analyzes, and compiles a constraint.
  virtual Status RegisterConstraint(const std::string& name,
                                    const std::string& text) = 0;

  /// Durable mode only: restore + replay; must run after registration and
  /// before the first update.
  virtual Result<wal::RecoveryStats> Recover() = 0;

  /// Commits one transition and returns the violations at the new state.
  /// The first batch may carry any timestamp; each later one must exceed
  /// the previous (InvalidArgument otherwise).
  virtual Result<std::vector<Violation>> ApplyUpdate(
      const UpdateBatch& batch) = 0;

  /// Pure clock tick (a transition that changes no tuples).
  virtual Result<std::vector<Violation>> Tick(Timestamp t) = 0;

  /// Timestamp of the last committed transition (0 before the first).
  virtual Timestamp current_time() const = 0;

  /// Number of transitions committed.
  virtual std::size_t transition_count() const = 0;

  /// Violations accumulated since construction (all constraints).
  virtual std::size_t total_violations() const = 0;

  /// Registered constraint names, in registration order.
  virtual std::vector<std::string> ConstraintNames() const = 0;

  /// Per-constraint checking statistics, in registration order.
  virtual std::vector<ConstraintStats> Stats() const = 0;

  /// Total auxiliary/history rows retained across all checkers.
  virtual std::size_t TotalStorageRows() const = 0;
};

}  // namespace rtic

#endif  // RTIC_MONITOR_MONITOR_IFACE_H_
