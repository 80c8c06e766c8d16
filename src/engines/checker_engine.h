// CheckerEngine: the interface every constraint-checking strategy
// implements. Three implementations exist:
//   * NaiveEngine       — stores the full history, re-evaluates from scratch
//                         (the baseline the paper improves on),
//   * IncrementalEngine — bounded history encoding (the contribution),
//   * ActiveEngine      — ECA trigger programs on an active-DBMS substrate
//                         (the implementation route of the follow-up work).
// All three produce identical verdicts; the cross-engine property suite
// checks this on randomized histories.

#ifndef RTIC_ENGINES_CHECKER_ENGINE_H_
#define RTIC_ENGINES_CHECKER_ENGINE_H_

#include "common/interval.h"
#include "common/result.h"
#include "ra/relation.h"
#include "storage/database.h"

namespace rtic {

/// One registered constraint's checking strategy.
///
/// An engine treats `state` as read-only and owns all of its mutable state
/// (aux relations, domain tracker, history copies). The one exception is
/// incremental engines linked by an inc::SubplanDag: each shared object is
/// written by one engine and only read by the others, so the writer must
/// finish its transition before any reader starts (the monitor checks in
/// registration order; see subplan_dag.h). Not thread-safe.
class CheckerEngine {
 public:
  virtual ~CheckerEngine() = default;

  /// Processes the next history state (timestamps strictly increasing).
  /// Returns true iff the constraint HOLDS at this state.
  virtual Result<bool> OnTransition(const Database& state, Timestamp t) = 0;

  /// Counterexample valuations for the outermost universally quantified
  /// variables at the most recent state. Meaningful after OnTransition
  /// returned false; a zero-column relation if the constraint is not of
  /// `forall ...:` shape. `state` must be the database state last passed to
  /// OnTransition (the engine does not retain a snapshot of it).
  virtual Result<Relation> CurrentCounterexamples(const Database& state) = 0;

  /// Rows of auxiliary/history storage the engine currently retains — the
  /// space measure of experiment E2.
  virtual std::size_t StorageRows() const = 0;

  /// Distinct valuations across the engine's temporal auxiliary tables.
  /// 0 for engines without such tables (naive, response).
  virtual std::size_t AuxValuationCount() const { return 0; }

  /// Anchor timestamps retained across the engine's temporal auxiliary
  /// tables (the bounded-history space measure). 0 when not applicable.
  virtual std::size_t AuxTimestampCount() const { return 0; }

  /// Number of subplan handles this engine shares with engines registered
  /// earlier (see inc::SubplanDag). 0 for engines without sharing.
  virtual std::size_t SharedSubplans() const { return 0; }

  /// Engine name for reports ("naive", "incremental", "active",
  /// "response").
  virtual const char* name() const = 0;

  /// Serializes the engine's complete state to a portable checkpoint.
  /// Supported by the bounded-state engines (incremental, response), whose
  /// checkpoints stay small regardless of history length; Unimplemented for
  /// engines whose state IS the history.
  virtual Result<std::string> SaveState() const {
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support checkpointing");
  }

  /// Restores a SaveState() checkpoint produced by an engine compiled from
  /// the same constraint. Replaces all current state.
  virtual Status LoadState(const std::string& data) {
    (void)data;
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support checkpointing");
  }

  // ---- Delta checkpoints ----------------------------------------------
  //
  // An engine that supports delta state lets the monitor write checkpoint
  // records whose size is bounded by what changed since the last save
  // rather than by the whole auxiliary state. The monitor drives the
  // protocol: MarkStateSaved() after every successful full or delta save,
  // SaveStateDelta() when the next checkpoint is a delta, and
  // LoadStateDelta() on an engine whose state equals the parent
  // checkpoint's. Engines without delta support fall back to a full
  // SaveState() blob inside the monitor's delta record, gated by
  // StateDirty().

  /// True when state may have changed since the last MarkStateSaved().
  /// The default is conservatively true (always re-serialized).
  virtual bool StateDirty() const { return true; }

  /// True when SaveStateDelta()/LoadStateDelta() are implemented.
  virtual bool SupportsStateDelta() const { return false; }

  /// Arms whatever bookkeeping SaveStateDelta() depends on. The monitor
  /// calls this once on every engine when delta checkpoints are enabled;
  /// engines whose tracking has a per-transition cost keep it off until
  /// then.
  virtual void BeginDeltaTracking() {}

  /// Serializes only the state changed since the last MarkStateSaved().
  virtual Result<std::string> SaveStateDelta() const {
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support delta checkpoints");
  }

  /// Applies a SaveStateDelta() blob on top of state equal to the parent
  /// checkpoint's (base + earlier deltas already installed).
  virtual Status LoadStateDelta(const std::string& data) {
    (void)data;
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support delta checkpoints");
  }

  /// Resets dirty tracking: the current state is now the saved baseline.
  virtual void MarkStateSaved() {}
};

}  // namespace rtic

#endif  // RTIC_ENGINES_CHECKER_ENGINE_H_
