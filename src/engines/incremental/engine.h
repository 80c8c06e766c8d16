// IncrementalEngine: the paper's contribution — history-less checking of
// metric past temporal constraints by bounded history encoding.
//
// For each temporal subformula the engine keeps an auxiliary structure:
//   previous[I] φ : the body's satisfaction relation at the previous state;
//   once[I] φ     : valuation -> pruned ascending anchor timestamps where φ
//                   held;
//   φ since[I] ψ  : valuation -> pruned anchors where ψ held, entries
//                   dropped the moment φ fails for them.
//
// A transition to state D at time t updates the network bottom-up:
// each node evaluates its body against D (child temporal nodes resolve to
// their already-updated current relations), folds the result into its
// anchors, prunes (expiry + dominance per PruningPolicy), and publishes its
// current satisfaction relation. Finally the whole constraint is evaluated
// with temporal leaves resolved from those relations. Nothing depends on
// the history's length — only on the current state, the previous auxiliary
// state, and the two timestamps.
//
// Each first-order evaluation a transition makes — a node's body (both
// sides of a since) and the verdict — keeps its result keyed by what it
// read: the (id, version) of every table it scanned, the current_version of
// every temporal node it resolved, and, if it consulted the quantification
// domain, the tracker's size. When the key still matches, the kept relation
// is the evaluation's result and fo::Evaluate is skipped; everything else
// (appending anchors, filtering survivors, advancing the expiry wheel) runs
// as always. Clock ticks and updates to unrelated tables thus cost a key
// check per evaluation.
//
// A standalone engine (Create) owns all of that state, and a private scan
// cache (fo/scan_cache.h). Inside a monitor, engines are linked into an
// inc::SubplanDag (subplan_dag.h), which gives identical temporal nodes,
// identical verdicts and the domain tracker one shared object each, written
// by one engine and read by the others; and they scan atoms through the
// monitor's one cache (UseScanCache). Verdicts and checkpoints are the same
// either way.
//
// The domain tracker is maintained only where an engine holding it can
// read it (tl::Analysis::reads_domain() of the normalized constraint).
// Otherwise it stays empty, absorbs nothing, and checkpoints carry an empty
// domain section under the same format.

#ifndef RTIC_ENGINES_INCREMENTAL_ENGINE_H_
#define RTIC_ENGINES_INCREMENTAL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "engines/checker_engine.h"
#include "engines/incremental/anchor_store.h"
#include "engines/incremental/compiler.h"
#include "engines/incremental/pruning.h"
#include "fo/eval.h"
#include "ra/relation.h"
#include "storage/domain_tracker.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {

/// Options controlling an IncrementalEngine.
struct IncrementalOptions {
  /// kFull is the paper's bounded encoding; kExpiryOnly is the E6 ablation.
  PruningPolicy pruning = PruningPolicy::kFull;

  /// Extra constants contributing to every state's active domain.
  std::vector<Value> extra_constants;
};

namespace inc {

class SubplanDag;

/// Mutable runtime state of one temporal node (parallel to the compiled
/// network). See IncrementalEngine for the encoding per operator kind.
struct NodeState {
  Relation current;     // satisfaction at the current state
  Relation prev_body;   // previous-state body satisfaction (kPrevious)
  AnchorStore anchors;  // columnar anchor table (kOnce / kSince)
  /// Bumped whenever `current`'s content changes (exact for once/since,
  /// where publication is delta-driven; for previous nodes, bumped unless
  /// the new relation shares the old one's row storage). Kept results of
  /// evaluations that resolved this node are keyed by it (see
  /// IncrementalEngine::EvaluateKept).
  std::uint64_t current_version = 0;
  // Dirty-since-MarkStateSaved bits; set by mutation, cleared by
  // MarkStateSaved.
  bool current_dirty = false;
  bool prev_body_dirty = false;
  bool anchors_dirty = false;
};

/// A whole constraint's verdict at the latest transition, and its
/// counterexamples once someone asked for them.
struct Verdict {
  Status status;
  bool holds = false;
  bool cex_current = false;  // `cex_status`/`cex` belong to this transition
  Status cex_status;
  Relation cex;
};

}  // namespace inc

/// Bounded-history-encoding checker.
class IncrementalEngine : public CheckerEngine {
 public:
  /// Compiles `constraint` (closed) against `catalog`. The engine stores a
  /// normalized clone (implies/historically eliminated).
  static Result<std::unique_ptr<IncrementalEngine>> Create(
      const tl::Formula& constraint, const tl::PredicateCatalog& catalog,
      IncrementalOptions options = {});

  Result<bool> OnTransition(const Database& state, Timestamp t) override;
  Result<Relation> CurrentCounterexamples(const Database& state) override;
  std::size_t StorageRows() const override;
  const char* name() const override { return "incremental"; }

  /// How many handles (temporal nodes + verdict) this engine coalesced with
  /// earlier ones when its SubplanDag added it, less any a restore split
  /// off again. 0 for a standalone engine.
  std::size_t SharedSubplans() const override { return shared_subplans_; }

  /// How many of the objects this engine uses (its domain tracker, temporal
  /// nodes and verdict) it writes itself; a SubplanDag leaves the others to
  /// the engine added earlier that writes them.
  std::size_t WrittenObjects() const;

  /// Total anchor timestamps retained across all aux tables (space metric
  /// for E2/E6; StorageRows also counts previous-node relations). O(nodes):
  /// the columnar stores maintain their counts.
  std::size_t AuxTimestampCount() const override;

  /// Number of distinct valuations retained across all aux tables.
  std::size_t AuxValuationCount() const override;

  /// The compiled network (introspection for tests and DESIGN docs).
  const inc::CompiledNetwork& network() const { return network_; }

  /// The normalized constraint the engine actually runs.
  const tl::Formula& normalized_constraint() const { return *constraint_; }

  /// Scans atoms through `cache` (a monitor passes one to all of its
  /// engines) instead of the engine's private one; verdicts are the same.
  void UseScanCache(std::shared_ptr<fo::ScanCache> cache) {
    scratch_.UseScanCache(std::move(cache));
  }

  /// Serializes the checker's complete state — clock, cumulative domain,
  /// and every auxiliary structure — to a portable text checkpoint. Because
  /// the encoding is bounded, the checkpoint is small regardless of how
  /// much history has been processed; together with the constraint text it
  /// is everything needed to resume monitoring after a restart, with no
  /// history replay. Shared objects serialize exactly as if owned.
  Result<std::string> SaveState() const override;

  /// Restores a SaveState() checkpoint into an engine compiled from the
  /// SAME constraint (validated against the checkpoint). Replaces all
  /// current state; subsequent verdicts are identical to an uninterrupted
  /// run. Installs only the objects this engine writes; a monitor restores
  /// its linked engines together through SubplanDag::LoadState.
  Status LoadState(const std::string& data) override;

  // Delta checkpoints (see checker_engine.h for the protocol). Dirty
  // tracking is per node and per relation — `current`, `prev_body`, and the
  // anchor table each carry their own bit. For once/since nodes the bits
  // are driven by the anchor store's exact mutation flags (free — no
  // snapshot-and-compare), so a delta serializes only the relations that
  // actually changed since the last MarkStateSaved(), plus the domain
  // values absorbed since then. SaveStateDelta() still refuses before
  // BeginDeltaTracking(): without a baseline there is nothing to delta
  // against. LoadStateDelta, too, applies only to the objects this engine
  // writes: a reader's delta repeats its writer's, which the monitor
  // applies first (registration order).
  bool StateDirty() const override;
  bool SupportsStateDelta() const override { return true; }
  void BeginDeltaTracking() override;
  Result<std::string> SaveStateDelta() const override;
  Status LoadStateDelta(const std::string& data) override;
  void MarkStateSaved() override;

 private:
  IncrementalEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
                    inc::CompiledNetwork network, IncrementalOptions options);

  /// A kept evaluation result and the inputs it was computed from.
  struct Kept {
    struct TableInput {
      const Table* table = nullptr;  // valid while layout_id matches
      std::uint64_t id = 0;
      std::uint64_t version = 0;
    };
    bool valid = false;
    std::uint64_t layout_id = 0;  // Database::layout_id() when kept
    std::vector<TableInput> tables;
    // (network index, current_version) of each temporal node resolved.
    std::vector<std::pair<std::size_t, std::uint64_t>> nodes;
    bool domain = false;  // consulted the domain; then keyed by its size
    std::size_t domain_size = 0;
    Relation rel;
  };

  fo::EvalContext ContextFor(const Database& state);
  Status UpdateNode(std::size_t i, const Database& state, Timestamp t);

  /// fo::Evaluate(f) for evaluation site `site` (node i's child c at
  /// 2i + c, the verdict at 2 * nodes): the kept result when none of its
  /// inputs changed, else a fresh evaluation, kept unless it failed or `f`
  /// is a bare temporal leaf (keeping that would pin the node's `current`
  /// and force a copy on its next in-place update).
  Result<Relation> EvaluateKept(const tl::Formula& f, std::size_t site,
                                const Database& state);
  bool InputsUnchanged(const Kept& kept, const Database& state) const;

  /// Applies node i's interval / pruning policy / survivor projection to an
  /// anchor store (a fresh node's, or one staged from a checkpoint).
  void ConfigureNodeStore(std::size_t i, inc::AnchorStore* store) const;

  /// A SaveState() blob, parsed and validated but not yet installed.
  struct Staged {
    bool has_prev = false;
    Timestamp prev_time = 0;
    DomainTracker domain;
    std::vector<inc::NodeState> nodes;
    // The blob's bytes for the clock and domain, and for each node (index
    // token excluded), which SubplanDag::LoadState compares across engines.
    std::string_view domain_bytes;
    std::vector<std::string_view> node_bytes;
  };
  Result<Staged> ParseState(std::string_view data) const;

  /// Installs `staged` into the objects this engine writes (its readers'
  /// copies are installed by their writers), and drops every kept result:
  /// restored node versions restart at zero.
  void InstallState(Staged staged);

  friend class inc::SubplanDag;

  /// An object this engine uses, possibly shared through a SubplanDag, and
  /// whether this engine is the one that writes it.
  template <typename T>
  struct Slot {
    std::shared_ptr<T> state = std::make_shared<T>();
    bool writer = true;
  };

  tl::FormulaPtr constraint_;
  tl::Analysis analysis_;
  inc::CompiledNetwork network_;
  IncrementalOptions options_;
  std::vector<Slot<inc::NodeState>> nodes_;  // parallel to network_.nodes
  Slot<DomainTracker> domain_;
  Slot<inc::Verdict> verdict_;
  std::size_t shared_subplans_ = 0;
  fo::EvalScratch scratch_;
  std::vector<Kept> kept_;  // per evaluation site (see EvaluateKept)
  bool has_prev_ = false;
  Timestamp prev_time_ = 0;

  // Delta-checkpoint baseline (state as of the last MarkStateSaved()).
  bool delta_tracking_ = false;
  std::size_t domain_saved_count_ = 0;
  bool saved_has_prev_ = false;
  Timestamp saved_prev_time_ = 0;
};

}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_ENGINE_H_
