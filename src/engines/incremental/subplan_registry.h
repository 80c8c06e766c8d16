// SubplanRegistry: cross-constraint sharing of temporal subplan state.
//
// A monitor often runs many constraints containing syntactically identical
// temporal subformulas (after normalization the printer gives a canonical
// text, intervals included). Their auxiliary state — and, for byte-identical
// constraints, the final verdict — is a pure function of (registration
// epoch, pruning policy, extra constants, subformula text, transition
// stream), so engines registered at the same epoch can evaluate each
// equivalence class ONCE per transition and fan the result out.
//
// Sharing protocol (lockstep counters, no timestamps):
//   * every engine keeps a local transition counter; all engines in one
//     monitor advance it together (the monitor fans each update out to all
//     of them before accepting the next);
//   * for transition k+1, the first engine to lock a shared object with
//     applied_transitions == k performs the update and publishes k+1; every
//     other engine sees k+1 under the same mutex and reuses the state.
//   Lock passage establishes the happens-before edge, and nothing writes a
//   shared object for transition k+1 after its counter reads k+1, so
//   followers may read the published relations without holding the lock.
//
// Entries are weak: the registry does not keep state alive. When the last
// engine for a key unregisters, the state dies with it.

#ifndef RTIC_ENGINES_INCREMENTAL_SUBPLAN_REGISTRY_H_
#define RTIC_ENGINES_INCREMENTAL_SUBPLAN_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "engines/incremental/anchor_store.h"
#include "ra/relation.h"
#include "storage/domain_tracker.h"
#include "types/tuple.h"

namespace rtic {
namespace inc {

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

/// One temporal subformula's shareable state.
struct SharedNode {
  std::mutex mu;
  std::uint64_t applied_transitions = 0;
  NodeState st;
};

/// A full constraint's per-transition verdict and counterexample set,
/// shared by engines running byte-identical constraints.
struct SharedVerdict {
  std::mutex mu;
  std::uint64_t verdict_transitions = 0;
  Status status;
  bool holds = false;
  std::uint64_t cex_transitions = 0;
  Status cex_status;
  Relation cex;
};

/// The history's cumulative active domain; a function of the transition
/// stream alone, so one absorb per transition serves every sharer.
struct SharedDomain {
  std::mutex mu;
  std::uint64_t absorbed_transitions = 0;
  DomainTracker tracker;
};

/// Weak-interning registry, one per monitor. Thread-safe.
class SubplanRegistry {
 public:
  /// `shared` reports whether a live entry for the key already existed —
  /// i.e. whether this acquisition coalesced with another engine.
  struct NodeHandle {
    std::shared_ptr<SharedNode> node;
    bool shared = false;
  };
  struct VerdictHandle {
    std::shared_ptr<SharedVerdict> verdict;
    bool shared = false;
  };
  struct DomainHandle {
    std::shared_ptr<SharedDomain> domain;
    bool shared = false;
  };

  NodeHandle AcquireNode(const std::string& key);
  VerdictHandle AcquireVerdict(const std::string& key);
  DomainHandle AcquireDomain(const std::string& key);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<SharedNode>> nodes_;
  std::unordered_map<std::string, std::weak_ptr<SharedVerdict>> verdicts_;
  std::unordered_map<std::string, std::weak_ptr<SharedDomain>> domains_;
};

}  // namespace inc
}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_SUBPLAN_REGISTRY_H_
