// SubplanDag: one monitor's incremental engines, linked so that each
// temporal subformula's state is kept once however many constraints
// contain it.
//
// The bounded history encoding keeps one auxiliary structure per temporal
// subformula, and that state is a function of the subformula, the pruning
// policy, the extra constants and the transitions seen. Within one monitor
// the policy and the constants are the same for every engine, so engines
// registered at the same transition count (the same epoch) whose
// subformulas print identically (normalized, intervals included) hold
// identical state. The DAG interns three kinds of object by that text
// within an epoch:
//   * a temporal node's state (inc::NodeState),
//   * a whole constraint's verdict, shared by identical constraints,
//   * the cumulative domain tracker, which depends on the stream alone.
// ConstraintStats::shared_subplans counts, per engine, the node and verdict
// handles it took over from an earlier engine when it was added.
//
// Each object has exactly one writer: the earliest-added live engine that
// references it (its earliest slot, when a constraint repeats a
// subformula). The writer updates the object inside its own OnTransition,
// with its own formula, analysis and scratch; every other engine only reads
// it. Registration order is therefore a topological order of the DAG, and
// checking engines in that order, as the monitor does, updates every
// object before anyone reads it, with no lock and no counter. Removing a
// writer hands each of its objects to the next live reader. A domain
// tracker is also maintained (absorbs states) only while some engine
// holding it can read it (tl::Analysis::reads_domain()); the DAG decides
// that wherever it assigns writers, so a tracker left only to domain-free
// engines by a removal, or split off at a restore, is decided again by the
// engines left holding it. A tracker can only start being maintained when
// it joins an engine of its own epoch, before either has seen a state, so
// a maintained tracker always covers its whole epoch. (A
// writer whose evaluation fails leaves its objects partly updated for that
// transition; the monitor reports the writer's error, which comes first in
// registration order. Registration validates constraints, so such errors
// are internal ones.)
//
// A restore installs each object once, from its writer's checkpoint. Two
// engines keep sharing an object only if their checkpoints agree on it, and
// on everything it reads (the domain, and for a node the nodes in its
// body); a restarted process registers every constraint at epoch 0, so
// constraints that were registered at different epochs before the restart
// are split apart again here.
//
// Not thread-safe: the monitor calls it between transitions.

#ifndef RTIC_ENGINES_INCREMENTAL_SUBPLAN_DAG_H_
#define RTIC_ENGINES_INCREMENTAL_SUBPLAN_DAG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace rtic {

class IncrementalEngine;

namespace inc {

class SubplanDag {
 public:
  /// Adds `engine`, registered after every engine already added, at
  /// transition count `epoch`, and points its temporal nodes, verdict and
  /// domain tracker at the identical objects of engines added at the same
  /// epoch. All engines of one DAG must share pruning policy and extra
  /// constants. The engine must not have seen a transition yet.
  void Add(IncrementalEngine* engine, std::uint64_t epoch);

  /// Removes `engine` (before it is destroyed). Its readers take over the
  /// objects it wrote.
  void Remove(const IncrementalEngine* engine);

  /// Restores every engine from its SaveState() blob, `blobs[k]` for the
  /// k-th engine in registration order. Nothing changes unless every blob
  /// parses. Kept results are dropped.
  Status LoadState(const std::vector<const std::string*>& blobs);

 private:
  struct Member {
    IncrementalEngine* engine = nullptr;
    std::uint64_t epoch = 0;
    std::vector<std::string> node_texts;  // printed temporal subformulas
    std::string text;                     // printed constraint
  };

  /// Makes the earliest slot referencing each object its writer, and
  /// maintains each domain tracker iff an engine holding it reads it.
  void AssignWriters();

  std::vector<Member> members_;  // registration order
};

}  // namespace inc
}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_SUBPLAN_DAG_H_
