// Constraint classification for the sharded monitor: decide, at
// registration time and by static formula analysis alone, whether a
// constraint can be checked entirely inside each shard (partition-local)
// or needs the cross-shard coordinator's global state.
//
// A constraint is PARTITION-LOCAL when its violation set provably
// decomposes into a disjoint union of per-shard violation sets under the
// table partitioning. The sufficient condition implemented here:
//
//   1. The formula is a (possibly empty) outermost `forall` chain over a
//      body with no further occurrence of the key variable as a binder.
//   2. Every atom R(t1..tk) carries the SAME outer-forall variable x at
//      R's partition-key position (so for any binding of x, every tuple
//      any atom can match — now or anywhere in the past — lives on shard
//      hash(x)).
//   3. Counterexample evaluation is provably active-domain-free: the
//      static mirror of fo/eval.cc's strategy (tl::DomainSafety) shows
//      every variable's bindings come from the co-located atoms
//      themselves, never from the (per-shard, hence partial) active
//      domain.
//
// Under 1-3, for a fixed key value v the subformula's satisfaction at
// every state depends only on tuples keyed v — all routed to shard
// hash(v) at every timestamp (shards tick in lockstep) — so the global
// counterexample set is the disjoint union of the shards' sets and a
// merge in sorted order reproduces the unsharded verdict byte for byte.
// Formulas with no atoms at all are also local: they evaluate
// identically on every shard and the merge deduplicates.
//
// Everything else (atoms keyed by different variables, constants at key
// positions, `exists`-rooted formulas, active-domain fallback) is
// CROSS-SHARD and is routed to the coordinator. The classifier is
// deliberately conservative: a wrong kLocal is a correctness bug, a
// wrong kCross only costs performance.

#ifndef RTIC_SHARD_CLASSIFIER_H_
#define RTIC_SHARD_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "shard/partitioner.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {
namespace shard {

enum class ShardClass {
  kPartitionLocal,  // checked independently inside every shard
  kCrossShard,      // checked by the coordinator over global state
};

const char* ShardClassToString(ShardClass c);

/// One constraint's verdict, with the evidence.
struct Classification {
  ShardClass cls = ShardClass::kCrossShard;

  /// The common partition-key variable (kPartitionLocal with atoms only).
  std::string key_var;

  /// Why the constraint classified the way it did (one line, for logs,
  /// tests, and the E16 report).
  std::string reason;

  bool local() const { return cls == ShardClass::kPartitionLocal; }
};

/// All atoms of `formula` in syntax order (pre-order walk).
std::vector<const tl::Formula*> CollectAtoms(const tl::Formula& formula);

/// Classifies `formula` against the partition map. Fails only if an atom
/// references a table the partitioner does not know (callers register
/// tables first; the analyzer catches unknown predicates earlier with a
/// better message). `analysis` must be the analysis of this exact tree.
Result<Classification> Classify(const tl::Formula& formula,
                                const tl::Analysis& analysis,
                                const Partitioner& partitioner);

}  // namespace shard
}  // namespace rtic

#endif  // RTIC_SHARD_CLASSIFIER_H_
