// AnchorStore: columnar auxiliary store for the once/since anchor tables.
//
// The bounded-history encoding keeps, per temporal node, a table
// (valuation -> ascending anchor timestamps). The former representation —
// unordered_map<Tuple, vector<Timestamp>> — forced the per-transition tail
// to be O(live state): every valuation was pruned and the node's current
// relation rebuilt from scratch on every transition, so steady-state cost
// tracked how much state was *alive* instead of how much *changed*. This
// store keeps the same table in a machine-sympathetic layout and makes the
// tail O(changed):
//
//   * dictionary — valuation tuples are hash-consed through the dictionary
//     itself (each distinct valuation's payload is stored once, with a
//     cached hash; slots share it) and mapped to dense slot ids;
//   * arena — one contiguous Timestamp arena for the whole node; each slot
//     owns a span (begin/len/cap) inside it. Appends extend a span in place
//     or relocate it to the arena tail; pruning only ever drops a prefix or
//     truncates to one element (PruneSpan), so it adjusts offsets without
//     moving a single timestamp. The arena compacts when more than half of
//     it is dead.
//   * expiry/maturity wheel — each slot registers its next *event* time:
//     the earliest future instant at which its canonical pruning or its
//     window membership can change. For an ascending span those are the
//     first anchor's expiry (ts + b + 1) and the first immature anchor's
//     maturity (ts + a); the earlier of the two is pushed, with the slot,
//     onto a vector-backed min-heap ordered by deadline. A transition to
//     time `now` pops every entry <= now and visits exactly those slots plus
//     the ones mutated this transition — no other slot's state can change,
//     by construction.
//
// Canonical-pruning invariant (why checkpoints stay byte-identical to the
// eager per-valuation prune): after Advance(now), every live span equals
// what PruneTimestamps applied on every transition would have left.
// Pruning output changes only when an anchor crosses an expiry or maturity
// boundary, and every such crossing is a registered wheel deadline, so
// visiting the due slots is exactly as strong as visiting all of them.
//
// Publication is incremental: callers pass the node's current satisfaction
// relation and the store applies insert/erase deltas as memberships flip,
// instead of rebuilding it. The relation's shared row storage therefore
// survives across transitions and the join indexes cached on it stay hot.
//
// Not thread-safe: like the rest of its NodeState, a store is written by
// one engine at a time (its writer; see subplan_dag.h). Copyable.

#ifndef RTIC_ENGINES_INCREMENTAL_ANCHOR_STORE_H_
#define RTIC_ENGINES_INCREMENTAL_ANCHOR_STORE_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "engines/incremental/pruning.h"
#include "ra/relation.h"
#include "storage/codec.h"
#include "types/tuple.h"

namespace rtic {
namespace inc {

class AnchorStore {
 public:
  using SlotId = std::uint32_t;

  AnchorStore() = default;
  AnchorStore(const AnchorStore&) = default;
  AnchorStore& operator=(const AnchorStore&) = default;
  AnchorStore(AnchorStore&&) = default;
  AnchorStore& operator=(AnchorStore&&) = default;

  /// Sets the owning node's operator interval and pruning policy. Must be
  /// called before the first mutation and again after a move-assignment
  /// from an unconfigured store (checkpoint staging).
  void Configure(const TimeInterval& interval, PruningPolicy policy);

  /// Enables `since` support: `projection` maps node columns to the lhs's
  /// columns for the survivor filter (`identity` when it is 0..n-1 over the
  /// full arity), and slots created since the last filter are tracked so an
  /// unchanged lhs filters only those.
  void ConfigureSince(std::vector<std::size_t> projection, bool identity);

  // ---- Per-transition mutators ------------------------------------------

  /// Appends anchor `t` for `valuation`, creating its slot if absent.
  /// `t` must be strictly greater than every anchor already in the slot
  /// (the engine feeds strictly increasing transition times).
  void Append(const Tuple& valuation, Timestamp t);

  /// `since` survivor filter: erases every slot whose projected valuation
  /// is absent from `lhs`, removing its tuple from `current` if published.
  /// When `lhs` shares row storage with the previous call's argument, only
  /// slots created since that call are probed — every other slot already
  /// passed a filter against identical content.
  void FilterSurvivors(const Relation& lhs, Relation* current);

  /// What one transition changed (returned by Advance).
  struct Delta {
    bool anchors_changed = false;  // any append / erase / prune took effect
    bool current_changed = false;  // any insert/erase applied to `current`
  };

  /// Completes a transition at time `now`: visits the slots mutated since
  /// the last Advance plus the slots whose wheel deadline has arrived,
  /// prunes their spans, applies membership insert/erase deltas to
  /// `current`, and re-registers deadlines. All other slots are untouched.
  Delta Advance(Timestamp now, Relation* current);

  // ---- Checkpoint codec (byte-compatible with the map encoding) ---------

  /// Serializes entries sorted by valuation — byte-identical to the former
  /// WriteAnchors over an equal map, regardless of slot history.
  void EncodeSorted(StateWriter* w) const;

  /// Replaces the store's content from a checkpoint (same wire format as
  /// the former ReadAnchorsInto). The caller must Configure (if needed) and
  /// Rehydrate afterwards.
  Status DecodeReplace(StateReader* r);

  /// Rebuilds the derived state — membership flags from `current`, wheel
  /// deadlines at time `now` — after DecodeReplace or a state copy whose
  /// clock moved (delta-chain restore). Also drops the survivor-filter
  /// memo, so the next FilterSurvivors probes every slot.
  void Rehydrate(Timestamp now, const Relation& current);

  /// Recomputes only the membership flags from `current`, keeping the wheel
  /// intact. For delta-chain restores where `current` was replaced but the
  /// anchor table was not: queued (absolute) deadlines still describe the
  /// span's pending events and must survive.
  void ResetMembership(const Relation& current);

  // ---- Observability ----------------------------------------------------

  std::size_t valuations() const { return dict_.size(); }
  std::size_t timestamps() const { return live_timestamps_; }
  std::size_t arena_size() const { return arena_.size(); }

  /// Sorted (valuation, timestamps) view for tests and differential
  /// harnesses.
  std::vector<std::pair<Tuple, std::vector<Timestamp>>> Snapshot() const;

 private:
  static constexpr Timestamp kNoDeadline =
      std::numeric_limits<Timestamp>::max();

  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  SlotId AllocSlot(Tuple valuation);
  void FreeSlot(SlotId s, Relation* current);
  void Touch(SlotId s);
  /// Probes `lhs` for slot `s`'s (projected) valuation.
  bool Survives(SlotId s, const Relation& lhs) const;
  /// Prune + membership delta + deadline re-registration for one slot.
  void ProcessSlot(SlotId s, Timestamp now, Relation* current);
  /// The earliest future event time for the span, or kNoDeadline.
  Timestamp NextDeadline(const Span& sp, Timestamp now) const;
  void Register(SlotId s, Timestamp deadline);
  /// Records that `tuple`'s membership in `current` flips from `was_in`.
  void RecordFlip(const Tuple& tuple, bool was_in);
  /// Moves the span's data to the arena tail with capacity `new_cap`.
  void Grow(SlotId s, std::uint32_t new_cap);
  void MaybeCompact();

  TimeInterval interval_;
  PruningPolicy policy_ = PruningPolicy::kFull;
  std::vector<std::size_t> lhs_projection_;
  bool identity_projection_ = true;
  bool track_creations_ = false;  // since nodes only

  std::unordered_map<Tuple, SlotId, TupleHash> dict_;
  std::vector<Tuple> slot_tuples_;   // slot -> valuation
  std::vector<Span> spans_;          // slot -> arena span
  std::vector<Timestamp> deadline_;  // slot -> registered wheel deadline
  std::vector<char> live_;           // slot -> allocated?
  std::vector<char> in_current_;     // slot -> published in `current`?
  std::vector<char> touched_;        // slot -> pending in touched_slots_?
  std::vector<SlotId> free_slots_;
  std::vector<Timestamp> arena_;
  std::size_t dead_ = 0;  // arena entries outside every span's cap region

  /// Min-heap (std::push_heap with std::greater) of (deadline, slot). A
  /// slot's canonical registration is deadline_[s]; entries whose deadline
  /// disagrees are stale and skipped on pop.
  std::vector<std::pair<Timestamp, SlotId>> wheel_;

  std::vector<SlotId> touched_slots_;        // mutated since last Advance
  std::vector<SlotId> created_since_filter_; // since: unfiltered slots
  Relation last_lhs_;  // pins the row storage the last filter ran against

  std::size_t live_timestamps_ = 0;
  bool mutated_anchors_ = false;

  /// One record per membership flip since the last Advance: the tuple, its
  /// membership before the flip, and the flip's position in this list. The
  /// first record of a tuple holds its pre-transition baseline. Advance
  /// reports current_changed only when some FINAL membership differs from
  /// its baseline, so erase-then-recreate of the same valuation in one
  /// transition correctly reads as "unchanged" — exactly what the former
  /// whole-relation compare concluded. Cleared, not freed, by Advance.
  struct Flip {
    Tuple tuple;
    std::uint32_t order = 0;
    bool was_in = false;
  };
  std::vector<Flip> membership_baseline_;
};

}  // namespace inc
}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_ANCHOR_STORE_H_
