#include "engines/incremental/anchor_store.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace rtic {
namespace inc {

void AnchorStore::Configure(const TimeInterval& interval,
                            PruningPolicy policy) {
  interval_ = interval;
  policy_ = policy;
}

void AnchorStore::ConfigureSince(std::vector<std::size_t> projection,
                                 bool identity) {
  lhs_projection_ = std::move(projection);
  identity_projection_ = identity;
  track_creations_ = true;
}

AnchorStore::SlotId AnchorStore::AllocSlot(Tuple valuation) {
  SlotId s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
    slot_tuples_[s] = std::move(valuation);
    spans_[s] = Span{};
    deadline_[s] = kNoDeadline;
    live_[s] = 1;
    in_current_[s] = 0;
    // touched_[s] may still be set from a pending entry; harmless either way.
  } else {
    s = static_cast<SlotId>(slot_tuples_.size());
    slot_tuples_.push_back(std::move(valuation));
    spans_.push_back(Span{});
    deadline_.push_back(kNoDeadline);
    live_.push_back(1);
    in_current_.push_back(0);
    touched_.push_back(0);
  }
  return s;
}

void AnchorStore::FreeSlot(SlotId s, Relation* current) {
  if (in_current_[s]) {
    RecordFlip(slot_tuples_[s], true);
    current->Erase(slot_tuples_[s]);
    in_current_[s] = 0;
  }
  dict_.erase(slot_tuples_[s]);
  live_timestamps_ -= spans_[s].len;
  dead_ += spans_[s].cap;
  spans_[s] = Span{};
  slot_tuples_[s] = Tuple();
  deadline_[s] = kNoDeadline;
  live_[s] = 0;
  free_slots_.push_back(s);
  mutated_anchors_ = true;
}

void AnchorStore::Touch(SlotId s) {
  if (!touched_[s]) {
    touched_[s] = 1;
    touched_slots_.push_back(s);
  }
}

void AnchorStore::Grow(SlotId s, std::uint32_t new_cap) {
  Span& sp = spans_[s];
  std::uint32_t new_begin = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + new_cap);
  std::copy(arena_.begin() + sp.begin, arena_.begin() + sp.begin + sp.len,
            arena_.begin() + new_begin);
  dead_ += sp.cap;
  sp.begin = new_begin;
  sp.cap = new_cap;
}

void AnchorStore::Append(const Tuple& valuation, Timestamp t) {
  auto [it, inserted] = dict_.try_emplace(valuation, 0);
  SlotId s;
  if (inserted) {
    s = AllocSlot(it->first);  // share the dictionary key's payload
    it->second = s;
    if (track_creations_) created_since_filter_.push_back(s);
  } else {
    s = it->second;
    // Unbounded upper bound + full pruning: the earliest anchor dominates
    // every later one, so this anchor would be dropped by this very
    // transition's prune. Skip it — keeps mutation-driven dirty bits exact
    // (the eager prune left the table unchanged in this case).
    if (policy_ == PruningPolicy::kFull && interval_.unbounded() &&
        spans_[s].len > 0) {
      return;
    }
  }
  Span& sp = spans_[s];
  if (sp.len == sp.cap) {
    Grow(s, sp.len == 0 ? 2 : sp.len + (sp.len + 1) / 2);
  }
  Span& sp2 = spans_[s];  // Grow may have relocated the span
  assert(sp2.len == 0 || arena_[sp2.begin + sp2.len - 1] < t);
  arena_[sp2.begin + sp2.len] = t;
  ++sp2.len;
  ++live_timestamps_;
  mutated_anchors_ = true;
  Touch(s);
}

bool AnchorStore::Survives(SlotId s, const Relation& lhs) const {
  const Tuple& val = slot_tuples_[s];
  if (identity_projection_) return lhs.Contains(val);
  std::vector<Value> proj;
  proj.reserve(lhs_projection_.size());
  for (std::size_t c : lhs_projection_) proj.push_back(val.at(c));
  return lhs.Contains(Tuple(std::move(proj)));
}

void AnchorStore::FilterSurvivors(const Relation& lhs, Relation* current) {
  const bool same_lhs = last_lhs_.RowIdentity() != nullptr &&
                        last_lhs_.RowIdentity() == lhs.RowIdentity();
  if (same_lhs) {
    // Every slot that existed at the last filter already passed against
    // this exact row set; only slots created since then need probing.
    for (SlotId s : created_since_filter_) {
      if (!live_[s]) continue;
      if (!Survives(s, lhs)) FreeSlot(s, current);
    }
  } else {
    for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
      if (!live_[s]) continue;
      if (!Survives(s, lhs)) FreeSlot(s, current);
    }
  }
  created_since_filter_.clear();
  last_lhs_ = lhs;  // pins the row storage against pointer reuse
}

Timestamp AnchorStore::NextDeadline(const Span& sp, Timestamp now) const {
  if (sp.len == 0) return kNoDeadline;
  const Timestamp* ts = arena_.data() + sp.begin;
  Timestamp d = kNoDeadline;
  if (!interval_.unbounded() && ts[0] <= kTimeInfinity - interval_.hi() - 1) {
    d = ts[0] + interval_.hi() + 1;  // first anchor's expiry
  }
  if (interval_.lo() > 0) {
    // First immature anchor's maturity.
    const Timestamp* imm =
        std::upper_bound(ts, ts + sp.len, now - interval_.lo());
    if (imm != ts + sp.len && *imm <= kTimeInfinity - interval_.lo()) {
      d = std::min(d, *imm + interval_.lo());
    }
  }
  return d;
}

void AnchorStore::Register(SlotId s, Timestamp deadline) {
  if (deadline_[s] == deadline) return;  // canonical entry already queued
  deadline_[s] = deadline;
  if (deadline == kNoDeadline) return;
  wheel_.emplace_back(deadline, s);
  std::push_heap(wheel_.begin(), wheel_.end(), std::greater<>());
}

void AnchorStore::RecordFlip(const Tuple& tuple, bool was_in) {
  membership_baseline_.push_back(
      {tuple, static_cast<std::uint32_t>(membership_baseline_.size()),
       was_in});
}

void AnchorStore::ProcessSlot(SlotId s, Timestamp now, Relation* current) {
  Span& sp = spans_[s];
  SpanPrune p =
      PruneSpan(arena_.data() + sp.begin, sp.len, now, interval_, policy_);
  std::size_t removed = sp.len - p.keep;
  if (removed > 0) {
    sp.begin += static_cast<std::uint32_t>(p.drop_front);
    sp.cap -= static_cast<std::uint32_t>(p.drop_front);
    sp.len = static_cast<std::uint32_t>(p.keep);
    live_timestamps_ -= removed;
    dead_ += p.drop_front;  // tail slack stays within cap and is reusable
    mutated_anchors_ = true;
  }
  if (sp.len == 0) {
    FreeSlot(s, current);
    return;
  }
  bool in = AnyInWindowSpan(arena_.data() + sp.begin, sp.len, now, interval_);
  if (in != (in_current_[s] != 0)) {
    RecordFlip(slot_tuples_[s], in_current_[s] != 0);
    if (in) {
      current->InsertUnchecked(slot_tuples_[s]);
    } else {
      current->Erase(slot_tuples_[s]);
    }
    in_current_[s] = in ? 1 : 0;
  }
  Register(s, NextDeadline(sp, now));
}

AnchorStore::Delta AnchorStore::Advance(Timestamp now, Relation* current) {
  // Due slots join the touched set; stale entries (a slot re-registered
  // elsewhere, freed, or reused) are skipped by the deadline check — every
  // live slot's canonical entry sits at exactly deadline_[s].
  while (!wheel_.empty() && wheel_.front().first <= now) {
    const auto [deadline, s] = wheel_.front();
    std::pop_heap(wheel_.begin(), wheel_.end(), std::greater<>());
    wheel_.pop_back();
    if (live_[s] && deadline_[s] == deadline) Touch(s);
  }
  for (SlotId s : touched_slots_) {
    touched_[s] = 0;
    if (!live_[s]) continue;  // freed after being touched
    ProcessSlot(s, now, current);
  }
  touched_slots_.clear();
  MaybeCompact();
  Delta d;
  d.anchors_changed = mutated_anchors_;
  // A tuple erased and re-published within one transition nets out: only a
  // final membership differing from its pre-transition baseline counts.
  // Sorting by (tuple, order) puts each tuple's first record, its baseline,
  // at the head of its run (std::sort works in place: nothing allocated).
  std::sort(membership_baseline_.begin(), membership_baseline_.end(),
            [](const Flip& a, const Flip& b) {
              if (a.tuple < b.tuple) return true;
              if (b.tuple < a.tuple) return false;
              return a.order < b.order;
            });
  for (std::size_t i = 0; i < membership_baseline_.size(); ++i) {
    const Flip& f = membership_baseline_[i];
    if (i > 0 && membership_baseline_[i - 1].tuple == f.tuple) continue;
    if (current->Contains(f.tuple) != f.was_in) {
      d.current_changed = true;
      break;
    }
  }
  membership_baseline_.clear();
  mutated_anchors_ = false;
  return d;
}

void AnchorStore::MaybeCompact() {
  if (arena_.size() <= 1024 || dead_ * 2 <= arena_.size()) return;
  std::vector<Timestamp> fresh;
  fresh.reserve(live_timestamps_ + dict_.size());
  for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
    if (!live_[s]) continue;
    Span& sp = spans_[s];
    std::uint32_t new_begin = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), arena_.begin() + sp.begin,
                 arena_.begin() + sp.begin + sp.len);
    fresh.push_back(0);  // one slot of append slack per span
    sp.begin = new_begin;
    sp.cap = sp.len + 1;
  }
  arena_ = std::move(fresh);
  dead_ = 0;
}

void AnchorStore::EncodeSorted(StateWriter* w) const {
  std::vector<SlotId> order;
  order.reserve(dict_.size());
  for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
    if (live_[s]) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [this](SlotId a, SlotId b) {
    return slot_tuples_[a] < slot_tuples_[b];
  });
  w->WriteSize(order.size());
  for (SlotId s : order) {
    w->WriteTuple(slot_tuples_[s]);
    const Span& sp = spans_[s];
    w->WriteSize(sp.len);
    for (std::uint32_t i = 0; i < sp.len; ++i) {
      w->WriteInt(arena_[sp.begin + i]);
    }
  }
}

Status AnchorStore::DecodeReplace(StateReader* r) {
  dict_.clear();
  slot_tuples_.clear();
  spans_.clear();
  deadline_.clear();
  live_.clear();
  in_current_.clear();
  touched_.clear();
  free_slots_.clear();
  arena_.clear();
  wheel_.clear();
  touched_slots_.clear();
  created_since_filter_.clear();
  last_lhs_ = Relation();
  dead_ = 0;
  live_timestamps_ = 0;
  mutated_anchors_ = false;
  membership_baseline_.clear();

  RTIC_ASSIGN_OR_RETURN(std::int64_t anchor_count, r->ReadInt());
  for (std::int64_t i = 0; i < anchor_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(Tuple valuation, r->ReadTuple());
    RTIC_ASSIGN_OR_RETURN(std::int64_t ts_count, r->ReadInt());
    auto [it, inserted] = dict_.try_emplace(std::move(valuation), 0);
    if (!inserted) {
      return Status::InvalidArgument("duplicate checkpoint anchor valuation");
    }
    SlotId s = AllocSlot(it->first);
    it->second = s;
    Span& sp = spans_[s];
    sp.begin = static_cast<std::uint32_t>(arena_.size());
    sp.len = sp.cap =
        static_cast<std::uint32_t>(std::max<std::int64_t>(0, ts_count));
    arena_.reserve(arena_.size() + sp.len);
    Timestamp last = std::numeric_limits<Timestamp>::min();
    for (std::int64_t k = 0; k < ts_count; ++k) {
      RTIC_ASSIGN_OR_RETURN(Timestamp ts, r->ReadInt());
      if (ts <= last) {
        return Status::InvalidArgument(
            "checkpoint anchor timestamps not ascending");
      }
      last = ts;
      arena_.push_back(ts);
    }
    live_timestamps_ += sp.len;
  }
  return Status::OK();
}

void AnchorStore::Rehydrate(Timestamp now, const Relation& current) {
  wheel_.clear();
  touched_slots_.clear();
  created_since_filter_.clear();
  last_lhs_ = Relation();
  mutated_anchors_ = false;
  membership_baseline_.clear();
  std::fill(touched_.begin(), touched_.end(), 0);
  for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
    if (!live_[s]) continue;
    in_current_[s] = current.Contains(slot_tuples_[s]) ? 1 : 0;
    deadline_[s] = kNoDeadline;
    if (spans_[s].len == 0) {
      // A (handcrafted) checkpoint may carry an empty timestamp list; the
      // eager map dropped such entries at the next transition, so queue the
      // slot for the next Advance to free.
      Touch(s);
      continue;
    }
    Register(s, NextDeadline(spans_[s], now));
  }
}

void AnchorStore::ResetMembership(const Relation& current) {
  for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
    if (!live_[s]) continue;
    in_current_[s] = current.Contains(slot_tuples_[s]) ? 1 : 0;
  }
  // The survivor-filter memo is stale relative to the new current.
  last_lhs_ = Relation();
  created_since_filter_.clear();
}

std::vector<std::pair<Tuple, std::vector<Timestamp>>> AnchorStore::Snapshot()
    const {
  std::vector<std::pair<Tuple, std::vector<Timestamp>>> out;
  out.reserve(dict_.size());
  for (SlotId s = 0; s < slot_tuples_.size(); ++s) {
    if (!live_[s]) continue;
    const Span& sp = spans_[s];
    out.emplace_back(slot_tuples_[s],
                     std::vector<Timestamp>(
                         arena_.begin() + sp.begin,
                         arena_.begin() + sp.begin + sp.len));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace inc
}  // namespace rtic
