#include "engines/incremental/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "storage/codec.h"
#include "fo/witness.h"
#include "tl/normalizer.h"

namespace rtic {

using tl::Formula;
using tl::FormulaKind;

Result<std::unique_ptr<IncrementalEngine>> IncrementalEngine::Create(
    const Formula& constraint, const tl::PredicateCatalog& catalog,
    IncrementalOptions options) {
  tl::FormulaPtr normalized = tl::NormalizeForEngines(constraint);
  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis,
                        tl::Analyze(*normalized, catalog));
  if (!analysis.IsClosed(*normalized)) {
    return Status::InvalidArgument(
        "constraint must be a closed formula; free variables remain");
  }
  RTIC_ASSIGN_OR_RETURN(inc::CompiledNetwork network,
                        inc::CompileNetwork(*normalized, analysis));
  return std::unique_ptr<IncrementalEngine>(
      new IncrementalEngine(std::move(normalized), std::move(analysis),
                            std::move(network), std::move(options)));
}

IncrementalEngine::IncrementalEngine(tl::FormulaPtr constraint,
                                     tl::Analysis analysis,
                                     inc::CompiledNetwork network,
                                     IncrementalOptions options)
    : constraint_(std::move(constraint)),
      analysis_(std::move(analysis)),
      network_(std::move(network)),
      options_(std::move(options)) {
  // A standalone engine keeps its tracker only if it can read it; a
  // SubplanDag decides again for the tracker it shares.
  domain_.state->set_maintained(analysis_.reads_domain());
  nodes_.resize(network_.nodes.size());
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    inc::NodeState& ns = *nodes_[i].state;
    ns.current = Relation(network_.nodes[i].columns);
    if (network_.nodes[i].node->kind() == FormulaKind::kPrevious) {
      ns.prev_body = Relation(network_.nodes[i].columns);
    } else {
      ConfigureNodeStore(i, &ns.anchors);
    }
  }
  kept_.resize(2 * network_.nodes.size() + 1);
}

void IncrementalEngine::ConfigureNodeStore(std::size_t i,
                                           inc::AnchorStore* store) const {
  const inc::CompiledNode& cn = network_.nodes[i];
  store->Configure(cn.node->interval(), options_.pruning);
  if (cn.node->kind() == FormulaKind::kSince) {
    // When the lhs binds exactly the node's columns, the projection is the
    // identity and anchor valuations can be probed directly (cached hash,
    // shared payload — no per-entry allocation).
    bool identity = cn.lhs_projection.size() == cn.columns.size();
    for (std::size_t c = 0; identity && c < cn.lhs_projection.size(); ++c) {
      if (cn.lhs_projection[c] != c) identity = false;
    }
    store->ConfigureSince(cn.lhs_projection, identity);
  }
}

fo::EvalContext IncrementalEngine::ContextFor(const Database& state) {
  fo::EvalContext ctx;
  ctx.db = &state;
  ctx.analysis = &analysis_;
  ctx.extra_constants = &options_.extra_constants;
  ctx.domain = domain_.state.get();
  ctx.scratch = &scratch_;
  ctx.resolver = [this](const Formula& node) -> Result<Relation> {
    auto it = network_.index.find(&node);
    if (it == network_.index.end()) {
      return Status::Internal("temporal node missing from compiled network");
    }
    return nodes_[it->second].state->current;  // O(1): shares the row storage
  };
  return ctx;
}

bool IncrementalEngine::InputsUnchanged(const Kept& kept,
                                        const Database& state) const {
  if (!kept.tables.empty() && kept.layout_id != state.layout_id()) {
    return false;
  }
  for (const Kept::TableInput& in : kept.tables) {
    if (in.table->id() != in.id || in.table->version() != in.version) {
      return false;
    }
  }
  for (const auto& [node, version] : kept.nodes) {
    if (nodes_[node].state->current_version != version) return false;
  }
  return !kept.domain || domain_.state->size() == kept.domain_size;
}

Result<Relation> IncrementalEngine::EvaluateKept(const Formula& f,
                                                 std::size_t site,
                                                 const Database& state) {
  Kept& kept = kept_[site];
  if (kept.valid && InputsUnchanged(kept, state)) return kept.rel;

  scratch_.ClearReads();
  Result<Relation> result = fo::Evaluate(f, ContextFor(state));
  const bool leaf = f.kind() == FormulaKind::kPrevious ||
                    f.kind() == FormulaKind::kOnce ||
                    f.kind() == FormulaKind::kSince;
  kept.valid = result.ok() && !leaf;
  if (!kept.valid) {
    kept.rel = Relation();
    return result;
  }
  // The evaluation's result is a function of exactly what it read, so the
  // same reads give the same relation (the path taken through the formula
  // depends only on them, too).
  kept.layout_id = state.layout_id();
  kept.tables.clear();
  for (const Table* table : scratch_.scanned_tables) {
    bool seen = false;
    for (const Kept::TableInput& in : kept.tables) seen |= in.table == table;
    if (!seen) kept.tables.push_back({table, table->id(), table->version()});
  }
  kept.nodes.clear();
  for (const Formula* leaf : scratch_.resolved_leaves) {
    const std::size_t node = network_.index.at(leaf);  // resolved above
    bool seen = false;
    for (const auto& in : kept.nodes) seen |= in.first == node;
    if (!seen) {
      kept.nodes.emplace_back(node, nodes_[node].state->current_version);
    }
  }
  kept.domain = scratch_.domain_consulted;
  kept.domain_size = domain_.state->size();
  kept.rel = *result;
  return result;
}

Status IncrementalEngine::UpdateNode(std::size_t i, const Database& state,
                                     Timestamp t) {
  const inc::CompiledNode& cn = network_.nodes[i];
  inc::NodeState& ns = *nodes_[i].state;

  switch (cn.node->kind()) {
    case FormulaKind::kPrevious: {
      // Current satisfaction: the body held at the previous state and the
      // clock gap lies in the interval. Dirty bits come from comparing
      // against the pre-transition snapshot (cheap here: the compare hits
      // the shared-storage shortcut whenever nothing changed). No path
      // below reads ns.current before overwriting it (a node's body only
      // resolves strictly earlier nodes), so the old relation can be moved
      // out.
      Relation old_current = std::move(ns.current);
      if (has_prev_ && cn.node->interval().Contains(t - prev_time_)) {
        ns.current = ns.prev_body;
      } else {
        ns.current = Relation(cn.columns);
      }
      // Same row storage (or both rowless) means same content; anything
      // else counts as a change (conservative, and O(1)). A body reused
      // across a run of ticks keeps its storage, so the version holds.
      if (ns.current.RowIdentity() != old_current.RowIdentity()) {
        ++ns.current_version;
      }
      // Remember the body's satisfaction *now* for the next transition.
      Result<Relation> body_now =
          EvaluateKept(cn.node->child(0), 2 * i, state);
      if (!body_now.ok()) return body_now.status();
      if (delta_tracking_) {
        if (!(ns.current == old_current)) ns.current_dirty = true;
        if (!(body_now.value() == ns.prev_body)) ns.prev_body_dirty = true;
      }
      ns.prev_body = std::move(body_now).value();
      return Status::OK();
    }
    case FormulaKind::kOnce: {
      Result<Relation> body_now =
          EvaluateKept(cn.node->child(0), 2 * i, state);
      if (!body_now.ok()) return body_now.status();
      for (const Tuple& row : body_now->rows()) ns.anchors.Append(row, t);
      break;
    }
    case FormulaKind::kSince: {
      // Survivor filter: an anchor entry stays only while the lhs keeps
      // holding for its valuation. New anchors need only the rhs now.
      Result<Relation> lhs_now = EvaluateKept(cn.node->child(0), 2 * i, state);
      if (!lhs_now.ok()) return lhs_now.status();
      ns.anchors.FilterSurvivors(*lhs_now, &ns.current);
      Result<Relation> rhs_now =
          EvaluateKept(cn.node->child(1), 2 * i + 1, state);
      if (!rhs_now.ok()) return rhs_now.status();
      for (const Tuple& row : rhs_now->rows()) ns.anchors.Append(row, t);
      break;
    }
    default:
      return Status::Internal("UpdateNode on non-temporal node");
  }

  // Shared once/since tail: the store visits the slots mutated above plus
  // those whose expiry/maturity deadline arrived, prunes their spans, and
  // applies membership insert/erase deltas to ns.current in place — so the
  // published relation keeps its row storage (and cached join indexes)
  // across transitions. The store's mutation flags fire only on actual
  // content changes, so the dirty bits below agree with the old
  // compare-against-snapshot while costing O(changed), not O(live state).
  inc::AnchorStore::Delta delta = ns.anchors.Advance(t, &ns.current);
  if (delta.anchors_changed) ns.anchors_dirty = true;
  if (delta.current_changed) {
    ns.current_dirty = true;
    ++ns.current_version;
  }
  return Status::OK();
}

Result<bool> IncrementalEngine::OnTransition(const Database& state,
                                             Timestamp t) {
  if (has_prev_ && t <= prev_time_) {
    return Status::InvalidArgument(
        "timestamps must be strictly increasing: " + std::to_string(t) +
        " after " + std::to_string(prev_time_));
  }
  // Only the objects this engine writes are updated here. Every object it
  // reads has a writer registered earlier, which the monitor checks first
  // (see subplan_dag.h), so those are already at this transition. An
  // unmaintained tracker absorbs nothing.
  if (domain_.writer) domain_.state->Absorb(state);
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    if (nodes_[i].writer) RTIC_RETURN_IF_ERROR(UpdateNode(i, state, t));
  }
  inc::Verdict& v = *verdict_.state;
  if (verdict_.writer) {
    Result<Relation> verdict =
        EvaluateKept(*constraint_, kept_.size() - 1, state);
    v.status = verdict.status();
    v.holds = verdict.ok() && verdict->AsBool();
    v.cex_current = false;
  }
  if (!v.status.ok()) return v.status;

  has_prev_ = true;
  prev_time_ = t;
  return v.holds;
}

Result<Relation> IncrementalEngine::CurrentCounterexamples(
    const Database& state) {
  if (!has_prev_) {
    return Status::FailedPrecondition("no transitions processed yet");
  }
  inc::Verdict& v = *verdict_.state;
  if (!v.cex_current) {
    // Every evaluation starts from a clear read record, so the record never
    // outgrows one evaluation's reads.
    scratch_.ClearReads();
    Result<Relation> cex =
        fo::ComputeCounterexamples(*constraint_, ContextFor(state));
    // Readers never write a shared verdict. (A monitor checks the writer
    // first, and it asks for counterexamples whenever the verdict fails,
    // so readers find them computed.)
    if (!verdict_.writer) return cex;
    v.cex_status = cex.status();
    v.cex = cex.ok() ? std::move(cex).value() : Relation();
    v.cex_current = true;
  }
  if (!v.cex_status.ok()) return v.cex_status;
  return v.cex;  // O(1): shares the row storage
}

std::size_t IncrementalEngine::StorageRows() const {
  std::size_t n = AuxTimestampCount();
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    if (network_.nodes[i].node->kind() == FormulaKind::kPrevious) {
      n += nodes_[i].state->prev_body.size();
    }
  }
  return n;
}

std::size_t IncrementalEngine::AuxTimestampCount() const {
  // O(nodes): the stores maintain their counts.
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.state->anchors.timestamps();
  return n;
}

std::size_t IncrementalEngine::AuxValuationCount() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.state->anchors.valuations();
  return n;
}

std::size_t IncrementalEngine::WrittenObjects() const {
  std::size_t n = (domain_.writer ? 1 : 0) + (verdict_.writer ? 1 : 0);
  for (const auto& node : nodes_) n += node.writer ? 1 : 0;
  return n;
}

namespace {

constexpr char kCheckpointMagic[] = "RTICINC1";
// Delta checkpoint: only the relations dirtied and the domain values
// absorbed since the last save, applied on top of the parent's state.
constexpr char kDeltaMagic[] = "RTICINCD1";

void WriteRows(StateWriter* w, const Relation& rel) {
  w->WriteSize(rel.size());
  for (const Tuple& row : rel.SortedRows()) w->WriteTuple(row);
}

Status ReadRowsInto(StateReader* r, Relation* rel) {
  RTIC_ASSIGN_OR_RETURN(std::int64_t rows, r->ReadInt());
  for (std::int64_t i = 0; i < rows; ++i) {
    RTIC_ASSIGN_OR_RETURN(Tuple row, r->ReadTuple());
    RTIC_RETURN_IF_ERROR(rel->Insert(std::move(row)));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> IncrementalEngine::SaveState() const {
  StateWriter w;
  w.WriteString(kCheckpointMagic);
  w.WriteString(constraint_->ToString());
  w.WriteInt(has_prev_ ? 1 : 0);
  w.WriteInt(prev_time_);

  std::vector<Value> domain_values = domain_.state->AllValues();
  w.WriteSize(domain_values.size());
  for (const Value& v : domain_values) w.WriteValue(v);

  w.WriteSize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const inc::NodeState& ns = *nodes_[i].state;
    w.WriteSize(i);
    WriteRows(&w, ns.current);
    WriteRows(&w, ns.prev_body);
    // Sorted by valuation (EncodeSorted), so equal states checkpoint to
    // identical bytes regardless of the slot history that produced them —
    // and byte-identical to the former sorted anchor-map encoding.
    ns.anchors.EncodeSorted(&w);
  }
  return w.str();
}

Result<IncrementalEngine::Staged> IncrementalEngine::ParseState(
    std::string_view data) const {
  StateReader r(data);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not an rtic incremental checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::string constraint_text, r.ReadString());
  if (constraint_text != constraint_->ToString()) {
    return Status::FailedPrecondition(
        "checkpoint was produced for a different constraint: " +
        constraint_text);
  }
  Staged staged;
  std::size_t begin = r.position();
  RTIC_ASSIGN_OR_RETURN(std::int64_t has_prev, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(staged.prev_time, r.ReadInt());
  staged.has_prev = has_prev != 0;

  RTIC_ASSIGN_OR_RETURN(std::int64_t domain_count, r.ReadInt());
  std::vector<Value> domain_values;
  for (std::int64_t i = 0; i < domain_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(Value v, r.ReadValue());
    domain_values.push_back(std::move(v));
  }
  staged.domain.AbsorbValues(domain_values);
  staged.domain_bytes = data.substr(begin, r.position() - begin);

  RTIC_ASSIGN_OR_RETURN(std::int64_t node_count, r.ReadInt());
  if (node_count != static_cast<std::int64_t>(network_.nodes.size())) {
    return Status::InvalidArgument("checkpoint node count mismatch");
  }
  staged.nodes.resize(network_.nodes.size());
  for (std::int64_t n = 0; n < node_count; ++n) {
    RTIC_ASSIGN_OR_RETURN(std::int64_t idx, r.ReadInt());
    if (idx != n) return Status::InvalidArgument("checkpoint node order");
    const inc::CompiledNode& cn = network_.nodes[static_cast<std::size_t>(n)];
    inc::NodeState& ns = staged.nodes[static_cast<std::size_t>(n)];

    begin = r.position();
    ns.current = Relation(cn.columns);
    RTIC_RETURN_IF_ERROR(ReadRowsInto(&r, &ns.current));
    ns.prev_body = Relation(cn.columns);
    RTIC_RETURN_IF_ERROR(ReadRowsInto(&r, &ns.prev_body));
    ConfigureNodeStore(static_cast<std::size_t>(n), &ns.anchors);
    RTIC_RETURN_IF_ERROR(ns.anchors.DecodeReplace(&r));
    staged.node_bytes.push_back(data.substr(begin, r.position() - begin));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint");
  }
  return staged;
}

void IncrementalEngine::InstallState(Staged staged) {
  // An unmaintained tracker stays empty: the domain values of a checkpoint
  // written while it was still maintained are dropped.
  if (domain_.writer && domain_.state->maintained()) {
    *domain_.state = std::move(staged.domain);
  }
  has_prev_ = staged.has_prev;
  prev_time_ = staged.prev_time;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].writer) continue;
    inc::NodeState& ns = *nodes_[n].state;
    ns = std::move(staged.nodes[n]);
    // The checkpointed tables are canonical at prev_time_ (the saver pruned
    // them there), so rebuilding membership flags and wheel deadlines at
    // the same instant reproduces the saver's derived state exactly.
    ns.anchors.Rehydrate(prev_time_, ns.current);
  }
  if (verdict_.writer) *verdict_.state = inc::Verdict();
  scratch_.InvalidateDomain();
  for (Kept& kept : kept_) kept = Kept();
  MarkStateSaved();  // the restored state is the new delta baseline
}

Status IncrementalEngine::LoadState(const std::string& data) {
  RTIC_ASSIGN_OR_RETURN(Staged staged, ParseState(data));
  InstallState(std::move(staged));
  return Status::OK();
}

bool IncrementalEngine::StateDirty() const {
  if (!delta_tracking_) return true;
  if (has_prev_ != saved_has_prev_ || prev_time_ != saved_prev_time_) {
    return true;
  }
  if (domain_.state->additions().size() != domain_saved_count_) return true;
  for (const auto& node : nodes_) {
    const inc::NodeState& ns = *node.state;
    if (ns.current_dirty || ns.prev_body_dirty || ns.anchors_dirty) {
      return true;
    }
  }
  return false;
}

void IncrementalEngine::BeginDeltaTracking() {
  if (delta_tracking_) return;
  delta_tracking_ = true;
  // No baseline exists yet: everything is dirty until the first save.
  for (const auto& node : nodes_) {
    node.state->current_dirty = true;
    node.state->prev_body_dirty = true;
    node.state->anchors_dirty = true;
  }
  domain_saved_count_ = 0;
}

void IncrementalEngine::MarkStateSaved() {
  for (const auto& node : nodes_) {
    node.state->current_dirty = false;
    node.state->prev_body_dirty = false;
    node.state->anchors_dirty = false;
  }
  domain_saved_count_ = domain_.state->additions().size();
  saved_has_prev_ = has_prev_;
  saved_prev_time_ = prev_time_;
}

Result<std::string> IncrementalEngine::SaveStateDelta() const {
  if (!delta_tracking_) {
    return Status::FailedPrecondition(
        "delta checkpoint requested before BeginDeltaTracking()");
  }
  StateWriter w;
  w.WriteString(kDeltaMagic);
  w.WriteString(constraint_->ToString());
  w.WriteInt(has_prev_ ? 1 : 0);
  w.WriteInt(prev_time_);

  // Domain values absorbed since the last save, in first-absorption order.
  // The parent's domain size is included so a delta applied to the wrong
  // parent state is rejected instead of silently diverging. An unmaintained
  // tracker writes an empty section (it may have dropped values since the
  // last save).
  const std::vector<Value>& additions = domain_.state->additions();
  const std::size_t saved =
      domain_.state->maintained() ? domain_saved_count_ : 0;
  w.WriteSize(saved);
  w.WriteSize(additions.size() - saved);
  for (std::size_t i = saved; i < additions.size(); ++i) {
    w.WriteValue(additions[i]);
  }

  w.WriteSize(nodes_.size());
  std::size_t dirty_nodes = 0;
  for (const auto& node : nodes_) {
    const inc::NodeState& ns = *node.state;
    if (ns.current_dirty || ns.prev_body_dirty || ns.anchors_dirty) {
      ++dirty_nodes;
    }
  }
  w.WriteSize(dirty_nodes);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const inc::NodeState& ns = *nodes_[i].state;
    const std::int64_t flags = (ns.current_dirty ? 1 : 0) |
                               (ns.prev_body_dirty ? 2 : 0) |
                               (ns.anchors_dirty ? 4 : 0);
    if (flags == 0) continue;
    w.WriteSize(i);
    w.WriteInt(flags);
    if (flags & 1) WriteRows(&w, ns.current);
    if (flags & 2) WriteRows(&w, ns.prev_body);
    if (flags & 4) ns.anchors.EncodeSorted(&w);
  }
  return w.str();
}

Status IncrementalEngine::LoadStateDelta(const std::string& data) {
  StateReader r(data);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic != kDeltaMagic) {
    return Status::InvalidArgument("not an rtic incremental delta checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::string constraint_text, r.ReadString());
  if (constraint_text != constraint_->ToString()) {
    return Status::FailedPrecondition(
        "delta checkpoint was produced for a different constraint: " +
        constraint_text);
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t has_prev, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(Timestamp prev_time, r.ReadInt());

  RTIC_ASSIGN_OR_RETURN(std::int64_t domain_before, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::int64_t domain_added, r.ReadInt());
  // A reader of the domain finds its writer's (identical) delta applied.
  // Only a maintained tracker can check the chain: an unmaintained one
  // drops the values (the monitor's parent-transition check still chains
  // the delta).
  const std::int64_t domain_now =
      static_cast<std::int64_t>(domain_.state->additions().size());
  if (domain_.state->maintained() &&
      domain_before + (domain_.writer ? 0 : domain_added) != domain_now) {
    return Status::FailedPrecondition(
        "delta checkpoint chains to a different parent state (domain size " +
        std::to_string(domain_before) + " vs " + std::to_string(domain_now) +
        ")");
  }
  std::vector<Value> added_values;
  for (std::int64_t i = 0; i < domain_added; ++i) {
    RTIC_ASSIGN_OR_RETURN(Value v, r.ReadValue());
    added_values.push_back(std::move(v));
  }

  RTIC_ASSIGN_OR_RETURN(std::int64_t node_count, r.ReadInt());
  if (node_count != static_cast<std::int64_t>(network_.nodes.size())) {
    return Status::InvalidArgument("delta checkpoint node count mismatch");
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t entry_count, r.ReadInt());
  if (entry_count < 0 || entry_count > node_count) {
    return Status::InvalidArgument("delta checkpoint entry count");
  }

  // Parse every entry into staging state before touching nodes_, so a
  // malformed delta leaves the engine at the parent state instead of
  // half-applied.
  struct Entry {
    std::size_t idx = 0;
    std::int64_t flags = 0;
    Relation current;
    Relation prev_body;
    inc::AnchorStore anchors;
  };
  std::vector<Entry> entries;
  std::int64_t prev_idx = -1;
  for (std::int64_t n = 0; n < entry_count; ++n) {
    RTIC_ASSIGN_OR_RETURN(std::int64_t idx, r.ReadInt());
    if (idx <= prev_idx || idx >= node_count) {
      return Status::InvalidArgument("delta checkpoint node order");
    }
    prev_idx = idx;
    Entry e;
    e.idx = static_cast<std::size_t>(idx);
    RTIC_ASSIGN_OR_RETURN(e.flags, r.ReadInt());
    if (e.flags < 1 || e.flags > 7) {
      return Status::InvalidArgument("delta checkpoint node flags");
    }
    const inc::CompiledNode& cn = network_.nodes[e.idx];
    if (e.flags & 1) {
      e.current = Relation(cn.columns);
      RTIC_RETURN_IF_ERROR(ReadRowsInto(&r, &e.current));
    }
    if (e.flags & 2) {
      e.prev_body = Relation(cn.columns);
      RTIC_RETURN_IF_ERROR(ReadRowsInto(&r, &e.prev_body));
    }
    if (e.flags & 4) {
      ConfigureNodeStore(e.idx, &e.anchors);
      RTIC_RETURN_IF_ERROR(e.anchors.DecodeReplace(&r));
    }
    entries.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in delta checkpoint");
  }

  // Apply to the objects this engine writes; a delta is not idempotent, so
  // the ones it reads are left to their writers.
  if (domain_.writer) domain_.state->AbsorbValues(added_values);
  std::erase_if(entries,
                [this](const Entry& e) { return !nodes_[e.idx].writer; });
  for (Entry& e : entries) {
    inc::NodeState& ns = *nodes_[e.idx].state;
    if (e.flags & 1) {
      ns.current = std::move(e.current);
      ++ns.current_version;
    }
    if (e.flags & 2) ns.prev_body = std::move(e.prev_body);
    if (e.flags & 4) ns.anchors = std::move(e.anchors);
  }
  has_prev_ = has_prev != 0;
  prev_time_ = prev_time;
  // Re-derive store state for the nodes the delta touched. A replaced
  // anchor table was canonical at the delta's save time (= prev_time_), so
  // rebuilding its wheel there is exact. A node whose `current` changed but
  // whose anchors did not keeps its queued absolute deadlines — they alone
  // describe its pending prune events — and only refreshes its membership
  // flags against the new relation. Untouched nodes change nothing.
  for (const Entry& e : entries) {
    inc::NodeState& ns = *nodes_[e.idx].state;
    if (e.flags & 4) {
      ns.anchors.Rehydrate(prev_time_, ns.current);
    } else if (e.flags & 1) {
      ns.anchors.ResetMembership(ns.current);
    }
  }
  scratch_.InvalidateDomain();
  for (Kept& kept : kept_) kept = Kept();
  MarkStateSaved();  // the chained state is the new delta baseline
  return Status::OK();
}

}  // namespace rtic
