#include "engines/incremental/subplan_dag.h"

#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engines/incremental/engine.h"

namespace rtic {
namespace inc {

namespace {

// The epoch of a restored engine: it has seen a history no engine
// registered later has, so it never coalesces with one.
constexpr std::uint64_t kRestoredEpoch =
    std::numeric_limits<std::uint64_t>::max();

// The objects of a restore, found by the object the slot held before it,
// the restored objects that object reads, and its checkpoint bytes. Keying
// by the old object keeps it alive (and its address unique) until the
// restore is done, and means a restore splits shared objects but never
// merges unshared ones.
template <typename T>
class Relinker {
 public:
  /// Points `slot` at its restored object, creating one for the first slot
  /// with its key. Returns true when `slot` read another slot's object
  /// before the restore but now has one of its own.
  template <typename Slot>
  bool Relink(Slot* slot, std::vector<const void*> reads,
              std::string_view bytes) {
    std::vector<Entry>& entries = by_old_[slot->state];
    for (const Entry& entry : entries) {
      if (entry.reads == reads && entry.bytes == bytes) {
        slot->state = entry.object;
        return false;
      }
    }
    entries.push_back({std::move(reads), bytes, std::make_shared<T>()});
    slot->state = entries.back().object;
    return !slot->writer;
  }

 private:
  struct Entry {
    std::vector<const void*> reads;
    std::string_view bytes;
    std::shared_ptr<T> object;
  };
  std::map<std::shared_ptr<T>, std::vector<Entry>> by_old_;
};

}  // namespace

void SubplanDag::Add(IncrementalEngine* engine, std::uint64_t epoch) {
  Member added{engine, epoch, {}, engine->constraint_->ToString()};
  for (const CompiledNode& cn : engine->network_.nodes) {
    added.node_texts.push_back(cn.node->ToString());
  }
  // The objects of the engines added at this epoch, by printed text. A
  // subformula repeated within one constraint coalesces with its first
  // occurrence, too.
  std::unordered_map<std::string_view, std::shared_ptr<NodeState>> nodes;
  std::unordered_map<std::string_view, std::shared_ptr<Verdict>> verdicts;
  for (const Member& m : members_) {
    if (m.epoch != epoch) continue;
    engine->domain_.state = m.engine->domain_.state;
    for (std::size_t i = 0; i < m.node_texts.size(); ++i) {
      nodes.emplace(m.node_texts[i], m.engine->nodes_[i].state);
    }
    verdicts.emplace(m.text, m.engine->verdict_.state);
  }
  for (std::size_t i = 0; i < engine->nodes_.size(); ++i) {
    auto [it, fresh] =
        nodes.emplace(added.node_texts[i], engine->nodes_[i].state);
    if (!fresh) {
      engine->nodes_[i].state = it->second;
      ++engine->shared_subplans_;
    }
  }
  auto [it, fresh] = verdicts.emplace(added.text, engine->verdict_.state);
  if (!fresh) {
    engine->verdict_.state = it->second;
    ++engine->shared_subplans_;
  }
  members_.push_back(std::move(added));
  AssignWriters();
}

void SubplanDag::Remove(const IncrementalEngine* engine) {
  std::erase_if(members_,
                [engine](const Member& m) { return m.engine == engine; });
  AssignWriters();
}

Status SubplanDag::LoadState(const std::vector<const std::string*>& blobs) {
  if (blobs.size() != members_.size()) {
    return Status::Internal("one checkpoint per linked engine expected");
  }
  std::vector<IncrementalEngine::Staged> staged;
  staged.reserve(blobs.size());
  for (std::size_t k = 0; k < members_.size(); ++k) {
    RTIC_ASSIGN_OR_RETURN(IncrementalEngine::Staged s,
                          members_[k].engine->ParseState(*blobs[k]));
    staged.push_back(std::move(s));
  }

  // Keep each link whose two ends restore to the same bytes and read the
  // same restored objects; split off the rest (see the header).
  Relinker<DomainTracker> domains;
  Relinker<NodeState> nodes;
  Relinker<Verdict> verdicts;
  for (std::size_t k = 0; k < members_.size(); ++k) {
    IncrementalEngine& e = *members_[k].engine;
    const IncrementalEngine::Staged& s = staged[k];
    domains.Relink(&e.domain_, {}, s.domain_bytes);
    std::vector<const void*> all_reads = {e.domain_.state.get()};
    for (std::size_t i = 0; i < e.nodes_.size(); ++i) {
      std::vector<const void*> reads = {e.domain_.state.get()};
      for (std::size_t j = e.network_.nodes[i].first_descendant; j < i; ++j) {
        reads.push_back(e.nodes_[j].state.get());
      }
      if (nodes.Relink(&e.nodes_[i], std::move(reads), s.node_bytes[i])) {
        --e.shared_subplans_;
      }
      all_reads.push_back(e.nodes_[i].state.get());
    }
    if (verdicts.Relink(&e.verdict_, std::move(all_reads), {})) {
      --e.shared_subplans_;
    }
    members_[k].epoch = kRestoredEpoch;
  }
  AssignWriters();
  for (std::size_t k = 0; k < members_.size(); ++k) {
    members_[k].engine->InstallState(std::move(staged[k]));
  }
  return Status::OK();
}

void SubplanDag::AssignWriters() {
  std::unordered_set<const void*> written;
  auto assign = [&](const void* object, bool* writer) {
    *writer = written.insert(object).second;
  };
  // Tracker -> whether an engine holding it can read it.
  std::unordered_map<DomainTracker*, bool> read;
  for (Member& m : members_) {
    IncrementalEngine* e = m.engine;
    assign(e->domain_.state.get(), &e->domain_.writer);
    read[e->domain_.state.get()] |= e->analysis_.reads_domain();
    for (auto& node : e->nodes_) assign(node.state.get(), &node.writer);
    assign(e->verdict_.state.get(), &e->verdict_.writer);
  }
  for (const auto& [tracker, reads] : read) tracker->set_maintained(reads);
}

}  // namespace inc
}  // namespace rtic
