#include "storage/domain_tracker.h"

namespace rtic {

void DomainTracker::Add(const Value& v) {
  if (values_.insert(v).second) additions_.push_back(v);
}

void DomainTracker::set_maintained(bool maintained) {
  if (!maintained) *this = DomainTracker();  // releases the memory, too
  maintained_ = maintained;
}

void DomainTracker::Absorb(const Database& db) {
  if (!maintained_) return;
  for (const auto& [name, table] : db.tables()) {
    auto [it, first] = absorbed_versions_.try_emplace(table.id(), 0);
    if (!first && it->second == table.version()) {
      continue;  // content unchanged since the last absorb
    }
    auto add_rows = [this](const auto& rows) {
      for (const Tuple& row : rows) {
        for (const Value& v : row.values()) Add(v);
      }
    };
    const std::vector<Tuple>* inserted =
        first ? nullptr : table.BatchInsertsSince(it->second);
    if (inserted != nullptr) {
      add_rows(*inserted);
    } else {
      add_rows(table.rows());
    }
    it->second = table.version();
  }
}

void DomainTracker::AbsorbValues(const std::vector<Value>& values) {
  if (!maintained_) return;
  for (const Value& v : values) Add(v);
}

std::vector<Value> DomainTracker::Values(ValueType type) const {
  std::vector<Value> out;
  for (const Value& v : values_) {
    if (v.type() == type) out.push_back(v);
  }
  return out;
}

std::vector<Value> DomainTracker::AllValues() const {
  return std::vector<Value>(values_.begin(), values_.end());
}

bool DomainTracker::Contains(const Value& v) const {
  return values_.find(v) != values_.end();
}

std::size_t DomainTracker::size() const { return values_.size(); }

}  // namespace rtic
