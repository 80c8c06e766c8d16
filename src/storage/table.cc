#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <vector>

namespace rtic {

std::uint64_t Table::NextId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<bool> Table::Insert(Tuple tuple) {
  if (!tuple.Matches(schema_)) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " does not match schema " +
                                   schema_.ToString() + " of table " + name_);
  }
  bool inserted = rows_.insert(std::move(tuple)).second;
  if (inserted) ++version_;
  return inserted;
}

bool Table::Erase(const Tuple& tuple) {
  bool erased = rows_.erase(tuple) > 0;
  if (erased) ++version_;
  return erased;
}

Status Table::ApplyBatch(const std::vector<Tuple>* deletes,
                         const std::vector<Tuple>* inserts) {
  batch_base_version_ = version_;
  batch_version_ = kNoBatch;
  batch_inserts_.clear();
  if (deletes != nullptr) {
    for (const Tuple& t : *deletes) Erase(t);
  }
  if (inserts != nullptr) {
    for (const Tuple& t : *inserts) {
      RTIC_ASSIGN_OR_RETURN(bool inserted, Insert(t));
      if (inserted) batch_inserts_.push_back(t);
    }
  }
  batch_version_ = version_;
  return Status::OK();
}

bool Table::Contains(const Tuple& tuple) const {
  return rows_.find(tuple) != rows_.end();
}

std::string Table::ToString() const {
  std::vector<Tuple> sorted(rows_.begin(), rows_.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out = name_ + schema_.ToString() + " {\n";
  for (const Tuple& t : sorted) {
    out += "  " + t.ToString() + "\n";
  }
  out += "}";
  return out;
}

}  // namespace rtic
