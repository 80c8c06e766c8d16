#include "fo/scan_cache.h"

namespace rtic {
namespace fo {

ScanCache::SlotId ScanCache::Bind(Shape shape,
                                  const Relation::Layout& layout) {
  // Binding happens once per atom plan, so a linear search is enough.
  for (SlotId s = 0; s < slots_.size(); ++s) {
    if (slots_[s].readers > 0 && slots_[s].shape == shape) {
      ++slots_[s].readers;
      return s;
    }
  }
  SlotId s = slots_.size();
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    s = free_.back();
    free_.pop_back();
  }
  slots_[s].shape = std::move(shape);
  slots_[s].layout = layout;
  slots_[s].readers = 1;
  return s;
}

void ScanCache::Release(SlotId slot) {
  if (--slots_[slot].readers > 0) return;
  slots_[slot] = Slot();
  free_.push_back(slot);
}

const Relation& ScanCache::Scan(SlotId slot, const Table& table) {
  Slot& s = slots_[slot];
  if (!s.scanned || s.table_id != table.id() ||
      s.table_version != table.version()) {
    s.rows = ScanTable(s.shape, table, s.layout);
    s.scanned = true;
    s.table_id = table.id();
    s.table_version = table.version();
    ++scans_;
  }
  return s.rows;
}

Relation ScanCache::ScanTable(const Shape& shape, const Table& table,
                              const Relation::Layout& layout) {
  const std::size_t n = shape.var_pos.size();
  bool identity = shape.const_checks.empty() && shape.dup_checks.empty() &&
                  n == table.schema().size();
  for (std::size_t c = 0; identity && c < n; ++c) {
    if (shape.var_pos[c] != c) identity = false;
  }
  Relation out(layout);
  for (const Tuple& row : table.rows()) {
    bool match = true;
    for (const auto& [i, v] : shape.const_checks) {
      if (!(row.at(i) == v)) {
        match = false;
        break;
      }
    }
    if (match) {
      for (const auto& [i, j] : shape.dup_checks) {
        if (!(row.at(i) == row.at(j))) {
          match = false;
          break;
        }
      }
    }
    if (!match) continue;
    if (identity) {
      // Output row is the table row itself: share its payload.
      out.InsertUnchecked(row);
      continue;
    }
    std::vector<Value> vals;
    vals.reserve(n);
    for (std::size_t c = 0; c < n; ++c) vals.push_back(row.at(shape.var_pos[c]));
    out.InsertUnchecked(Tuple(std::move(vals)));
  }
  return out;
}

}  // namespace fo
}  // namespace rtic
