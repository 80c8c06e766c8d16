// ScanCache: one monitor's atom scans, shared by all of its engines.
//
// An atom's scan result (the rows of its table that pass its constant and
// repeated-variable checks, projected onto its variables) is a function of
// the atom's *shape* and the table's content, nothing else. The shape is the
// table, the table position of each output column, the constant checks (a
// position and the typed Value it must equal) and the repeated-variable
// checks (two positions that must agree). Variable names are not part of
// it: P(x, y) and P(a, b) read the same rows under different column labels.
//
// The cache keeps one slot per shape. Each atom plan binds to its slot once
// (fo::EvalScratch); a scan through the slot returns the rows kept from an
// earlier scan of the same table (id, version) and rescans otherwise, so a
// monitor scans each changed table once per shape, however many engines and
// atoms read it. Callers relabel the rows with their own layout
// (Relation::WithLayout, O(1)).
//
// A slot lives while some plan is bound to it: releasing its last reader
// (an engine's scratch going away with an unregistered constraint) frees
// it and its rows.
//
// Not thread-safe. A monitor's engines check on the monitor's calling
// thread, one after another; every monitor (each server tenant, each shard's
// inner monitor) and every standalone engine holds its own cache.

#ifndef RTIC_FO_SCAN_CACHE_H_
#define RTIC_FO_SCAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ra/relation.h"
#include "storage/table.h"
#include "types/value.h"

namespace rtic {
namespace fo {

class ScanCache {
 public:
  /// What an atom's rows depend on besides the table's content.
  struct Shape {
    std::string table;
    std::vector<std::size_t> var_pos;  // table position per output column
    // table position -> constant it must equal (typed: Int64(1) and
    // Double(1.0) are different constants)
    std::vector<std::pair<std::size_t, Value>> const_checks;
    // repeated variable: (first position, later position) must agree
    std::vector<std::pair<std::size_t, std::size_t>> dup_checks;

    bool operator==(const Shape& o) const = default;
  };

  using SlotId = std::size_t;

  ScanCache() = default;
  ScanCache(const ScanCache&) = delete;
  ScanCache& operator=(const ScanCache&) = delete;

  /// Adds a reader to the slot of `shape`, creating the slot when none has
  /// that shape; a new slot labels its rows with `layout`.
  SlotId Bind(Shape shape, const Relation::Layout& layout);

  /// Drops a reader added by Bind; the last one frees the slot.
  void Release(SlotId slot);

  /// The rows of `slot`'s shape over `table` (the table the shape names):
  /// the kept rows when they were scanned from this table at its current
  /// version, else a fresh scan, which replaces them. The reference stays
  /// valid until the next Scan, Bind or Release.
  const Relation& Scan(SlotId slot, const Table& table);

  /// One uncached scan of `table` for `shape`, labeled with `layout`.
  static Relation ScanTable(const Shape& shape, const Table& table,
                            const Relation::Layout& layout);

  /// Slots with at least one reader.
  std::size_t live_slots() const { return slots_.size() - free_.size(); }

  /// Table scans made so far (Scan calls that missed).
  std::uint64_t scans() const { return scans_; }

 private:
  struct Slot {
    Shape shape;
    Relation::Layout layout;
    std::size_t readers = 0;
    bool scanned = false;  // `rows` hold a scan of (table_id, table_version)
    std::uint64_t table_id = 0;
    std::uint64_t table_version = 0;
    Relation rows;
  };

  std::vector<Slot> slots_;
  std::vector<SlotId> free_;  // freed slots, reused by Bind
  std::uint64_t scans_ = 0;
};

}  // namespace fo
}  // namespace rtic

#endif  // RTIC_FO_SCAN_CACHE_H_
