// History storage.
//
// HistoryLog keeps a *full snapshot* of every state — exactly the storage
// profile of the naive (non-bounded) checking approach the paper argues
// against; its memory accounting is what experiment E2 measures.

#ifndef RTIC_HISTORY_HISTORY_H_
#define RTIC_HISTORY_HISTORY_H_

#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "storage/database.h"

namespace rtic {

/// Sequence of timestamped full database snapshots.
class HistoryLog {
 public:
  /// Appends a deep copy of `state` at time `t`. Timestamps must be strictly
  /// increasing.
  Status Append(const Database& state, Timestamp t);

  /// Number of stored states.
  std::size_t size() const { return states_.size(); }
  bool empty() const { return states_.empty(); }

  /// The i-th state / its timestamp. Requires i < size().
  const Database& StateAt(std::size_t i) const { return states_[i]; }
  Timestamp TimeAt(std::size_t i) const { return times_[i]; }

  /// Timestamp of the newest state. Requires !empty().
  Timestamp LatestTime() const { return times_.back(); }

  /// Total rows stored across every snapshot — the naive approach's space.
  std::size_t TotalStoredRows() const;

 private:
  std::vector<Database> states_;
  std::vector<Timestamp> times_;
};

}  // namespace rtic

#endif  // RTIC_HISTORY_HISTORY_H_
