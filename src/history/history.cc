#include "history/history.h"

namespace rtic {

Status HistoryLog::Append(const Database& state, Timestamp t) {
  if (!times_.empty() && t <= times_.back()) {
    return Status::InvalidArgument(
        "history timestamps must be strictly increasing: " +
        std::to_string(t) + " after " + std::to_string(times_.back()));
  }
  states_.push_back(state);
  times_.push_back(t);
  return Status::OK();
}

std::size_t HistoryLog::TotalStoredRows() const {
  std::size_t n = 0;
  for (const Database& db : states_) n += db.TotalRows();
  return n;
}

}  // namespace rtic
