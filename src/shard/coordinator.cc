#include "shard/coordinator.h"

#include <algorithm>

namespace rtic {
namespace shard {

bool MergeShardViolations(const std::string& name,
                          const std::vector<std::vector<Violation>>& per_shard,
                          std::size_t max_witnesses, Violation* merged) {
  bool found = false;
  for (const std::vector<Violation>& report : per_shard) {
    for (const Violation& v : report) {
      if (v.constraint_name != name) continue;
      if (!found) {
        found = true;
        merged->constraint_name = v.constraint_name;
        merged->timestamp = v.timestamp;
        merged->witness_columns = v.witness_columns;
        merged->witnesses.clear();
      }
      merged->witnesses.insert(merged->witnesses.end(), v.witnesses.begin(),
                               v.witnesses.end());
    }
  }
  if (!found) return false;
  // Shards hold disjoint key ranges, so rows collide only for constraints
  // that evaluate identically everywhere (no-atom formulas); sort+unique
  // restores the single-monitor list in both cases.
  std::sort(merged->witnesses.begin(), merged->witnesses.end());
  merged->witnesses.erase(
      std::unique(merged->witnesses.begin(), merged->witnesses.end()),
      merged->witnesses.end());
  if (merged->witnesses.size() > max_witnesses) {
    merged->witnesses.resize(max_witnesses);
  }
  return true;
}

}  // namespace shard
}  // namespace rtic
