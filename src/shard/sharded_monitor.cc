#include "shard/sharded_monitor.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/compress.h"
#include "monitor/durable_log.h"
#include "shard/router.h"
#include "storage/codec.h"
#include "tl/parser.h"

namespace rtic {
namespace shard {
namespace {

// docs/FORMATS.md §5.5. The inner payloads are RTICMON3 (monitor.cc).
constexpr char kShardedMagic[] = "RTICSHD1";
constexpr char kKindBase[] = "base";
constexpr char kKindDelta[] = "delta";

/// Shards and the coordinator are in-memory: the sharded monitor owns the
/// tenant's log.
MonitorOptions InnerOptions(MonitorOptions options) {
  options.wal_dir.clear();
  return options;
}

/// Merges one partition-local constraint's per-shard violations (the
/// entries named `name` in each shard's report, if any) into the unsharded
/// report. Witness lists are per-shard sorted prefixes of disjoint row
/// sets, so: concatenate, sort, dedupe, truncate to `max_witnesses`.
/// Byte-identical to the single monitor because any row in the global
/// sorted top-K has fewer than K predecessors globally, a fortiori within
/// its own shard — per-shard truncation to K never drops a globally
/// surviving row. Returns false when no shard violated.
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

}  // namespace

ShardedMonitor::ShardedMonitor(MonitorOptions options, std::size_t shard_count)
    : options_(std::move(options)), partitioner_(shard_count) {
  shards_.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    shards_.push_back(
        std::make_unique<ConstraintMonitor>(InnerOptions(options_)));
  }
}

ShardedMonitor::~ShardedMonitor() = default;

Result<std::unique_ptr<ShardedMonitor>> ShardedMonitor::Create(
    std::size_t shard_count, MonitorOptions options) {
  if (shard_count == 0) {
    return Status::InvalidArgument("sharded monitor needs at least 1 shard");
  }
  if (shard_count > 1024) {
    return Status::InvalidArgument(
        "shard_count " + std::to_string(shard_count) +
        " exceeds the supported maximum of 1024");
  }
  if (!options.replication_standby.empty()) {
    return Status::InvalidArgument(
        "log-shipping replication is not supported on a sharded monitor "
        "(a standby cannot promote a sharded mirror)");
  }
  return std::unique_ptr<ShardedMonitor>(
      new ShardedMonitor(std::move(options), shard_count));
}

Status ShardedMonitor::CreateTable(const std::string& name, Schema schema) {
  return CreateTablePartitioned(name, std::move(schema), 0);
}

Status ShardedMonitor::CreateTablePartitioned(const std::string& name,
                                              Schema schema,
                                              std::size_t key_column) {
  if (transition_count_ > 0) {
    return Status::FailedPrecondition(
        "tables must be created before the first update");
  }
  RTIC_RETURN_IF_ERROR(partitioner_.AddTable(name, schema, key_column));
  for (auto& shard : shards_) {
    RTIC_RETURN_IF_ERROR(shard->CreateTable(name, schema));
  }
  if (coordinator_ != nullptr) {
    RTIC_RETURN_IF_ERROR(coordinator_->CreateTable(name, schema));
  }
  catalog_[name] = std::move(schema);
  return Status::OK();
}

Status ShardedMonitor::EnsureCoordinator() {
  if (coordinator_ != nullptr) return Status::OK();
  if (log_ != nullptr) {
    return Status::FailedPrecondition(
        "cross-shard constraints must be registered before Recover() on a "
        "durable sharded monitor (a coordinator brought up later starts "
        "from a seed transition the tenant's log does not hold)");
  }
  auto coordinator =
      std::make_unique<ConstraintMonitor>(InnerOptions(options_));
  for (const auto& [table, schema] : catalog_) {
    RTIC_RETURN_IF_ERROR(coordinator->CreateTable(table, schema));
  }
  if (transition_count_ > 0) {
    // Seeded before any constraint is registered on it, so the seed is
    // not checked: a late constraint sees the current state and an empty
    // past, as on an unsharded monitor.
    UpdateBatch seed(current_time_);
    for (const auto& shard : shards_) {
      const Database& db = shard->database();
      for (const std::string& table : db.TableNames()) {
        for (const Tuple& row : db.GetTable(table).value()->rows()) {
          seed.Insert(table, row);
        }
      }
    }
    RTIC_RETURN_IF_ERROR(coordinator->ApplyUpdate(seed).status());
  }
  coordinator_ = std::move(coordinator);
  return Status::OK();
}

Status ShardedMonitor::RegisterConstraint(const std::string& name,
                                          const std::string& text) {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return Status::AlreadyExists("constraint already registered: " + name);
    }
  }
  RTIC_ASSIGN_OR_RETURN(tl::FormulaPtr formula, tl::ParseFormula(text));

  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis,
                        tl::Analyze(*formula, catalog_));
  if (!analysis.IsClosed(*formula)) {
    return Status::InvalidArgument("constraint '" + name +
                                   "' must be a closed formula");
  }

  RTIC_ASSIGN_OR_RETURN(Classification cls,
                        Classify(*formula, analysis, partitioner_));
  if (cls.local()) {
    for (auto& shard : shards_) {
      RTIC_RETURN_IF_ERROR(shard->RegisterConstraint(name, text));
    }
  } else {
    RTIC_RETURN_IF_ERROR(EnsureCoordinator());
    RTIC_RETURN_IF_ERROR(coordinator_->RegisterConstraint(name, text));
  }
  entries_.push_back(Entry{name, std::move(cls), 0, 0});
  return Status::OK();
}

Status ShardedMonitor::UnregisterConstraint(const std::string& name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name != name) continue;
    if (it->cls.local()) {
      for (auto& shard : shards_) {
        RTIC_RETURN_IF_ERROR(shard->UnregisterConstraint(name));
      }
    } else {
      RTIC_RETURN_IF_ERROR(coordinator_->UnregisterConstraint(name));
    }
    entries_.erase(it);
    return Status::OK();
  }
  return Status::NotFound("no such constraint: " + name);
}

Result<wal::RecoveryStats> ShardedMonitor::Recover() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "Recover() requires MonitorOptions::wal_dir");
  }
  if (log_ != nullptr) {
    return Status::FailedPrecondition("Recover() already ran");
  }
  if (transition_count_ > 0) {
    return Status::FailedPrecondition(
        "Recover() must run before the first update");
  }
  if (options_.checkpoint_delta_chain > 0) {
    for (ConstraintMonitor* m : Inners()) m->BeginDeltaTracking();
  }
  RTIC_ASSIGN_OR_RETURN(log_, DurableLog::Open(options_, this));
  return log_->recovery_stats();
}

Result<std::vector<Violation>> ShardedMonitor::ApplyUpdate(
    const UpdateBatch& batch) {
  if (durable() && log_ == nullptr) {
    return Status::FailedPrecondition(
        "durable monitor: call Recover() before applying updates");
  }
  return Commit(batch, log_.get());
}

Result<std::vector<Violation>> ShardedMonitor::Commit(const UpdateBatch& batch,
                                                      DurableLog* log) {
  if (transition_count_ > 0 && batch.timestamp() <= current_time_) {
    return Status::InvalidArgument(
        "batch timestamp " + std::to_string(batch.timestamp()) +
        " does not advance the clock past " + std::to_string(current_time_));
  }
  // Validate against shard 0 (every shard holds identical schemas) so an
  // invalid batch is rejected before ANY shard applies anything.
  RTIC_RETURN_IF_ERROR(batch.Validate(shards_[0]->database()));
  RTIC_ASSIGN_OR_RETURN(std::vector<UpdateBatch> routed,
                        RouteBatch(batch, partitioner_));
  // The tenant's one log holds the batch unrouted, before any shard
  // applies it: a crash from here on leaves it on every shard or none.
  if (log != nullptr) RTIC_RETURN_IF_ERROR(log->Append(batch));

  // Every inner monitor applies the batch, even after an earlier one errs,
  // so no shard's state depends on another's failure; the first error, in
  // shard order and then the coordinator, is returned.
  Status error = Status::OK();
  auto apply = [&error](ConstraintMonitor* m, const UpdateBatch& b) {
    Result<std::vector<Violation>> report = m->ApplyUpdate(b);
    if (report.ok()) return std::move(report).value();
    if (error.ok()) error = report.status();
    return std::vector<Violation>();
  };
  std::vector<std::vector<Violation>> shard_reports;
  shard_reports.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shard_reports.push_back(apply(shards_[k].get(), routed[k]));
  }
  std::vector<Violation> coord_report;
  if (coordinator_ != nullptr) coord_report = apply(coordinator_.get(), batch);
  if (!error.ok()) return error;

  current_time_ = batch.timestamp();
  ++transition_count_;

  std::vector<Violation> out;
  for (Entry& e : entries_) {
    ++e.transitions;
    if (e.cls.local()) {
      Violation merged;
      if (MergeShardViolations(e.name, shard_reports, options_.max_witnesses,
                               &merged)) {
        ++e.violations;
        ++total_violations_;
        out.push_back(std::move(merged));
      }
    } else {
      for (Violation& v : coord_report) {
        if (v.constraint_name != e.name) continue;
        ++e.violations;
        ++total_violations_;
        out.push_back(std::move(v));
        break;
      }
    }
  }
  if (log != nullptr) log->CheckpointIfDue();
  return out;
}

Result<std::vector<Violation>> ShardedMonitor::Tick(Timestamp t) {
  return ApplyUpdate(UpdateBatch(t));
}

std::vector<std::string> ShardedMonitor::ConstraintNames() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::vector<ConstraintStats> ShardedMonitor::Stats() const {
  std::vector<std::map<std::string, ConstraintStats>> shard_stats;
  for (const auto& shard : shards_) {
    std::map<std::string, ConstraintStats> by_name;
    for (ConstraintStats& s : shard->Stats()) by_name[s.name] = s;
    shard_stats.push_back(std::move(by_name));
  }
  std::map<std::string, ConstraintStats> coord_stats;
  if (coordinator_ != nullptr) {
    for (ConstraintStats& s : coordinator_->Stats()) {
      coord_stats[s.name] = s;
    }
  }

  std::vector<ConstraintStats> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ConstraintStats s;
    s.name = e.name;
    s.transitions = e.transitions;
    s.violations = e.violations;
    if (e.cls.local()) {
      for (const auto& by_name : shard_stats) {
        auto it = by_name.find(e.name);
        if (it == by_name.end()) continue;
        s.total_check_micros += it->second.total_check_micros;
        s.max_check_micros =
            std::max(s.max_check_micros, it->second.max_check_micros);
        // Each shard's check is a separate check over its own share of the
        // keys. Like max_check_micros, the last check reported is the
        // slowest shard's, so it never exceeds the worst; a sum would be a
        // time no single check took.
        s.last_check_micros =
            std::max(s.last_check_micros, it->second.last_check_micros);
        s.storage_rows += it->second.storage_rows;
        s.shared_subplans =
            std::max(s.shared_subplans, it->second.shared_subplans);
        // Each shard's aux tables cover its own key partition; the
        // constraint's totals are their sums.
        s.aux_valuations += it->second.aux_valuations;
        s.aux_anchors += it->second.aux_anchors;
      }
    } else {
      auto it = coord_stats.find(e.name);
      if (it != coord_stats.end()) {
        s.total_check_micros = it->second.total_check_micros;
        s.max_check_micros = it->second.max_check_micros;
        s.last_check_micros = it->second.last_check_micros;
        s.storage_rows = it->second.storage_rows;
        s.shared_subplans = it->second.shared_subplans;
        s.aux_valuations = it->second.aux_valuations;
        s.aux_anchors = it->second.aux_anchors;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ShardedMonitor::TotalStorageRows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->TotalStorageRows();
  if (coordinator_ != nullptr) {
    total += coordinator_->TotalStorageRows();
  }
  return total;
}

Result<Classification> ShardedMonitor::ClassificationFor(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.cls;
  }
  return Status::NotFound("no such constraint: " + name);
}

std::size_t ShardedMonitor::PartitionLocalCount() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.cls.local() ? 1 : 0;
  return n;
}

double ShardedMonitor::PartitionLocalFraction() const {
  if (entries_.empty()) return 1.0;
  return static_cast<double>(PartitionLocalCount()) /
         static_cast<double>(entries_.size());
}

std::vector<ConstraintMonitor*> ShardedMonitor::Inners() const {
  std::vector<ConstraintMonitor*> out;
  out.reserve(shards_.size() + 1);
  for (const auto& shard : shards_) out.push_back(shard.get());
  if (coordinator_ != nullptr) out.push_back(coordinator_.get());
  return out;
}

Result<std::string> ShardedMonitor::Serialize(
    bool delta,
    const std::function<Result<std::string>(ConstraintMonitor*)>& inner)
    const {
  StateWriter w;
  w.WriteString(kShardedMagic);
  w.WriteString(delta ? kKindDelta : kKindBase);
  w.WriteSize(shards_.size());
  const std::vector<std::string> tables = partitioner_.TableNames();
  w.WriteSize(tables.size());
  for (const std::string& table : tables) {
    w.WriteString(table);
    w.WriteSize(partitioner_.KeyColumn(table).value());
  }
  w.WriteSize(transition_count_);
  w.WriteInt(current_time_);
  w.WriteSize(total_violations_);
  w.WriteSize(entries_.size());
  for (const Entry& e : entries_) {
    w.WriteString(e.name);
    w.WriteSize(e.transitions);
    w.WriteSize(e.violations);
  }
  w.WriteSize(coordinator_ != nullptr ? 1 : 0);
  for (ConstraintMonitor* m : Inners()) {
    RTIC_ASSIGN_OR_RETURN(std::string payload, inner(m));
    w.WriteString(payload);
  }
  return w.str();
}

Result<std::string> ShardedMonitor::SaveState() const {
  return Serialize(/*delta=*/false,
                   [](ConstraintMonitor* m) { return m->SaveState(); });
}

Result<std::string> ShardedMonitor::CaptureCheckpoint() {
  RTIC_ASSIGN_OR_RETURN(std::string payload, SaveState());
  if (options_.checkpoint_delta_chain > 0) {
    for (ConstraintMonitor* m : Inners()) m->BeginDeltaTracking();
  }
  return payload;
}

Result<std::string> ShardedMonitor::CaptureCheckpointDelta() {
  return Serialize(/*delta=*/true,
                   [](ConstraintMonitor* m) { return m->SaveStateDelta(); });
}

Status ShardedMonitor::Restore(const std::string& data, bool delta) {
  const std::string* payload = &data;
  std::string decompressed;
  if (LooksCompressed(data)) {
    RTIC_ASSIGN_OR_RETURN(decompressed, Decompress(data));
    payload = &decompressed;
  }
  StateReader r(*payload);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic == "RTICMON3" || magic == "RTICMON2") {
    return Status::FailedPrecondition(
        "checkpoint was written by an unsharded monitor");
  }
  if (magic != kShardedMagic) {
    return Status::InvalidArgument("not an rtic sharded monitor checkpoint");
  }
  const std::string kind = delta ? kKindDelta : kKindBase;
  RTIC_ASSIGN_OR_RETURN(std::string got_kind, r.ReadString());
  if (got_kind != kind) {
    return Status::InvalidArgument("expected a " + kind +
                                   " checkpoint, got kind '" + got_kind +
                                   "'");
  }

  // Configuration: everything the registration must reproduce.
  RTIC_ASSIGN_OR_RETURN(std::int64_t shard_count, r.ReadInt());
  if (shard_count != static_cast<std::int64_t>(shards_.size())) {
    return Status::FailedPrecondition(
        "checkpoint was written with " + std::to_string(shard_count) +
        " shards; this monitor has " + std::to_string(shards_.size()));
  }
  const std::vector<std::string> tables = partitioner_.TableNames();
  RTIC_ASSIGN_OR_RETURN(std::int64_t table_count, r.ReadInt());
  if (table_count != static_cast<std::int64_t>(tables.size())) {
    return Status::FailedPrecondition(
        "checkpoint table count does not match the registered tables");
  }
  for (const std::string& table : tables) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    RTIC_ASSIGN_OR_RETURN(std::int64_t key_column, r.ReadInt());
    if (name != table ||
        key_column !=
            static_cast<std::int64_t>(partitioner_.KeyColumn(table).value())) {
      return Status::FailedPrecondition(
          "checkpoint partitions table " + name + " on column " +
          std::to_string(key_column) +
          ", which does not match the registered partition keys");
    }
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t transition_count, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(Timestamp current_time, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::int64_t total_violations, r.ReadInt());
  if (transition_count < 0 || total_violations < 0) {
    return Status::InvalidArgument("implausible counters in checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t entry_count, r.ReadInt());
  if (entry_count != static_cast<std::int64_t>(entries_.size())) {
    return Status::FailedPrecondition(
        "checkpoint constraint count does not match registration");
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> counters;
  for (const Entry& e : entries_) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    if (name != e.name) {
      return Status::FailedPrecondition(
          "checkpoint constraint order/name mismatch at '" + name + "'");
    }
    RTIC_ASSIGN_OR_RETURN(std::int64_t transitions, r.ReadInt());
    RTIC_ASSIGN_OR_RETURN(std::int64_t violations, r.ReadInt());
    if (transitions < 0 || violations < 0 || violations > transitions) {
      return Status::InvalidArgument(
          "implausible constraint counters in checkpoint for '" + name + "'");
    }
    counters.emplace_back(transitions, violations);
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t coordinator, r.ReadInt());
  if ((coordinator != 0) != (coordinator_ != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint's cross-shard coordinator does not match registration");
  }
  const std::vector<ConstraintMonitor*> inners = Inners();
  std::vector<std::string> blobs;
  for (std::size_t i = 0; i < inners.size(); ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string blob, r.ReadString());
    blobs.push_back(std::move(blob));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in sharded checkpoint");
  }

  // Validation done; each inner monitor validates and installs its own
  // payload (shard 0 first, so a schema or constraint mismatch is refused
  // before any shard changes), then the merged fields follow.
  for (std::size_t i = 0; i < inners.size(); ++i) {
    RTIC_RETURN_IF_ERROR(delta ? inners[i]->LoadStateDelta(blobs[i])
                               : inners[i]->LoadState(blobs[i]));
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].transitions = static_cast<std::size_t>(counters[i].first);
    entries_[i].violations = static_cast<std::size_t>(counters[i].second);
  }
  transition_count_ = static_cast<std::size_t>(transition_count);
  current_time_ = current_time;
  total_violations_ = static_cast<std::size_t>(total_violations);
  return Status::OK();
}

}  // namespace shard
}  // namespace rtic
