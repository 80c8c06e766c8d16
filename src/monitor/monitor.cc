#include "monitor/monitor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/compress.h"
#include "engines/active/compiler.h"
#include "engines/incremental/engine.h"
#include "engines/naive/naive_engine.h"
#include "engines/response/response_engine.h"
#include "monitor/durable_log.h"
#include "storage/codec.h"
#include "tl/parser.h"

namespace rtic {

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kIncremental:
      return "incremental";
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kActive:
      return "active";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::string out = "violation of '" + constraint_name + "' at time " +
                    std::to_string(timestamp);
  if (!witnesses.empty()) {
    out += "; witnesses";
    if (!witness_columns.empty()) {
      out += " (";
      for (std::size_t i = 0; i < witness_columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += witness_columns[i];
      }
      out += ")";
    }
    out += ":";
    for (const Tuple& w : witnesses) {
      out += " " + w.ToString();
    }
  }
  return out;
}

std::string ConstraintStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu states, %zu violations, mean %.1f us, max %lld us, "
                "%zu aux rows",
                name.c_str(), transitions, violations, MeanCheckMicros(),
                static_cast<long long>(max_check_micros), storage_rows);
  return buf;
}

/// A registered constraint: source text, formula, and its checker.
struct ConstraintMonitor::Registered {
  std::string name;
  std::string text;
  tl::FormulaPtr formula;
  std::vector<std::string> warnings;
  std::unique_ptr<CheckerEngine> engine;
  IncrementalEngine* incremental = nullptr;  // `engine`, when linked in dag_
  std::size_t transitions = 0;
  std::size_t violations = 0;
  // Check times in ns, converted to ConstraintStats' µs only when reported
  // (a check of under 1 µs would otherwise count as 0).
  std::int64_t total_check_nanos = 0;
  std::int64_t max_check_nanos = 0;
  std::int64_t last_check_nanos = 0;
};

ConstraintMonitor::ConstraintMonitor(MonitorOptions options)
    : options_(std::move(options)) {}

ConstraintMonitor::~ConstraintMonitor() = default;

Status ConstraintMonitor::CreateTable(const std::string& name,
                                      Schema schema) {
  if (transition_count_ > 0) {
    return Status::FailedPrecondition(
        "tables must be created before the first update");
  }
  return db_.CreateTable(name, std::move(schema));
}

Status ConstraintMonitor::RegisterConstraint(const std::string& name,
                                             const std::string& text) {
  RTIC_ASSIGN_OR_RETURN(tl::FormulaPtr formula, tl::ParseFormula(text));
  RTIC_RETURN_IF_ERROR(RegisterConstraintFormula(name, *formula));
  constraints_.back()->text = text;
  return Status::OK();
}

Status ConstraintMonitor::RegisterConstraintFormula(
    const std::string& name, const tl::Formula& formula) {
  for (const auto& c : constraints_) {
    if (c->name == name) {
      return Status::AlreadyExists("constraint already registered: " + name);
    }
  }

  tl::PredicateCatalog catalog;
  for (const std::string& table : db_.TableNames()) {
    catalog[table] = db_.GetTable(table).value()->schema();
  }

  // Analyze once up front so registration reports language errors and
  // warnings even before an engine compiles its own clone.
  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis,
                        tl::Analyze(formula, catalog));
  if (!analysis.IsClosed(formula)) {
    return Status::InvalidArgument("constraint '" + name +
                                   "' must be a closed formula");
  }

  auto reg = std::make_unique<Registered>();
  reg->name = name;
  reg->formula = formula.Clone();
  reg->text = reg->formula->ToString();
  reg->warnings = analysis.warnings();

  // Bounded-future response constraints have a single engine regardless of
  // the configured kind: obligation tracking with delayed verdicts (the
  // violation is attributed to the state where the window closes unmet).
  if (ResponseEngine::LooksLikeResponseConstraint(formula)) {
    ResponseOptions opts;
    opts.extra_constants = options_.domain_constants;
    RTIC_ASSIGN_OR_RETURN(std::unique_ptr<ResponseEngine> engine,
                          ResponseEngine::Create(formula, catalog, opts));
    engine->UseScanCache(scans_);
    reg->engine = std::move(engine);
    constraints_.push_back(std::move(reg));
    if (delta_tracking_) constraints_.back()->engine->BeginDeltaTracking();
    return Status::OK();
  }

  switch (options_.engine) {
    case EngineKind::kIncremental: {
      IncrementalOptions opts;
      opts.pruning = options_.pruning;
      opts.extra_constants = options_.domain_constants;
      RTIC_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalEngine> engine,
                            IncrementalEngine::Create(formula, catalog, opts));
      engine->UseScanCache(scans_);
      // Only engines registered at the same transition count have seen the
      // same history, so only they can share subplans.
      dag_.Add(engine.get(), transition_count_);
      reg->incremental = engine.get();
      reg->engine = std::move(engine);
      break;
    }
    case EngineKind::kNaive: {
      RTIC_ASSIGN_OR_RETURN(
          reg->engine,
          NaiveEngine::Create(formula, catalog, options_.domain_constants));
      break;
    }
    case EngineKind::kActive: {
      ActiveOptions opts;
      opts.pruning = options_.pruning;
      opts.extra_constants = options_.domain_constants;
      RTIC_ASSIGN_OR_RETURN(reg->engine,
                            ActiveEngine::Create(formula, catalog, opts));
      break;
    }
  }
  constraints_.push_back(std::move(reg));
  if (delta_tracking_) constraints_.back()->engine->BeginDeltaTracking();
  return Status::OK();
}

Status ConstraintMonitor::RegisterConstraintEngine(
    const std::string& name, std::unique_ptr<CheckerEngine> engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("RegisterConstraintEngine needs an engine");
  }
  for (const auto& c : constraints_) {
    if (c->name == name) {
      return Status::AlreadyExists("constraint already registered: " + name);
    }
  }
  auto reg = std::make_unique<Registered>();
  reg->name = name;
  reg->text = std::string("<custom ") + engine->name() + " engine>";
  reg->engine = std::move(engine);
  constraints_.push_back(std::move(reg));
  if (delta_tracking_) constraints_.back()->engine->BeginDeltaTracking();
  return Status::OK();
}

Status ConstraintMonitor::UnregisterConstraint(const std::string& name) {
  for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
    if ((*it)->name == name) {
      if ((*it)->incremental != nullptr) dag_.Remove((*it)->incremental);
      constraints_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such constraint: " + name);
}

Result<wal::RecoveryStats> ConstraintMonitor::Recover() {
  if (options_.wal_dir.empty()) {
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
  // Arm delta tracking before recovery so the restore re-baselines it and
  // replayed tail batches accumulate exactly the changes since the
  // installed checkpoint.
  if (options_.checkpoint_delta_chain > 0) BeginDeltaTracking();
  RTIC_ASSIGN_OR_RETURN(log_, DurableLog::Open(options_, this));
  return log_->recovery_stats();
}

const CheckpointStats& ConstraintMonitor::checkpoint_stats() const {
  static const CheckpointStats kNone;
  return log_ != nullptr ? log_->checkpoint_stats() : kNone;
}

Result<std::vector<Violation>> ConstraintMonitor::ApplyUpdate(
    const UpdateBatch& batch) {
  if (!options_.wal_dir.empty() && log_ == nullptr) {
    return Status::FailedPrecondition(
        "durable monitor: call Recover() before applying updates");
  }
  return Commit(batch, log_.get());
}

Result<std::vector<Violation>> ConstraintMonitor::Commit(
    const UpdateBatch& batch, DurableLog* log) {
  if (transition_count_ > 0 && batch.timestamp() <= current_time_) {
    return Status::InvalidArgument(
        "batch timestamp " + std::to_string(batch.timestamp()) +
        " does not advance the clock past " + std::to_string(current_time_));
  }
  if (log != nullptr || delta_tracking_) {
    // Validate before logging so the WAL only ever holds batches that
    // Apply() below cannot reject, and so tracking never records a batch
    // that fails to commit (Apply() rejects exactly what Validate() does).
    RTIC_RETURN_IF_ERROR(batch.Validate(db_));
  }
  if (log != nullptr) RTIC_RETURN_IF_ERROR(log->Append(batch));
  if (delta_tracking_) TrackBatchDelta(batch);
  RTIC_RETURN_IF_ERROR(batch.Apply(&db_));
  current_time_ = batch.timestamp();
  ++transition_count_;

  // Registration order is a topological order of dag_, so each shared
  // subplan is updated by its writer before another engine reads it. Every
  // engine observes every committed transition, even after an earlier one
  // errs, so no engine's state depends on another's failure; counters and
  // violations stop at the first error in registration order, which is
  // returned.
  Status error = Status::OK();
  std::vector<Violation> violations;
  for (const auto& c : constraints_) {
    std::int64_t nanos = 0;
    Violation violation;
    Result<bool> holds = CheckConstraint(*c, &nanos, &violation);
    if (!error.ok()) continue;
    if (!holds.ok()) {
      error = holds.status();
      continue;
    }
    ++c->transitions;
    c->total_check_nanos += nanos;
    c->max_check_nanos = std::max(c->max_check_nanos, nanos);
    c->last_check_nanos = nanos;
    if (holds.value()) continue;
    ++c->violations;
    ++total_violations_;
    violations.push_back(std::move(violation));
  }
  if (!error.ok()) return error;
  // The batch is applied, logged, and checked; a failed periodic
  // checkpoint must not discard its verdicts.
  if (log != nullptr) log->CheckpointIfDue();
  return violations;
}

Result<bool> ConstraintMonitor::CheckConstraint(Registered& c,
                                                std::int64_t* nanos,
                                                Violation* violation) {
  auto started = std::chrono::steady_clock::now();
  Result<bool> holds = c.engine->OnTransition(db_, current_time_);
  *nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - started)
               .count();
  if (!holds.ok() || holds.value()) return holds;

  violation->constraint_name = c.name;
  violation->timestamp = current_time_;
  RTIC_ASSIGN_OR_RETURN(Relation counterexamples,
                        c.engine->CurrentCounterexamples(db_));
  for (const Column& col : counterexamples.columns()) {
    violation->witness_columns.push_back(col.name);
  }
  std::vector<Tuple> rows = counterexamples.SortedRows();
  if (rows.size() > options_.max_witnesses) {
    rows.resize(options_.max_witnesses);
  }
  violation->witnesses = std::move(rows);
  return false;
}

Result<std::vector<Violation>> ConstraintMonitor::Tick(Timestamp t) {
  return ApplyUpdate(UpdateBatch(t));
}

std::vector<std::string> ConstraintMonitor::ConstraintNames() const {
  std::vector<std::string> out;
  out.reserve(constraints_.size());
  for (const auto& c : constraints_) out.push_back(c->name);
  return out;
}

Result<std::vector<std::string>> ConstraintMonitor::WarningsFor(
    const std::string& name) const {
  for (const auto& c : constraints_) {
    if (c->name == name) return c->warnings;
  }
  return Status::NotFound("no such constraint: " + name);
}

std::vector<ConstraintStats> ConstraintMonitor::Stats() const {
  std::vector<ConstraintStats> out;
  out.reserve(constraints_.size());
  for (const auto& c : constraints_) {
    ConstraintStats s;
    s.name = c->name;
    s.transitions = c->transitions;
    s.violations = c->violations;
    s.total_check_micros = c->total_check_nanos / 1000;
    s.max_check_micros = c->max_check_nanos / 1000;
    s.last_check_micros = c->last_check_nanos / 1000;
    s.storage_rows = c->engine->StorageRows();
    s.shared_subplans = c->engine->SharedSubplans();
    s.aux_valuations = c->engine->AuxValuationCount();
    s.aux_anchors = c->engine->AuxTimestampCount();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ConstraintMonitor::TotalStorageRows() const {
  std::size_t n = 0;
  for (const auto& c : constraints_) n += c->engine->StorageRows();
  return n;
}

namespace {
// Version history:
//   RTICMON1 — database + clock + engine states; per-constraint counters
//              were not persisted (restored monitors under-reported them).
//   RTICMON2 — adds per-constraint transition/violation counters so
//              Stats() survives recovery consistently with
//              total_violations().
//   RTICMON3 — adds a kind token after the magic: "base" (followed by the
//              unchanged RTICMON2 body) or "delta" (changes since the
//              parent checkpoint). RTICMON2 files still load.
// Checkpoint payloads of any version may additionally be wrapped in a
// compressed frame (common/compress.h); the loaders auto-detect that.
constexpr char kMonitorMagic[] = "RTICMON3";
constexpr char kMonitorMagicV2[] = "RTICMON2";
constexpr char kLegacyMonitorMagic[] = "RTICMON1";
constexpr char kShardedMagic[] = "RTICSHD1";  // shard/sharded_monitor.cc
constexpr char kKindBase[] = "base";
constexpr char kKindDelta[] = "delta";
}  // namespace

Result<std::string> ConstraintMonitor::SaveState() const {
  StateWriter w;
  w.WriteString(kMonitorMagic);
  w.WriteString(kKindBase);
  w.WriteInt(static_cast<std::int64_t>(transition_count_));
  w.WriteInt(current_time_);
  w.WriteInt(static_cast<std::int64_t>(total_violations_));

  // Database: tables with schema and rows.
  std::vector<std::string> tables = db_.TableNames();
  w.WriteSize(tables.size());
  for (const std::string& name : tables) {
    const Table* table = db_.GetTable(name).value();
    w.WriteString(name);
    w.WriteSize(table->schema().size());
    for (const Column& col : table->schema().columns()) {
      w.WriteString(col.name);
      w.WriteInt(static_cast<std::int64_t>(col.type));
    }
    w.WriteSize(table->size());
    std::vector<Tuple> rows(table->rows().begin(), table->rows().end());
    std::sort(rows.begin(), rows.end());
    for (const Tuple& row : rows) w.WriteTuple(row);
  }

  // Constraint checkers, each with its cumulative counters (timing stats
  // are process-local and deliberately not persisted).
  w.WriteSize(constraints_.size());
  for (const auto& c : constraints_) {
    w.WriteString(c->name);
    w.WriteSize(c->transitions);
    w.WriteSize(c->violations);
    RTIC_ASSIGN_OR_RETURN(std::string engine_state, c->engine->SaveState());
    w.WriteString(engine_state);
  }
  return w.str();
}

Status ConstraintMonitor::LoadState(const std::string& data) {
  const std::string* payload = &data;
  std::string decompressed;
  if (LooksCompressed(data)) {
    RTIC_ASSIGN_OR_RETURN(decompressed, Decompress(data));
    payload = &decompressed;
  }
  StateReader r(*payload);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic == kLegacyMonitorMagic) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + magic +
        " (predates per-constraint counters); re-create the checkpoint "
        "with this build's SaveState()");
  }
  if (magic == kMonitorMagic) {
    // RTICMON3 carries a kind token; the body after "base" is the
    // unchanged RTICMON2 layout.
    RTIC_ASSIGN_OR_RETURN(std::string kind, r.ReadString());
    if (kind == kKindDelta) {
      return Status::InvalidArgument(
          "this is a delta checkpoint; apply it with LoadStateDelta() on "
          "top of its parent");
    }
    if (kind != kKindBase) {
      return Status::InvalidArgument("unknown checkpoint kind '" + kind +
                                     "'");
    }
  } else if (magic == kShardedMagic) {
    return Status::FailedPrecondition(
        "checkpoint was written by a sharded monitor");
  } else if (magic != kMonitorMagicV2) {
    return Status::InvalidArgument("not an rtic monitor checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t transition_count, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(Timestamp current_time, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::int64_t total_violations, r.ReadInt());

  // Rebuild the database against the registered schemas.
  Database restored_db;
  RTIC_ASSIGN_OR_RETURN(std::int64_t table_count, r.ReadInt());
  for (std::int64_t i = 0; i < table_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    RTIC_ASSIGN_OR_RETURN(std::int64_t col_count, r.ReadInt());
    std::vector<Column> columns;
    for (std::int64_t c = 0; c < col_count; ++c) {
      RTIC_ASSIGN_OR_RETURN(std::string col_name, r.ReadString());
      RTIC_ASSIGN_OR_RETURN(std::int64_t type, r.ReadInt());
      if (type < 0 || type > static_cast<std::int64_t>(ValueType::kBool)) {
        return Status::InvalidArgument("bad column type in checkpoint");
      }
      columns.push_back(Column{col_name, static_cast<ValueType>(type)});
    }
    RTIC_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(columns)));
    // Validate against the live catalog.
    Result<const Table*> live = db_.GetTable(name);
    if (!live.ok()) {
      return Status::FailedPrecondition("checkpoint table " + name +
                                        " is not registered");
    }
    if (!(live.value()->schema() == schema)) {
      return Status::FailedPrecondition(
          "checkpoint schema for table " + name +
          " does not match the registered schema");
    }
    RTIC_RETURN_IF_ERROR(restored_db.CreateTable(name, schema));
    Table* table = restored_db.GetMutableTable(name).value();
    RTIC_ASSIGN_OR_RETURN(std::int64_t row_count, r.ReadInt());
    for (std::int64_t k = 0; k < row_count; ++k) {
      RTIC_ASSIGN_OR_RETURN(Tuple row, r.ReadTuple());
      Result<bool> ins = table->Insert(std::move(row));
      if (!ins.ok()) return ins.status();
    }
  }
  if (table_count != static_cast<std::int64_t>(db_.TableNames().size())) {
    return Status::FailedPrecondition(
        "checkpoint table count does not match the registered tables");
  }

  RTIC_ASSIGN_OR_RETURN(std::int64_t constraint_count, r.ReadInt());
  if (constraint_count != static_cast<std::int64_t>(constraints_.size())) {
    return Status::FailedPrecondition(
        "checkpoint constraint count does not match registration");
  }
  std::vector<std::string> engine_states;
  std::vector<std::pair<std::int64_t, std::int64_t>> counters;
  for (std::int64_t i = 0; i < constraint_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    if (name != constraints_[static_cast<std::size_t>(i)]->name) {
      return Status::FailedPrecondition(
          "checkpoint constraint order/name mismatch at '" + name + "'");
    }
    RTIC_ASSIGN_OR_RETURN(std::int64_t transitions, r.ReadInt());
    RTIC_ASSIGN_OR_RETURN(std::int64_t c_violations, r.ReadInt());
    if (transitions < 0 || c_violations < 0 || c_violations > transitions) {
      return Status::InvalidArgument(
          "implausible constraint counters in checkpoint for '" + name +
          "'");
    }
    counters.emplace_back(transitions, c_violations);
    RTIC_ASSIGN_OR_RETURN(std::string engine_state, r.ReadString());
    engine_states.push_back(std::move(engine_state));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint");
  }

  // Validation done; apply engine states (these validate constraint texts
  // themselves; dag_ restores its engines together) and only then commit
  // the monitor-level fields. Counters resume from the checkpoint; timing
  // stats restart (they are wall-clock measurements of this process, not
  // monitor state).
  std::vector<const std::string*> linked_states;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (constraints_[i]->incremental != nullptr) {
      linked_states.push_back(&engine_states[i]);
    } else {
      RTIC_RETURN_IF_ERROR(
          constraints_[i]->engine->LoadState(engine_states[i]));
    }
  }
  RTIC_RETURN_IF_ERROR(dag_.LoadState(linked_states));
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    constraints_[i]->transitions =
        static_cast<std::size_t>(counters[i].first);
    constraints_[i]->violations =
        static_cast<std::size_t>(counters[i].second);
    constraints_[i]->total_check_nanos = 0;
    constraints_[i]->max_check_nanos = 0;
    constraints_[i]->last_check_nanos = 0;
  }
  db_ = std::move(restored_db);
  transition_count_ = static_cast<std::size_t>(transition_count);
  current_time_ = current_time;
  total_violations_ = static_cast<std::size_t>(total_violations);
  // The restored state is the new delta baseline.
  ResetCheckpointTracking();
  return Status::OK();
}

void ConstraintMonitor::BeginDeltaTracking() {
  if (!delta_tracking_) {
    delta_tracking_ = true;
    for (const auto& c : constraints_) c->engine->BeginDeltaTracking();
  }
  ResetCheckpointTracking();
}

Result<std::string> ConstraintMonitor::CaptureCheckpoint() {
  RTIC_ASSIGN_OR_RETURN(std::string payload, SaveState());
  if (delta_tracking_) ResetCheckpointTracking();
  return payload;
}

void ConstraintMonitor::ResetCheckpointTracking() {
  table_deltas_.clear();
  checkpoint_parent_transitions_ = transition_count_;
  for (const auto& c : constraints_) c->engine->MarkStateSaved();
}

void ConstraintMonitor::TrackBatchDelta(const UpdateBatch& batch) {
  // Mirror Apply(): per table, deletes land first, then inserts, and
  // no-ops (deleting an absent row, inserting a present one) change
  // nothing. Fold each *effective* operation into the running delta so a
  // row added and later removed (or vice versa) cancels out instead of
  // appearing in both sets.
  for (const std::string& name : batch.TouchedTables()) {
    Result<const Table*> table = db_.GetTable(name);
    if (!table.ok()) continue;  // Validate() upstream makes this unreachable
    TableDelta& delta = table_deltas_[name];

    std::set<Tuple> eff_deleted;  // rows present now that this batch drops
    auto deletes = batch.deletes().find(name);
    if (deletes != batch.deletes().end()) {
      for (const Tuple& row : deletes->second) {
        if (table.value()->Contains(row)) eff_deleted.insert(row);
      }
    }
    std::set<Tuple> eff_inserted;  // rows absent post-delete that it adds
    auto inserts = batch.inserts().find(name);
    if (inserts != batch.inserts().end()) {
      for (const Tuple& row : inserts->second) {
        if (!table.value()->Contains(row) || eff_deleted.count(row) > 0) {
          eff_inserted.insert(row);
        }
      }
    }
    for (const Tuple& row : eff_deleted) {
      if (delta.added.erase(row) == 0) delta.removed.insert(row);
    }
    for (const Tuple& row : eff_inserted) {
      if (delta.removed.erase(row) == 0) delta.added.insert(row);
    }
  }
}

Result<std::string> ConstraintMonitor::SaveStateDelta() {
  if (!delta_tracking_) {
    return Status::FailedPrecondition(
        "SaveStateDelta() requires BeginDeltaTracking()");
  }
  StateWriter w;
  w.WriteString(kMonitorMagic);
  w.WriteString(kKindDelta);
  w.WriteSize(checkpoint_parent_transitions_);
  w.WriteInt(static_cast<std::int64_t>(transition_count_));
  w.WriteInt(current_time_);
  w.WriteInt(static_cast<std::int64_t>(total_violations_));

  std::size_t changed_tables = 0;
  for (const auto& [name, delta] : table_deltas_) {
    if (!delta.removed.empty() || !delta.added.empty()) ++changed_tables;
  }
  w.WriteSize(changed_tables);
  for (const auto& [name, delta] : table_deltas_) {
    if (delta.removed.empty() && delta.added.empty()) continue;
    w.WriteString(name);
    w.WriteSize(delta.removed.size());
    for (const Tuple& row : delta.removed) w.WriteTuple(row);
    w.WriteSize(delta.added.size());
    for (const Tuple& row : delta.added) w.WriteTuple(row);
  }

  w.WriteSize(constraints_.size());
  for (const auto& c : constraints_) {
    w.WriteString(c->name);
    w.WriteSize(c->transitions);
    w.WriteSize(c->violations);
    if (!c->engine->StateDirty()) {
      w.WriteInt(0);  // unchanged since the parent checkpoint
    } else if (c->engine->SupportsStateDelta()) {
      RTIC_ASSIGN_OR_RETURN(std::string blob, c->engine->SaveStateDelta());
      w.WriteInt(1);  // engine-level delta
      w.WriteString(blob);
    } else {
      RTIC_ASSIGN_OR_RETURN(std::string blob, c->engine->SaveState());
      w.WriteInt(2);  // full engine blob (engine cannot delta)
      w.WriteString(blob);
    }
  }
  // This delta is now the baseline: the caller chains the next delta onto
  // it (a write failure downstream forces a base checkpoint instead).
  ResetCheckpointTracking();
  return w.str();
}

Status ConstraintMonitor::LoadStateDelta(const std::string& data) {
  const std::string* payload = &data;
  std::string decompressed;
  if (LooksCompressed(data)) {
    RTIC_ASSIGN_OR_RETURN(decompressed, Decompress(data));
    payload = &decompressed;
  }
  StateReader r(*payload);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic != kMonitorMagic) {
    return Status::InvalidArgument("not an rtic delta checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::string kind, r.ReadString());
  if (kind != kKindDelta) {
    return Status::InvalidArgument("not a delta checkpoint (kind '" + kind +
                                   "'); use LoadState()");
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t parent_transitions, r.ReadInt());
  if (parent_transitions != static_cast<std::int64_t>(transition_count_)) {
    return Status::FailedPrecondition(
        "delta checkpoint chains to a different parent state (parent saw " +
        std::to_string(parent_transitions) + " transitions, this monitor " +
        std::to_string(transition_count_) + ")");
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t transition_count, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(Timestamp current_time, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::int64_t total_violations, r.ReadInt());
  if (transition_count < parent_transitions || total_violations < 0 ||
      current_time < current_time_) {
    return Status::InvalidArgument(
        "implausible counters in delta checkpoint");
  }

  // Stage table changes on copies so a rejected delta leaves the live
  // database untouched.
  RTIC_ASSIGN_OR_RETURN(std::int64_t table_count, r.ReadInt());
  if (table_count < 0) {
    return Status::InvalidArgument("bad table count in delta checkpoint");
  }
  std::vector<std::pair<std::string, Table>> staged_tables;
  for (std::int64_t i = 0; i < table_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    if (!staged_tables.empty() && name <= staged_tables.back().first) {
      return Status::InvalidArgument(
          "delta checkpoint tables out of order at '" + name + "'");
    }
    RTIC_ASSIGN_OR_RETURN(const Table* live, db_.GetTable(name));
    Table staged = *live;
    RTIC_ASSIGN_OR_RETURN(std::int64_t removed, r.ReadInt());
    if (removed < 0) {
      return Status::InvalidArgument("bad row count in delta checkpoint");
    }
    for (std::int64_t k = 0; k < removed; ++k) {
      RTIC_ASSIGN_OR_RETURN(Tuple row, r.ReadTuple());
      if (!staged.Erase(row)) {
        return Status::FailedPrecondition(
            "delta checkpoint removes a row not present in table " + name);
      }
    }
    RTIC_ASSIGN_OR_RETURN(std::int64_t added, r.ReadInt());
    if (added < 0) {
      return Status::InvalidArgument("bad row count in delta checkpoint");
    }
    for (std::int64_t k = 0; k < added; ++k) {
      RTIC_ASSIGN_OR_RETURN(Tuple row, r.ReadTuple());
      RTIC_ASSIGN_OR_RETURN(bool inserted, staged.Insert(std::move(row)));
      if (!inserted) {
        return Status::FailedPrecondition(
            "delta checkpoint adds a row already present in table " + name);
      }
    }
    staged_tables.emplace_back(std::move(name), std::move(staged));
  }

  RTIC_ASSIGN_OR_RETURN(std::int64_t constraint_count, r.ReadInt());
  if (constraint_count != static_cast<std::int64_t>(constraints_.size())) {
    return Status::FailedPrecondition(
        "delta checkpoint constraint count does not match registration");
  }
  struct StagedConstraint {
    std::int64_t transitions = 0;
    std::int64_t violations = 0;
    std::int64_t marker = 0;
    std::string blob;
  };
  std::vector<StagedConstraint> staged_constraints;
  for (std::int64_t i = 0; i < constraint_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    if (name != constraints_[static_cast<std::size_t>(i)]->name) {
      return Status::FailedPrecondition(
          "delta checkpoint constraint order/name mismatch at '" + name +
          "'");
    }
    StagedConstraint sc;
    RTIC_ASSIGN_OR_RETURN(sc.transitions, r.ReadInt());
    RTIC_ASSIGN_OR_RETURN(sc.violations, r.ReadInt());
    if (sc.transitions < 0 || sc.violations < 0 ||
        sc.violations > sc.transitions) {
      return Status::InvalidArgument(
          "implausible constraint counters in delta checkpoint for '" +
          name + "'");
    }
    RTIC_ASSIGN_OR_RETURN(sc.marker, r.ReadInt());
    if (sc.marker < 0 || sc.marker > 2) {
      return Status::InvalidArgument(
          "bad engine-state marker in delta checkpoint for '" + name + "'");
    }
    if (sc.marker != 0) {
      RTIC_ASSIGN_OR_RETURN(sc.blob, r.ReadString());
    }
    staged_constraints.push_back(std::move(sc));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in delta checkpoint");
  }

  // Monitor-level validation done. Engine loads validate (and install)
  // their own blobs; a failure here surfaces to the recovery manager,
  // which evicts this delta and reinstalls the chain from its base, so no
  // partially-applied state survives into a successful recovery.
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const StagedConstraint& sc = staged_constraints[i];
    if (sc.marker == 1) {
      RTIC_RETURN_IF_ERROR(constraints_[i]->engine->LoadStateDelta(sc.blob));
    } else if (sc.marker == 2) {
      RTIC_RETURN_IF_ERROR(constraints_[i]->engine->LoadState(sc.blob));
    }
    constraints_[i]->transitions = static_cast<std::size_t>(sc.transitions);
    constraints_[i]->violations = static_cast<std::size_t>(sc.violations);
    constraints_[i]->total_check_nanos = 0;
    constraints_[i]->max_check_nanos = 0;
    constraints_[i]->last_check_nanos = 0;
  }
  for (auto& [name, staged] : staged_tables) {
    *db_.GetMutableTable(name).value() = std::move(staged);
  }
  transition_count_ = static_cast<std::size_t>(transition_count);
  current_time_ = current_time;
  total_violations_ = static_cast<std::size_t>(total_violations);
  ResetCheckpointTracking();
  return Status::OK();
}

}  // namespace rtic
