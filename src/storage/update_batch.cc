#include "storage/update_batch.h"

#include <set>

namespace rtic {
namespace {

constexpr char kBatchMagic[] = "RTICBAT1";

// Reads a non-negative count written by WriteSize.
Result<std::size_t> ReadCount(StateReader* r, const char* what) {
  RTIC_ASSIGN_OR_RETURN(std::int64_t n, r->ReadInt());
  if (n < 0) {
    return Status::InvalidArgument(std::string("negative ") + what +
                                   " count in update batch");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

void UpdateBatch::Insert(const std::string& table, Tuple tuple) {
  inserts_[table].push_back(std::move(tuple));
}

void UpdateBatch::Delete(const std::string& table, Tuple tuple) {
  deletes_[table].push_back(std::move(tuple));
}

bool UpdateBatch::IsEmpty() const {
  return inserts_.empty() && deletes_.empty();
}

std::size_t UpdateBatch::OperationCount() const {
  std::size_t n = 0;
  for (const auto& [t, v] : inserts_) n += v.size();
  for (const auto& [t, v] : deletes_) n += v.size();
  return n;
}

std::vector<std::string> UpdateBatch::TouchedTables() const {
  std::set<std::string> names;
  for (const auto& [t, v] : inserts_) names.insert(t);
  for (const auto& [t, v] : deletes_) names.insert(t);
  return std::vector<std::string>(names.begin(), names.end());
}

Status UpdateBatch::Validate(const Database& db) const {
  for (const auto& [name, tuples] : deletes_) {
    RTIC_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    for (const Tuple& t : tuples) {
      if (!t.Matches(table->schema())) {
        return Status::InvalidArgument(
            "delete tuple " + t.ToString() + " does not match schema of " +
            name);
      }
    }
  }
  for (const auto& [name, tuples] : inserts_) {
    RTIC_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    for (const Tuple& t : tuples) {
      if (!t.Matches(table->schema())) {
        return Status::InvalidArgument(
            "insert tuple " + t.ToString() + " does not match schema of " +
            name);
      }
    }
  }
  return Status::OK();
}

Status UpdateBatch::Apply(Database* db) const {
  // Validate everything before mutating so a failed Apply has no effect.
  RTIC_RETURN_IF_ERROR(Validate(*db));
  // Tables are independent, so applying each touched table's deletes and
  // then its inserts as one Table::ApplyBatch (a merge over the two sorted
  // maps) is the documented deletes-then-inserts order.
  auto del = deletes_.begin();
  auto ins = inserts_.begin();
  while (del != deletes_.end() || ins != inserts_.end()) {
    const bool take_del = del != deletes_.end() &&
                          (ins == inserts_.end() || del->first <= ins->first);
    const bool take_ins = ins != inserts_.end() &&
                          (del == deletes_.end() || ins->first <= del->first);
    const std::string& name = take_del ? del->first : ins->first;
    Table* table = db->GetMutableTable(name).value();
    RTIC_RETURN_IF_ERROR(table->ApplyBatch(take_del ? &del->second : nullptr,
                                           take_ins ? &ins->second : nullptr));
    if (take_del) ++del;
    if (take_ins) ++ins;
  }
  return Status::OK();
}

void UpdateBatch::EncodeTo(StateWriter* w) const {
  w->WriteString(kBatchMagic);
  w->WriteInt(timestamp_);
  for (const auto* ops : {&deletes_, &inserts_}) {
    w->WriteSize(ops->size());
    for (const auto& [name, tuples] : *ops) {
      w->WriteString(name);
      w->WriteSize(tuples.size());
      for (const Tuple& t : tuples) w->WriteTuple(t);
    }
  }
}

Result<UpdateBatch> UpdateBatch::DecodeFrom(StateReader* r) {
  RTIC_ASSIGN_OR_RETURN(std::string magic, r->ReadString());
  if (magic != kBatchMagic) {
    return Status::InvalidArgument("bad update-batch magic: " + magic);
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t ts, r->ReadInt());
  UpdateBatch batch(static_cast<Timestamp>(ts));
  for (auto* ops : {&batch.deletes_, &batch.inserts_}) {
    RTIC_ASSIGN_OR_RETURN(std::size_t n_tables, ReadCount(r, "table"));
    for (std::size_t i = 0; i < n_tables; ++i) {
      RTIC_ASSIGN_OR_RETURN(std::string name, r->ReadString());
      RTIC_ASSIGN_OR_RETURN(std::size_t n_tuples, ReadCount(r, "tuple"));
      std::vector<Tuple>& tuples = (*ops)[name];
      tuples.reserve(n_tuples);
      for (std::size_t j = 0; j < n_tuples; ++j) {
        RTIC_ASSIGN_OR_RETURN(Tuple t, r->ReadTuple());
        tuples.push_back(std::move(t));
      }
    }
  }
  return batch;
}

std::string UpdateBatch::ToString() const {
  std::string out = "batch@" + std::to_string(timestamp_) + " {\n";
  for (const auto& [name, tuples] : deletes_) {
    for (const Tuple& t : tuples) {
      out += "  -" + name + t.ToString() + "\n";
    }
  }
  for (const auto& [name, tuples] : inserts_) {
    for (const Tuple& t : tuples) {
      out += "  +" + name + t.ToString() + "\n";
    }
  }
  out += "}";
  return out;
}

}  // namespace rtic
