#include "ra/relation.h"

#include <algorithm>

#include "common/hash.h"

namespace rtic {

std::size_t HashTupleKey(const Tuple& t,
                         const std::vector<std::size_t>& positions) {
  std::size_t seed = positions.size();
  for (std::size_t p : positions) {
    std::size_t h = t.at(p).Hash();
    HashCombine(&seed, h);
  }
  return seed;
}

const std::vector<Column>& Relation::EmptyColumns() {
  static const std::vector<Column> kEmpty;
  return kEmpty;
}

const std::unordered_set<Tuple, TupleHash>& Relation::EmptyRows() {
  static const std::unordered_set<Tuple, TupleHash> kEmpty;
  return kEmpty;
}

const Relation::Index& Relation::EmptyIndex() {
  static const Index kEmpty;
  return kEmpty;
}

Relation::Rep& Relation::MutableRep() {
  if (!rep_) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_.use_count() > 1) {
    // Copy-on-write detach: rows are copied (sharing tuple payloads);
    // cached indexes stay with the old storage.
    auto fresh = std::make_shared<Rep>();
    fresh->rows = rep_->rows;
    rep_ = std::move(fresh);
  }
  return *rep_;
}

Relation::Layout Relation::MakeLayout(std::vector<Column> columns) {
  if (columns.empty()) return nullptr;
  return std::make_shared<const std::vector<Column>>(std::move(columns));
}

Result<Relation> Relation::Make(std::vector<Column> columns) {
  // Relations are narrow: a pairwise scan beats hashing every name.
  for (std::size_t i = 0; i < columns.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (columns[j].name == columns[i].name) {
        return Status::InvalidArgument("duplicate relation column: " +
                                       columns[i].name);
      }
    }
  }
  return Relation(std::move(columns));
}

Relation Relation::True() {
  // The static copy keeps the row set shared, so a caller's insert always
  // detaches its own copy and this one keeps exactly one row.
  static const Relation kTrue = [] {
    Relation r;
    r.InsertUnchecked(Tuple{});
    return r;
  }();
  return kTrue;
}

std::optional<std::size_t> Relation::IndexOf(const std::string& name) const {
  const std::vector<Column>& cols = columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> Relation::ColumnNames() const {
  std::vector<std::string> out;
  out.reserve(arity());
  for (const Column& c : columns()) out.push_back(c.name);
  return out;
}

Status Relation::Insert(Tuple row) {
  const std::vector<Column>& cols = columns();
  if (row.size() != cols.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match relation arity " + std::to_string(cols.size()));
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (row.at(i).type() != cols[i].type) {
      return Status::InvalidArgument(
          "row value " + row.at(i).ToString() + " at column " +
          cols[i].name + " has wrong type");
    }
  }
  InsertUnchecked(std::move(row));
  return Status::OK();
}

void Relation::InsertUnchecked(Tuple row) {
  Rep& rep = MutableRep();
  auto r = rep.rows.insert(std::move(row));
  if (r.second && !rep.indexes.empty()) {
    // Maintain cached indexes incrementally; unordered_set nodes are stable,
    // so the stored pointer stays valid across later inserts.
    const Tuple& stored = *r.first;
    for (const auto& idx : rep.indexes) {
      idx->buckets[HashTupleKey(stored, idx->key)].push_back(&stored);
    }
  }
}

bool Relation::Erase(const Tuple& row) {
  if (!rep_ || rep_->rows.find(row) == rep_->rows.end()) return false;
  Rep& rep = MutableRep();  // may detach; re-find in the (possibly new) rep
  auto it = rep.rows.find(row);
  if (!rep.indexes.empty()) {
    const Tuple* stored = &*it;
    for (const auto& idx : rep.indexes) {
      auto bucket = idx->buckets.find(HashTupleKey(*stored, idx->key));
      if (bucket == idx->buckets.end()) continue;
      auto& ptrs = bucket->second;
      for (std::size_t i = 0; i < ptrs.size(); ++i) {
        if (ptrs[i] == stored) {
          ptrs[i] = ptrs.back();
          ptrs.pop_back();
          break;
        }
      }
      if (ptrs.empty()) idx->buckets.erase(bucket);
    }
  }
  rep.rows.erase(it);
  return true;
}

const Relation::Index& Relation::GetIndex(
    const std::vector<std::size_t>& key) const {
  if (!rep_) return EmptyIndex();
  std::lock_guard<std::mutex> lock(rep_->mu);
  for (const auto& idx : rep_->indexes) {
    if (idx->key == key) return *idx;
  }
  auto idx = std::make_unique<Index>();
  idx->key = key;
  idx->buckets.reserve(rep_->rows.size());
  for (const Tuple& row : rep_->rows) {
    idx->buckets[HashTupleKey(row, key)].push_back(&row);
  }
  rep_->indexes.push_back(std::move(idx));
  return *rep_->indexes.back();
}

std::vector<Tuple> Relation::SortedRows() const {
  const auto& rows_set = rows();
  std::vector<Tuple> out(rows_set.begin(), rows_set.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::operator==(const Relation& o) const {
  if (layout_ != o.layout_ && columns() != o.columns()) return false;
  if (rep_ == o.rep_) return true;
  return rows() == o.rows();
}

std::string Relation::ToString() const {
  std::string out = "(";
  const std::vector<Column>& cols = columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ", ";
    out += cols[i].name;
    out += ": ";
    out += ValueTypeToString(cols[i].type);
  }
  out += ") {\n";
  for (const Tuple& t : SortedRows()) {
    out += "  " + t.ToString() + "\n";
  }
  out += "}";
  return out;
}

}  // namespace rtic
