#include "storage/database.h"

#include <atomic>
#include <set>

namespace rtic {

std::uint64_t Database::NextLayoutId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_.emplace(name, Table(name, std::move(schema)));
  layout_id_ = NextLayoutId();
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return &it->second;
}

Result<Table*> Database::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return &it->second;
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  layout_id_ = NextLayoutId();
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::size_t Database::TotalRows() const {
  std::size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.size();
  return n;
}

std::vector<Value> Database::ActiveDomain(ValueType type) const {
  std::set<Value> values;
  for (const auto& [name, table] : tables_) {
    const Schema& schema = table.schema();
    std::vector<std::size_t> cols;
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema.column(i).type == type) cols.push_back(i);
    }
    if (cols.empty()) continue;
    for (const Tuple& row : table.rows()) {
      for (std::size_t c : cols) values.insert(row.at(c));
    }
  }
  return std::vector<Value>(values.begin(), values.end());
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, table] : tables_) {
    out += table.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace rtic
