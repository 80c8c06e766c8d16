#include "ra/ops.h"

#include <algorithm>
#include <unordered_set>

namespace rtic {
namespace ra {

namespace {

/// Positions of the columns common to a and b, plus b's non-common columns.
struct JoinPlan {
  std::vector<std::size_t> a_key;       // key column positions in a
  std::vector<std::size_t> b_key;       // matching key positions in b
  std::vector<std::size_t> b_rest;      // b columns not in a
};

Status MismatchedJoinType(const Column& c) {
  return Status::InvalidArgument("join column " + c.name +
                                 " has mismatched types");
}

/// Fails iff a same-named column of a and b differs in type. Allocates
/// nothing, so an empty operand can be answered without a plan.
Status CheckJoinTypes(const Relation& a, const Relation& b) {
  for (const Column& c : a.columns()) {
    auto j = b.IndexOf(c.name);
    if (j.has_value() && b.columns()[*j].type != c.type) {
      return MismatchedJoinType(c);
    }
  }
  return Status::OK();
}

Result<JoinPlan> PlanJoin(const Relation& a, const Relation& b) {
  JoinPlan plan;
  for (std::size_t i = 0; i < a.columns().size(); ++i) {
    auto j = b.IndexOf(a.columns()[i].name);
    if (!j.has_value()) continue;
    if (a.columns()[i].type != b.columns()[*j].type) {
      return MismatchedJoinType(a.columns()[i]);
    }
    plan.a_key.push_back(i);
    plan.b_key.push_back(*j);
  }
  for (std::size_t j = 0; j < b.columns().size(); ++j) {
    if (std::find(plan.b_key.begin(), plan.b_key.end(), j) ==
        plan.b_key.end()) {
      plan.b_rest.push_back(j);
    }
  }
  return plan;
}

/// A join's output columns: a's, then b's columns not in a. Shares an
/// operand's layout when the other adds no column.
Relation::Layout JoinLayout(const Relation& a, const Relation& b) {
  if (a.arity() == 0) return b.layout();
  std::vector<Column> cols;
  for (const Column& c : b.columns()) {
    if (a.IndexOf(c.name).has_value()) continue;
    if (cols.empty()) cols = a.columns();
    cols.push_back(c);
  }
  return cols.empty() ? a.layout() : Relation::MakeLayout(std::move(cols));
}

/// Element-wise key equality for an index-probe hit (bucket hashes collide).
bool KeyEquals(const Tuple& a, const std::vector<std::size_t>& a_key,
               const Tuple& b, const std::vector<std::size_t>& b_key) {
  for (std::size_t i = 0; i < a_key.size(); ++i) {
    if (a.at(a_key[i]) != b.at(b_key[i])) return false;
  }
  return true;
}

/// True iff `positions` is 0, 1, ..., n-1 (reordering would be a no-op).
bool IsIdentity(const std::vector<std::size_t>& positions) {
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] != i) return false;
  }
  return true;
}

/// Maps b's column order onto a's order for Union/Difference/Intersect:
/// `(*b_pos)[i]` is the position in b of a's column i. Fails unless b's
/// columns are a name+type permutation of a's. With `b_pos` null it only
/// checks, and allocates nothing.
Status AlignColumns(const Relation& a, const Relation& b,
                    std::vector<std::size_t>* b_pos) {
  if (a.columns().size() != b.columns().size()) {
    return Status::InvalidArgument(
        "relations have different arities: " +
        std::to_string(a.columns().size()) + " vs " +
        std::to_string(b.columns().size()));
  }
  if (b_pos != nullptr) b_pos->resize(a.columns().size());
  for (std::size_t i = 0; i < a.columns().size(); ++i) {
    auto j = b.IndexOf(a.columns()[i].name);
    if (!j.has_value()) {
      return Status::InvalidArgument("column " + a.columns()[i].name +
                                     " missing from right-hand relation");
    }
    if (b.columns()[*j].type != a.columns()[i].type) {
      return Status::InvalidArgument("column " + a.columns()[i].name +
                                     " has mismatched types");
    }
    if (b_pos != nullptr) (*b_pos)[i] = *j;
  }
  return Status::OK();
}

Tuple Reorder(const Tuple& row, const std::vector<std::size_t>& positions) {
  std::vector<Value> vals;
  vals.reserve(positions.size());
  for (std::size_t p : positions) vals.push_back(row.at(p));
  return Tuple(std::move(vals));
}

/// True when the join key is the full arity of both sides in identical
/// order: the probe row IS the key, so b's row set answers membership
/// directly and no index build is needed.
bool FullRowKey(const Relation& a, const Relation& b, const JoinPlan& plan) {
  return plan.a_key.size() == a.arity() && a.arity() == b.arity() &&
         IsIdentity(plan.a_key) && IsIdentity(plan.b_key);
}

/// "Does any b-row agree with `arow` on the join key?" via b's cached index.
bool HasKeyMatch(const Tuple& arow, const JoinPlan& plan,
                 const Relation::Index& index) {
  auto it = index.buckets.find(HashTupleKey(arow, plan.a_key));
  if (it == index.buckets.end()) return false;
  for (const Tuple* brow : it->second) {
    if (KeyEquals(arow, plan.a_key, *brow, plan.b_key)) return true;
  }
  return false;
}

}  // namespace

Result<Relation> NaturalJoin(const Relation& a, const Relation& b) {
  if (a.empty() || b.empty()) {
    RTIC_RETURN_IF_ERROR(CheckJoinTypes(a, b));
    return Relation(JoinLayout(a, b));
  }
  // Zero-column sides are booleans, and a non-empty one is TRUE: the join
  // identity. Returning the other operand outright shares its rows.
  if (a.arity() == 0) return b;
  if (b.arity() == 0) return a;

  RTIC_ASSIGN_OR_RETURN(JoinPlan plan, PlanJoin(a, b));
  Relation out(JoinLayout(a, b));

  if (plan.b_rest.empty() && FullRowKey(a, b, plan)) {
    // Same-schema join is an intersection; probe b's row set directly.
    for (const Tuple& arow : a.rows()) {
      if (b.Contains(arow)) out.InsertUnchecked(arow);
    }
    return out;
  }

  const Relation::Index& index = b.GetIndex(plan.b_key);
  for (const Tuple& arow : a.rows()) {
    auto it = index.buckets.find(HashTupleKey(arow, plan.a_key));
    if (it == index.buckets.end()) continue;
    for (const Tuple* brow : it->second) {
      if (!KeyEquals(arow, plan.a_key, *brow, plan.b_key)) continue;
      if (plan.b_rest.empty()) {
        // b adds no columns: the output row is arow itself (shared payload).
        out.InsertUnchecked(arow);
        break;
      }
      std::vector<Value> vals = arow.values();
      vals.reserve(vals.size() + plan.b_rest.size());
      for (std::size_t j : plan.b_rest) vals.push_back(brow->at(j));
      out.InsertUnchecked(Tuple(std::move(vals)));
    }
  }
  return out;
}

Result<Relation> AntiJoin(const Relation& a, const Relation& b) {
  if (a.empty() || b.empty()) {
    RTIC_RETURN_IF_ERROR(CheckJoinTypes(a, b));
    return a;
  }
  RTIC_ASSIGN_OR_RETURN(JoinPlan plan, PlanJoin(a, b));
  Relation out(a.layout());
  if (FullRowKey(a, b, plan)) {
    for (const Tuple& arow : a.rows()) {
      if (!b.Contains(arow)) out.InsertUnchecked(arow);
    }
    return out;
  }
  const Relation::Index& index = b.GetIndex(plan.b_key);
  for (const Tuple& arow : a.rows()) {
    if (!HasKeyMatch(arow, plan, index)) out.InsertUnchecked(arow);
  }
  return out;
}

Result<Relation> SemiJoin(const Relation& a, const Relation& b) {
  if (a.empty() || b.empty()) {
    RTIC_RETURN_IF_ERROR(CheckJoinTypes(a, b));
    return a.empty() ? a : Relation(a.layout());
  }
  RTIC_ASSIGN_OR_RETURN(JoinPlan plan, PlanJoin(a, b));
  Relation out(a.layout());
  if (FullRowKey(a, b, plan)) {
    for (const Tuple& arow : a.rows()) {
      if (b.Contains(arow)) out.InsertUnchecked(arow);
    }
    return out;
  }
  const Relation::Index& index = b.GetIndex(plan.b_key);
  for (const Tuple& arow : a.rows()) {
    if (HasKeyMatch(arow, plan, index)) out.InsertUnchecked(arow);
  }
  return out;
}

Result<Relation> Union(const Relation& a, const Relation& b) {
  std::vector<std::size_t> b_pos;
  RTIC_RETURN_IF_ERROR(AlignColumns(a, b, b.empty() ? nullptr : &b_pos));
  if (b.empty()) return a;
  bool identity = IsIdentity(b_pos);
  if (a.empty() && identity) return b;
  Relation out = a;  // shares a's rows until the first insert detaches
  for (const Tuple& row : b.rows()) {
    out.InsertUnchecked(identity ? row : Reorder(row, b_pos));
  }
  return out;
}

Result<Relation> Difference(const Relation& a, const Relation& b) {
  if (a.empty() || b.empty()) {
    RTIC_RETURN_IF_ERROR(AlignColumns(a, b, nullptr));
    return a;
  }
  std::vector<std::size_t> b_pos;
  RTIC_RETURN_IF_ERROR(AlignColumns(a, b, &b_pos));
  Relation out(a.layout());
  if (IsIdentity(b_pos)) {
    for (const Tuple& row : a.rows()) {
      if (!b.Contains(row)) out.InsertUnchecked(row);
    }
    return out;
  }
  std::unordered_set<Tuple, TupleHash> b_rows;
  b_rows.reserve(b.size());
  for (const Tuple& row : b.rows()) b_rows.insert(Reorder(row, b_pos));
  for (const Tuple& row : a.rows()) {
    if (b_rows.find(row) == b_rows.end()) out.InsertUnchecked(row);
  }
  return out;
}

Result<Relation> Intersect(const Relation& a, const Relation& b) {
  if (a.empty() || b.empty()) {
    RTIC_RETURN_IF_ERROR(AlignColumns(a, b, nullptr));
    return a.empty() ? a : Relation(a.layout());
  }
  std::vector<std::size_t> b_pos;
  RTIC_RETURN_IF_ERROR(AlignColumns(a, b, &b_pos));
  Relation out(a.layout());
  if (IsIdentity(b_pos)) {
    for (const Tuple& row : a.rows()) {
      if (b.Contains(row)) out.InsertUnchecked(row);
    }
    return out;
  }
  std::unordered_set<Tuple, TupleHash> b_rows;
  b_rows.reserve(b.size());
  for (const Tuple& row : b.rows()) b_rows.insert(Reorder(row, b_pos));
  for (const Tuple& row : a.rows()) {
    if (b_rows.find(row) != b_rows.end()) out.InsertUnchecked(row);
  }
  return out;
}

Result<Relation> Project(const Relation& a,
                         const std::vector<std::string>& columns) {
  std::vector<std::size_t> positions;
  std::vector<Column> out_cols;
  positions.reserve(columns.size());
  for (const std::string& name : columns) {
    auto i = a.IndexOf(name);
    if (!i.has_value()) {
      return Status::InvalidArgument("project: no such column: " + name);
    }
    positions.push_back(*i);
    out_cols.push_back(a.columns()[*i]);
  }
  // Projecting onto all columns in order is the identity.
  if (positions.size() == a.arity() && IsIdentity(positions)) return a;
  RTIC_ASSIGN_OR_RETURN(Relation out, Relation::Make(std::move(out_cols)));
  return ProjectPositions(a, positions, out.layout());
}

Relation ProjectPositions(const Relation& a,
                          const std::vector<std::size_t>& positions,
                          Relation::Layout layout) {
  Relation out(std::move(layout));
  for (const Tuple& row : a.rows()) {
    out.InsertUnchecked(Reorder(row, positions));
  }
  return out;
}

Result<Relation> CrossProduct(const Relation& a, const Relation& b) {
  for (const Column& c : b.columns()) {
    if (a.IndexOf(c.name).has_value()) {
      return Status::InvalidArgument("cross product: shared column " + c.name);
    }
  }
  return NaturalJoin(a, b);  // no common columns => cross product
}

Relation FromValues(const std::string& name, ValueType type,
                    const std::vector<Value>& values) {
  Relation out({Column{name, type}});
  for (const Value& v : values) {
    out.InsertUnchecked(Tuple{v});
  }
  return out;
}

}  // namespace ra
}  // namespace rtic
