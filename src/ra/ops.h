// Relational algebra over named-column Relations. All binary operators match
// columns *by name* (natural-join style); types of same-named columns must
// agree. Hash-based implementations throughout.

#ifndef RTIC_RA_OPS_H_
#define RTIC_RA_OPS_H_

#include <string>
#include <vector>

#include "ra/relation.h"

namespace rtic {
namespace ra {

/// Natural join: rows agreeing on all same-named columns. Output columns:
/// a's columns, then b's columns not present in a. No common columns => cross
/// product (in particular joining with the zero-column TRUE relation is the
/// identity).
Result<Relation> NaturalJoin(const Relation& a, const Relation& b);

/// Anti-join (a ▷ b): rows of `a` with no b-row agreeing on the common
/// columns. No common columns: returns `a` if b is empty, else empty.
/// This is the negation workhorse: eval(φ ∧ ¬ψ) = eval(φ) ▷ eval(ψ).
Result<Relation> AntiJoin(const Relation& a, const Relation& b);

/// Semi-join (a ⋉ b): rows of `a` with at least one agreeing b-row.
Result<Relation> SemiJoin(const Relation& a, const Relation& b);

/// Union. `b`'s columns must be a (name+type) permutation of `a`'s; rows are
/// reordered to a's column order.
Result<Relation> Union(const Relation& a, const Relation& b);

/// Set difference (same column compatibility rule as Union).
Result<Relation> Difference(const Relation& a, const Relation& b);

/// Intersection (same column compatibility rule as Union).
Result<Relation> Intersect(const Relation& a, const Relation& b);

/// Projection onto `columns` (each must exist); duplicates collapse.
Result<Relation> Project(const Relation& a,
                         const std::vector<std::string>& columns);

/// Projection by position: output column i is a's column `positions[i]`,
/// labelled by `layout`'s column i, which must have that column's type.
/// Duplicates collapse. For callers that resolved the names already.
Relation ProjectPositions(const Relation& a,
                          const std::vector<std::size_t>& positions,
                          Relation::Layout layout);

/// Cross product; column sets must be disjoint.
Result<Relation> CrossProduct(const Relation& a, const Relation& b);

/// Single-column relation `name : type` holding `values` (the active-domain
/// building block).
Relation FromValues(const std::string& name, ValueType type,
                    const std::vector<Value>& values);

}  // namespace ra
}  // namespace rtic

#endif  // RTIC_RA_OPS_H_
