// Unit tests for the relational algebra module, including the zero-column
// boolean-relation conventions every engine relies on.

#include <gtest/gtest.h>

#include "ra/ops.h"
#include "ra/relation.h"
#include "tests/test_util.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntCols;
using testing::IntRelation;
using testing::S;
using testing::T;
using testing::Unwrap;

// ---- Relation basics ---------------------------------------------------------

TEST(RelationTest, TrueAndFalseAreZeroColumnBooleans) {
  EXPECT_TRUE(Relation::True().AsBool());
  EXPECT_FALSE(Relation::False().AsBool());
  EXPECT_EQ(Relation::True().arity(), 0u);
  EXPECT_EQ(Relation::True().size(), 1u);
  EXPECT_EQ(Relation::False().size(), 0u);
}

TEST(RelationTest, TrueCopiesShareOneRowSet) {
  Relation a = Relation::True();
  Relation b = Relation::True();
  ASSERT_NE(a.RowIdentity(), nullptr);
  EXPECT_EQ(a.RowIdentity(), b.RowIdentity());
  // An insert into a copy detaches that copy; TRUE keeps its one row.
  Relation c = Relation::True();
  c.InsertUnchecked(Tuple{});  // already present: still detaches first
  EXPECT_NE(c.RowIdentity(), a.RowIdentity());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(Relation::True().size(), 1u);
  EXPECT_EQ(Relation::True().RowIdentity(), a.RowIdentity());
  EXPECT_TRUE(Relation::True().Contains(Tuple{}));
}

TEST(RelationTest, InsertIntoTrueCopyLeavesTrueWithOneRow) {
  // Mutating a copy of TRUE must never reach the shared row set, even
  // through a row TRUE cannot hold.
  Relation copy = Relation::True();
  copy.InsertUnchecked(T(I(7)));
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(Relation::True().size(), 1u);
  EXPECT_FALSE(Relation::True().Contains(T(I(7))));
  Relation erased = Relation::True();
  EXPECT_TRUE(erased.Erase(Tuple{}));
  EXPECT_TRUE(erased.empty());
  EXPECT_TRUE(Relation::True().AsBool());
}

TEST(RelationTest, CopiesShareTheColumnLayout) {
  Relation a = IntRelation({"x", "y"}, {{1, 2}});
  Relation b = a;
  EXPECT_EQ(&a.columns(), &b.columns());
  // A mutated copy detaches its rows but keeps sharing the columns.
  b.InsertUnchecked(T(I(3), I(4)));
  EXPECT_EQ(&a.columns(), &b.columns());
  EXPECT_EQ(a.size(), 1u);
  // An operator result over the left operand's columns shares them too.
  Relation filtered = Unwrap(ra::SemiJoin(b, IntRelation({"x"}, {{3}})));
  EXPECT_EQ(&filtered.columns(), &b.columns());
  EXPECT_EQ(filtered, IntRelation({"x", "y"}, {{3, 4}}));
}

TEST(RelationTest, MakeRejectsDuplicateColumns) {
  EXPECT_FALSE(Relation::Make(IntCols({"x", "x"})).ok());
  EXPECT_TRUE(Relation::Make(IntCols({"x", "y"})).ok());
}

TEST(RelationTest, InsertTypeChecks) {
  Relation r(IntCols({"x"}));
  RTIC_EXPECT_OK(r.Insert(T(I(1))));
  EXPECT_FALSE(r.Insert(T(S("bad"))).ok());
  EXPECT_FALSE(r.Insert(T(I(1), I(2))).ok());
}

TEST(RelationTest, SortedRowsAreDeterministic) {
  Relation r = IntRelation({"x"}, {{3}, {1}, {2}});
  std::vector<Tuple> rows = r.SortedRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], T(I(1)));
  EXPECT_EQ(rows[2], T(I(3)));
}

TEST(RelationTest, EqualityIsColumnsAndRows) {
  EXPECT_EQ(IntRelation({"x"}, {{1}, {2}}), IntRelation({"x"}, {{2}, {1}}));
  EXPECT_FALSE(IntRelation({"x"}, {{1}}) == IntRelation({"y"}, {{1}}));
  EXPECT_FALSE(IntRelation({"x"}, {{1}}) == IntRelation({"x"}, {{2}}));
}

// ---- NaturalJoin ---------------------------------------------------------------

TEST(NaturalJoinTest, JoinsOnCommonColumns) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}, {2, 20}});
  Relation b = IntRelation({"y", "z"}, {{10, 100}, {10, 101}, {30, 300}});
  Relation out = Unwrap(ra::NaturalJoin(a, b));
  EXPECT_EQ(out, IntRelation({"x", "y", "z"}, {{1, 10, 100}, {1, 10, 101}}));
}

TEST(NaturalJoinTest, NoCommonColumnsIsCrossProduct) {
  Relation a = IntRelation({"x"}, {{1}, {2}});
  Relation b = IntRelation({"y"}, {{7}});
  Relation out = Unwrap(ra::NaturalJoin(a, b));
  EXPECT_EQ(out, IntRelation({"x", "y"}, {{1, 7}, {2, 7}}));
}

TEST(NaturalJoinTest, TrueIsIdentity) {
  Relation a = IntRelation({"x"}, {{1}, {2}});
  EXPECT_EQ(Unwrap(ra::NaturalJoin(Relation::True(), a)), a);
  // Joining with FALSE annihilates.
  EXPECT_TRUE(Unwrap(ra::NaturalJoin(Relation::False(), a)).empty());
}

TEST(NaturalJoinTest, MismatchedColumnTypesFail) {
  Relation a = IntRelation({"x"}, {{1}});
  Relation b({Column{"x", ValueType::kString}});
  EXPECT_FALSE(ra::NaturalJoin(a, b).ok());
}

TEST(NaturalJoinTest, AllColumnsShared_IsIntersection) {
  Relation a = IntRelation({"x"}, {{1}, {2}, {3}});
  Relation b = IntRelation({"x"}, {{2}, {3}, {4}});
  EXPECT_EQ(Unwrap(ra::NaturalJoin(a, b)), IntRelation({"x"}, {{2}, {3}}));
}

// ---- AntiJoin / SemiJoin -------------------------------------------------------

TEST(AntiJoinTest, RemovesMatchingRows) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}, {2, 20}, {3, 30}});
  Relation b = IntRelation({"x"}, {{2}});
  EXPECT_EQ(Unwrap(ra::AntiJoin(a, b)),
            IntRelation({"x", "y"}, {{1, 10}, {3, 30}}));
}

TEST(AntiJoinTest, NoCommonColumnsActsBoolean) {
  Relation a = IntRelation({"x"}, {{1}, {2}});
  // Non-empty right side with disjoint columns removes everything.
  EXPECT_TRUE(Unwrap(ra::AntiJoin(a, IntRelation({"z"}, {{9}}))).empty());
  // Empty right side keeps everything.
  EXPECT_EQ(Unwrap(ra::AntiJoin(a, IntRelation({"z"}, {}))), a);
  // Zero-column booleans.
  EXPECT_TRUE(Unwrap(ra::AntiJoin(a, Relation::True())).empty());
  EXPECT_EQ(Unwrap(ra::AntiJoin(a, Relation::False())), a);
}

TEST(SemiJoinTest, KeepsMatchingRows) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}, {2, 20}});
  Relation b = IntRelation({"y", "w"}, {{20, 5}});
  EXPECT_EQ(Unwrap(ra::SemiJoin(a, b)), IntRelation({"x", "y"}, {{2, 20}}));
}

TEST(SemiJoinTest, ComplementsAntiJoin) {
  Relation a = IntRelation({"x"}, {{1}, {2}, {3}, {4}});
  Relation b = IntRelation({"x"}, {{2}, {4}, {9}});
  Relation semi = Unwrap(ra::SemiJoin(a, b));
  Relation anti = Unwrap(ra::AntiJoin(a, b));
  EXPECT_EQ(Unwrap(ra::Union(semi, anti)), a);
  EXPECT_EQ(semi.size() + anti.size(), a.size());
}

// ---- Empty operands -----------------------------------------------------------
// The joins answer an empty operand without planning the join, but still
// type-check the join columns first, and an empty result keeps the left
// operand's columns.

TEST(EmptyOperandTest, MismatchedJoinTypesFailEvenWhenEmpty) {
  Relation ints = IntRelation({"x"}, {{1}});
  Relation empty_ints(IntCols({"x"}));
  Relation strs({Column{"x", ValueType::kString}});  // empty
  Relation some_strs({Column{"x", ValueType::kString}});
  RTIC_ASSERT_OK(some_strs.Insert(T(S("a"))));
  for (const Relation* a : {&ints, &empty_ints}) {
    for (const Relation* b : {&strs, &some_strs}) {
      EXPECT_EQ(ra::AntiJoin(*a, *b).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(ra::SemiJoin(*a, *b).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(ra::NaturalJoin(*a, *b).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(ra::Difference(*a, *b).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
}

TEST(EmptyOperandTest, EmptyResultsKeepTheLeftColumns) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}, {2, 20}});
  Relation empty_a(IntCols({"x", "y"}));
  Relation b = IntRelation({"y", "z"}, {{10, 100}});
  Relation empty_b(IntCols({"y", "z"}));

  Relation anti = Unwrap(ra::AntiJoin(empty_a, b));
  EXPECT_TRUE(anti.empty());
  EXPECT_EQ(anti.columns(), IntCols({"x", "y"}));
  EXPECT_EQ(Unwrap(ra::AntiJoin(a, empty_b)), a);

  Relation semi = Unwrap(ra::SemiJoin(a, empty_b));
  EXPECT_TRUE(semi.empty());
  EXPECT_EQ(&semi.columns(), &a.columns());
  EXPECT_EQ(Unwrap(ra::SemiJoin(empty_a, b)).columns(), IntCols({"x", "y"}));

  // A join's columns are the left operand's, then the right's new ones.
  for (const auto& [l, r] :
       {std::pair{&a, &empty_b}, std::pair{&empty_a, &b},
        std::pair{&empty_a, &empty_b}}) {
    Relation joined = Unwrap(ra::NaturalJoin(*l, *r));
    EXPECT_TRUE(joined.empty());
    EXPECT_EQ(joined.columns(), IntCols({"x", "y", "z"}));
  }
  Relation within = Unwrap(ra::NaturalJoin(a, Relation(IntCols({"y"}))));
  EXPECT_TRUE(within.empty());
  EXPECT_EQ(&within.columns(), &a.columns());
  Relation with_false = Unwrap(ra::NaturalJoin(Relation::False(), b));
  EXPECT_TRUE(with_false.empty());
  EXPECT_EQ(with_false.columns(), IntCols({"y", "z"}));

  Relation diff = Unwrap(ra::Difference(empty_a, a));
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff.columns(), IntCols({"x", "y"}));
  EXPECT_EQ(Unwrap(ra::Difference(a, Relation(IntCols({"y", "x"})))), a);
}

// ---- Union / Difference / Intersect ----------------------------------------------

TEST(UnionTest, AlignsColumnOrder) {
  Relation a = IntRelation({"x", "y"}, {{1, 2}});
  Relation b = IntRelation({"y", "x"}, {{20, 10}});
  EXPECT_EQ(Unwrap(ra::Union(a, b)),
            IntRelation({"x", "y"}, {{1, 2}, {10, 20}}));
}

TEST(UnionTest, RejectsIncompatibleSchemas) {
  EXPECT_FALSE(ra::Union(IntRelation({"x"}, {}), IntRelation({"y"}, {})).ok());
  EXPECT_FALSE(
      ra::Union(IntRelation({"x"}, {}), IntRelation({"x", "y"}, {})).ok());
}

TEST(DifferenceTest, SubtractsAlignedRows) {
  Relation a = IntRelation({"x", "y"}, {{1, 2}, {3, 4}});
  Relation b = IntRelation({"y", "x"}, {{2, 1}});
  EXPECT_EQ(Unwrap(ra::Difference(a, b)), IntRelation({"x", "y"}, {{3, 4}}));
}

TEST(IntersectTest, KeepsCommonRows) {
  Relation a = IntRelation({"x"}, {{1}, {2}, {3}});
  Relation b = IntRelation({"x"}, {{2}, {3}, {4}});
  EXPECT_EQ(Unwrap(ra::Intersect(a, b)), IntRelation({"x"}, {{2}, {3}}));
}

TEST(BooleanAlgebraOnZeroColumns, WorksAsExpected) {
  Relation t = Relation::True();
  Relation f = Relation::False();
  EXPECT_TRUE(Unwrap(ra::Union(f, t)).AsBool());
  EXPECT_FALSE(Unwrap(ra::Difference(t, t)).AsBool());
  EXPECT_TRUE(Unwrap(ra::Difference(t, f)).AsBool());
  EXPECT_FALSE(Unwrap(ra::Intersect(t, f)).AsBool());
}

// ---- Project / CrossProduct / FromValues -------------------------------------

TEST(ProjectTest, CollapsesDuplicates) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}, {1, 20}, {2, 10}});
  EXPECT_EQ(Unwrap(ra::Project(a, {"x"})), IntRelation({"x"}, {{1}, {2}}));
}

TEST(ProjectTest, ReordersColumns) {
  Relation a = IntRelation({"x", "y"}, {{1, 10}});
  EXPECT_EQ(Unwrap(ra::Project(a, {"y", "x"})),
            IntRelation({"y", "x"}, {{10, 1}}));
}

TEST(ProjectTest, ToZeroColumnsYieldsBoolean) {
  EXPECT_TRUE(Unwrap(ra::Project(IntRelation({"x"}, {{1}}), {})).AsBool());
  EXPECT_FALSE(Unwrap(ra::Project(IntRelation({"x"}, {}), {})).AsBool());
}

TEST(ProjectTest, UnknownColumnFails) {
  EXPECT_FALSE(ra::Project(IntRelation({"x"}, {}), {"z"}).ok());
}

TEST(CrossProductTest, RequiresDisjointColumns) {
  Relation a = IntRelation({"x"}, {{1}});
  Relation b = IntRelation({"x"}, {{2}});
  EXPECT_FALSE(ra::CrossProduct(a, b).ok());
  EXPECT_EQ(Unwrap(ra::CrossProduct(a, IntRelation({"y"}, {{2}}))),
            IntRelation({"x", "y"}, {{1, 2}}));
}

TEST(FromValuesTest, BuildsSingleColumn) {
  Relation r = ra::FromValues("v", ValueType::kInt64, {I(1), I(2), I(1)});
  EXPECT_EQ(r, IntRelation({"v"}, {{1}, {2}}));
}

}  // namespace
}  // namespace rtic
