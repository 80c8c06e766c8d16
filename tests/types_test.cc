// Unit tests for the types module: Value, Schema, Tuple.

#include <gtest/gtest.h>

#include <unordered_set>

#include "tests/test_util.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace rtic {
namespace {

using testing::B;
using testing::D;
using testing::I;
using testing::S;
using testing::T;
using testing::Unwrap;

// ---- Value -----------------------------------------------------------------

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(I(1).type(), ValueType::kInt64);
  EXPECT_EQ(D(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(S("x").type(), ValueType::kString);
  EXPECT_EQ(B(true).type(), ValueType::kBool);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(I(-7).AsInt64(), -7);
  EXPECT_DOUBLE_EQ(D(2.25).AsDouble(), 2.25);
  EXPECT_EQ(S("hi").AsString(), "hi");
  EXPECT_TRUE(B(true).AsBool());
}

TEST(ValueTest, EqualityIsTypeSensitive) {
  EXPECT_EQ(I(1), I(1));
  EXPECT_NE(I(1), I(2));
  EXPECT_NE(I(1), D(1.0));  // exact equality distinguishes int from double
  EXPECT_NE(S("1"), I(1));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(I(42).Hash(), I(42).Hash());
  EXPECT_EQ(S("abc").Hash(), S("abc").Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(I(1));
  set.insert(I(1));
  set.insert(D(1.0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // Type rank first (int < double < string < bool), then payload.
  EXPECT_LT(I(100), D(0.5));
  EXPECT_LT(D(9.0), S("a"));
  EXPECT_LT(S("z"), B(false));
  EXPECT_LT(I(1), I(2));
  EXPECT_LT(S("a"), S("b"));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(I(5).ToString(), "5");
  EXPECT_EQ(S("hi").ToString(), "'hi'");
  EXPECT_EQ(B(false).ToString(), "false");
  EXPECT_EQ(B(true).ToString(), "true");
}

TEST(ValueTest, AsNumericWidens) {
  EXPECT_DOUBLE_EQ(I(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(D(3.5).AsNumeric(), 3.5);
}

TEST(CompareValuesTest, SameTypeOrdering) {
  EXPECT_EQ(Unwrap(CompareValues(I(1), I(1))), 0);
  EXPECT_LT(Unwrap(CompareValues(I(1), I(2))), 0);
  EXPECT_GT(Unwrap(CompareValues(S("b"), S("a"))), 0);
  EXPECT_EQ(Unwrap(CompareValues(B(true), B(true))), 0);
}

TEST(CompareValuesTest, NumericMixingWidens) {
  EXPECT_EQ(Unwrap(CompareValues(I(2), D(2.0))), 0);
  EXPECT_LT(Unwrap(CompareValues(I(2), D(2.5))), 0);
  EXPECT_GT(Unwrap(CompareValues(D(3.1), I(3))), 0);
}

TEST(CompareValuesTest, IncompatibleTypesFail) {
  EXPECT_FALSE(CompareValues(I(1), S("1")).ok());
  EXPECT_FALSE(CompareValues(B(true), I(1)).ok());
  EXPECT_FALSE(CompareValues(S("x"), B(false)).ok());
}

TEST(ValueTypeTest, NamesRoundTrip) {
  for (ValueType t : {ValueType::kInt64, ValueType::kDouble,
                      ValueType::kString, ValueType::kBool}) {
    EXPECT_EQ(Unwrap(ValueTypeFromString(ValueTypeToString(t))), t);
  }
  EXPECT_FALSE(ValueTypeFromString("float").ok());
}

TEST(ValueTypeTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric(ValueType::kInt64));
  EXPECT_TRUE(IsNumeric(ValueType::kDouble));
  EXPECT_FALSE(IsNumeric(ValueType::kString));
  EXPECT_FALSE(IsNumeric(ValueType::kBool));
}

// ---- Schema ----------------------------------------------------------------

TEST(SchemaTest, MakeRejectsDuplicates) {
  EXPECT_FALSE(Schema::Make({Column{"a", ValueType::kInt64},
                             Column{"a", ValueType::kString}})
                   .ok());
  EXPECT_FALSE(Schema::Make({Column{"", ValueType::kInt64}}).ok());
  EXPECT_TRUE(Schema::Make({Column{"a", ValueType::kInt64},
                            Column{"b", ValueType::kInt64}})
                  .ok());
}

TEST(SchemaTest, IndexOf) {
  Schema s = testing::IntSchema({"x", "y"});
  EXPECT_EQ(*s.IndexOf("x"), 0u);
  EXPECT_EQ(*s.IndexOf("y"), 1u);
  EXPECT_FALSE(s.IndexOf("z").has_value());
}

TEST(SchemaTest, NamesAndToString) {
  Schema s({Column{"a", ValueType::kInt64}, Column{"b", ValueType::kString}});
  EXPECT_EQ(s.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.ToString(), "(a: int, b: string)");
}

// ---- Tuple -----------------------------------------------------------------

TEST(TupleTest, EqualityAndHash) {
  EXPECT_EQ(T(I(1), S("a")), T(I(1), S("a")));
  EXPECT_NE(T(I(1), S("a")), T(I(1), S("b")));
  EXPECT_NE(T(I(1)), T(I(1), I(1)));
  EXPECT_EQ(T(I(1), S("a")).Hash(), T(I(1), S("a")).Hash());
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(T(I(1), I(9)), T(I(2), I(0)));
  EXPECT_LT(T(I(1)), T(I(1), I(0)));  // prefix orders first
  EXPECT_FALSE(T(I(2)) < T(I(1)));
}

TEST(TupleTest, MatchesSchema) {
  Schema s({Column{"a", ValueType::kInt64}, Column{"b", ValueType::kString}});
  EXPECT_TRUE(T(I(1), S("x")).Matches(s));
  EXPECT_FALSE(T(I(1), I(2)).Matches(s));   // wrong type
  EXPECT_FALSE(T(I(1)).Matches(s));         // wrong arity
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(T(I(1), S("a")).ToString(), "(1, 'a')");
  EXPECT_EQ(Tuple{}.ToString(), "()");
}

// ---- Tuple copy-on-write ---------------------------------------------------

TEST(TupleCowTest, CopiesShareStorage) {
  Tuple a = T(I(1), S("x"));
  Tuple b = a;  // O(1): bumps the shared refcount
  EXPECT_EQ(&a.at(0), &b.at(0));
  EXPECT_EQ(a, b);
}

TEST(TupleCowTest, HashIsCachedAndStable) {
  Tuple a = T(I(7), S("abc"), B(true));
  const std::size_t h = TupleHash{}(a);
  EXPECT_EQ(TupleHash{}(a), h);
  Tuple b = a;
  EXPECT_EQ(TupleHash{}(b), h);  // the cache rides along with the rep
  // A structurally equal but independently built tuple hashes the same.
  EXPECT_EQ(TupleHash{}(T(I(7), S("abc"), B(true))), h);
}

TEST(TupleCowTest, EqualityShortcutsDoNotChangeSemantics) {
  Tuple a = T(I(1), I(2));
  Tuple same_rep = a;
  Tuple equal = T(I(1), I(2));
  Tuple differs = T(I(1), I(3));
  EXPECT_EQ(a, same_rep);
  EXPECT_EQ(a, equal);
  EXPECT_NE(a, differs);
  // Force both hashes into the cache, then compare again: the
  // different-cached-hash shortcut must agree with elementwise equality.
  (void)TupleHash{}(a);
  (void)TupleHash{}(differs);
  (void)TupleHash{}(equal);
  EXPECT_EQ(a, equal);
  EXPECT_NE(a, differs);
}

TEST(TupleCowTest, DefaultTupleIsEmpty) {
  Tuple t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t, Tuple{});
  EXPECT_EQ(TupleHash{}(t), TupleHash{}(Tuple{}));
}

// ---- Default-Value sentinel ------------------------------------------------

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(ValueSentinelDeathTest, ComparingDefaultConstructedValueAsserts) {
  // A default-constructed Value is a placeholder, not Int64(0); using one
  // in comparison or hashing is a latent bug the debug build traps.
  EXPECT_DEATH(
      {
        Value v;
        Value w = Value::Int64(0);
        bool eq = (v == w);
        (void)eq;
      },
      "default-constructed Value");
}

TEST(ValueSentinelDeathTest, HashingDefaultConstructedValueAsserts) {
  EXPECT_DEATH(
      {
        Value v;
        (void)v.Hash();
      },
      "default-constructed Value");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

// Parameterized sweep: hashing and ordering are consistent for every type.
void ExpectSelfConsistent(const Value& v) {
  EXPECT_EQ(v, v);
  EXPECT_EQ(v.Hash(), v.Hash());
  EXPECT_FALSE(v < v);
  Tuple t{v};
  EXPECT_TRUE((t == Tuple{v}));
}

class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, SelfEqualityAndHashStability) {
  ExpectSelfConsistent(GetParam());
}

// A Value parameter is named by a dump of its bytes. An int's or a double's
// dump starts with the number itself, but a string's starts with a heap
// address and a bool's with padding, so their names would change from one
// build to the next. Strings and bools are swept below with the primitive
// as the parameter instead.
INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTripTest,
    ::testing::Values(Value::Int64(0), Value::Int64(-1),
                      Value::Int64(1'000'000'007), Value::Double(0.0),
                      Value::Double(-2.5)));

class StringValueRoundTripTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(StringValueRoundTripTest, SelfEqualityAndHashStability) {
  ExpectSelfConsistent(S(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllTypes, StringValueRoundTripTest,
                         ::testing::Values("", "hello world"));

class BoolValueRoundTripTest : public ::testing::TestWithParam<bool> {};

TEST_P(BoolValueRoundTripTest, SelfEqualityAndHashStability) {
  ExpectSelfConsistent(B(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllTypes, BoolValueRoundTripTest, ::testing::Bool());

}  // namespace
}  // namespace rtic
