// Unit tests for the common module: Status/Result, TimeInterval, Rng,
// string utilities.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/crc32c.h"
#include "common/interval.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "tests/test_util.h"

namespace rtic {
namespace {

using testing::Unwrap;

// ---- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    RTIC_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ---- Result ----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusDegradesToInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto get = []() -> Result<int> { return 7; };
  auto use = [&]() -> Result<int> {
    RTIC_ASSIGN_OR_RETURN(int v, get());
    return v + 1;
  };
  EXPECT_EQ(Unwrap(use()), 8);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto get = []() -> Result<int> { return Status::OutOfRange("nope"); };
  auto use = [&]() -> Result<int> {
    RTIC_ASSIGN_OR_RETURN(int v, get());
    return v + 1;
  };
  EXPECT_EQ(use().status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValue) {
  auto get = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(5);
  };
  auto r = get();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

// ---- TimeInterval ----------------------------------------------------------

TEST(TimeIntervalTest, DefaultIsAllOfTime) {
  TimeInterval i;
  EXPECT_EQ(i.lo(), 0);
  EXPECT_TRUE(i.unbounded());
  EXPECT_TRUE(i.Contains(0));
  EXPECT_TRUE(i.Contains(1'000'000'000));
}

TEST(TimeIntervalTest, MakeValidates) {
  EXPECT_TRUE(TimeInterval::Make(0, 5).ok());
  EXPECT_TRUE(TimeInterval::Make(3, 3).ok());
  EXPECT_FALSE(TimeInterval::Make(-1, 5).ok());
  EXPECT_FALSE(TimeInterval::Make(5, 3).ok());
}

TEST(TimeIntervalTest, ContainsIsInclusive) {
  TimeInterval i = Unwrap(TimeInterval::Make(2, 5));
  EXPECT_FALSE(i.Contains(1));
  EXPECT_TRUE(i.Contains(2));
  EXPECT_TRUE(i.Contains(5));
  EXPECT_FALSE(i.Contains(6));
}

TEST(TimeIntervalTest, ExpiredOnlyPastUpperBound) {
  TimeInterval i = Unwrap(TimeInterval::Make(2, 5));
  EXPECT_FALSE(i.Expired(5));
  EXPECT_TRUE(i.Expired(6));
  EXPECT_FALSE(TimeInterval::All().Expired(1'000'000));
}

TEST(TimeIntervalTest, ExactlyIsAPoint) {
  TimeInterval i = TimeInterval::Exactly(4);
  EXPECT_FALSE(i.Contains(3));
  EXPECT_TRUE(i.Contains(4));
  EXPECT_FALSE(i.Contains(5));
}

TEST(TimeIntervalTest, ToStringForms) {
  EXPECT_EQ(Unwrap(TimeInterval::Make(1, 9)).ToString(), "[1, 9]");
  EXPECT_EQ(TimeInterval::All().ToString(), "[0, inf)");
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    std::int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---- string_util -----------------------------------------------------------

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split("a,,c", ',')[1], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, QuoteStringEscapes) {
  EXPECT_EQ(QuoteString("abc"), "'abc'");
  EXPECT_EQ(QuoteString("it's"), "'it\\'s'");
  EXPECT_EQ(QuoteString("a\\b"), "'a\\\\b'");
}

// ---- Crc32c ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // RFC 3720 (iSCSI) Castagnoli test vectors.
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainingEqualsWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t chained =
        Crc32c(data.substr(split), Crc32c(data.substr(0, split)));
    EXPECT_EQ(chained, Crc32c(data)) << "split at " << split;
  }
}

// Bit-at-a-time CRC-32C straight from the polynomial: no tables, so it
// shares nothing with the implementation under test.
std::uint32_t BitwiseCrc32c(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..1024 from every start offset 0..7, so each word-at-a-
  // time loop sees every alignment and every tail length.
  std::vector<unsigned char> buf(1024 + 8);
  Rng rng(32);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, n), BitwiseCrc32c(p, n, 0))
          << "length " << n << " at offset " << align;
    }
  }
}

TEST(Crc32cTest, ChainedSeedsMatchBitwiseReference) {
  // EncodeRecord checksums the sequence bytes, then continues into the
  // payload with that CRC as the seed; check that chaining at every split.
  std::vector<unsigned char> buf(300);
  Rng rng(33);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = Crc32c(buf.data(), split);
    ASSERT_EQ(head, BitwiseCrc32c(buf.data(), split, 0));
    const std::uint32_t chained =
        Crc32c(buf.data() + split, buf.size() - split, head);
    ASSERT_EQ(chained,
              BitwiseCrc32c(buf.data() + split, buf.size() - split, head))
        << "split at " << split;
    ASSERT_EQ(chained, Crc32c(buf.data(), buf.size()));
  }
  for (std::uint32_t seed : {0x1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    ASSERT_EQ(Crc32c(buf.data(), buf.size(), seed),
              BitwiseCrc32c(buf.data(), buf.size(), seed))
        << "seed " << seed;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  const std::string data = "payload bytes";
  const std::uint32_t clean = Crc32c(data);
  for (std::size_t i = 0; i < data.size() * 8; ++i) {
    std::string flipped = data;
    flipped[i / 8] ^= static_cast<char>(1u << (i % 8));
    EXPECT_NE(Crc32c(flipped), clean) << "bit " << i;
  }
}

}  // namespace
}  // namespace rtic
