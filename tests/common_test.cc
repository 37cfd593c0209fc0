#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "common/io.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "reference/textify_reference.h"

namespace leva {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

Status FailingFunction() { return Status::NotFound("gone"); }

Status PropagatingFunction() {
  LEVA_RETURN_IF_ERROR(FailingFunction());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingFunction().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  LEVA_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(QuarterEven(6).ok());  // 6/2 = 3, odd
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversAll) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(17);
  const auto p = rng.Permutation(50);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(StringUtilTest, SplitBasics) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitNoDelimiter) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, ToLowerAndJoin) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2 "), -2.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(StringUtilTest, ParseInt) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").has_value());
  EXPECT_FALSE(ParseInt("x").has_value());
}

TEST(StringUtilTest, MissingTokens) {
  EXPECT_TRUE(LooksLikeMissingToken(""));
  EXPECT_TRUE(LooksLikeMissingToken("?"));
  EXPECT_TRUE(LooksLikeMissingToken("NULL"));
  EXPECT_TRUE(LooksLikeMissingToken(" n/a "));
  EXPECT_TRUE(LooksLikeMissingToken("NaN"));
  EXPECT_FALSE(LooksLikeMissingToken("0"));
  EXPECT_FALSE(LooksLikeMissingToken("value"));
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(Crc32cTest, MatchesKnownVector) {
  // RFC 3720 test vector for CRC32C.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ChainsAcrossCalls) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t chained = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    chained = Crc32c(data.data() + i, n, chained);
  }
  EXPECT_EQ(chained, whole);
}

TEST(BufferIoTest, RoundTripsAllTypes) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutBool(true);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(UINT64_C(0x0123456789ABCDEF));
  w.PutDouble(-2.25);
  w.PutString("hello");
  BufferReader r(w.data());
  uint8_t u8 = 0;
  bool b = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, UINT64_C(0x0123456789ABCDEF));
  EXPECT_EQ(d, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufferIoTest, RejectsReadsPastTheEnd) {
  BufferWriter w;
  w.PutU32(7);
  BufferReader r(w.data());
  uint64_t u64 = 0;
  EXPECT_FALSE(r.GetU64(&u64).ok());
}

TEST(BufferIoTest, RejectsCorruptStringLength) {
  // A string claiming to be far longer than the buffer must fail cleanly
  // instead of allocating or reading out of bounds.
  BufferWriter w;
  w.PutU64(UINT64_C(1) << 60);
  w.PutU8('x');
  BufferReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.GetString(&s).ok());
}

TEST(AtomicWriteFileTest, WritesAndOverwrites) {
  const std::string path =
      std::string(::testing::TempDir()) + "/leva_atomic_write_test.bin";
  Env* env = Env::Default();
  ASSERT_TRUE(AtomicWriteFile(env, path, "first").ok());
  auto back = env->ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "first");
  ASSERT_TRUE(AtomicWriteFile(env, path, "second, longer contents").ok());
  back = env->ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "second, longer contents");
  EXPECT_TRUE(env->DeleteFile(path).ok());
  // The temp staging file must not linger.
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
}

}  // namespace
}  // namespace leva
