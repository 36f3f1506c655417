// Tests for evrec/util: Status/StatusOr, Rng distributions and
// determinism, string helpers, numeric helpers, binary/CSV IO, and the
// thread-safe logger (record atomicity under a stampede, rate limiting,
// timestamp format).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "evrec/util/binary_io.h"
#include "evrec/util/crc32.h"
#include "evrec/util/csv_writer.h"
#include "evrec/util/json.h"
#include "evrec/util/logging.h"
#include "evrec/util/math_util.h"
#include "evrec/util/rng.h"
#include "evrec/util/status.h"
#include "evrec/util/string_util.h"
#include "evrec/util/trace_context.h"

namespace evrec {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, ServingCodeFactories) {
  Status d = Status::DeadlineExceeded("budget spent");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: budget spent");
  Status u = Status::Unavailable("shard down");
  EXPECT_EQ(u.code(), StatusCode::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: shard down");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("payload"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

TEST(StatusOrTest, ValueOrReturnsValueWhenOk) {
  StatusOr<int> v(42);
  EXPECT_EQ(v.value_or(-1), 42);
  StatusOr<std::string> s(std::string("have"));
  EXPECT_EQ(s.value_or("fallback"), "have");
}

TEST(StatusOrTest, ValueOrReturnsDefaultOnError) {
  StatusOr<int> v(Status::Unavailable("down"));
  EXPECT_EQ(v.value_or(-1), -1);
  StatusOr<std::vector<float>> vec(Status::NotFound("miss"));
  EXPECT_EQ(std::move(vec).value_or({9.0f}), std::vector<float>{9.0f});
}

TEST(StatusOrTest, ValueOrMovesOutOfRvalue) {
  StatusOr<std::string> v(std::string("payload"));
  std::string s = std::move(v).value_or("unused");
  EXPECT_EQ(s, "payload");
}

TEST(StatusOrTest, StatusMovesOutOfRvalue) {
  StatusOr<int> v(Status::DeadlineExceeded("late"));
  Status s = std::move(v).status();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "late");
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(123, 7), b(123, 8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformU32RespectsBound) {
  Rng rng(1);
  for (uint32_t bound : {1u, 2u, 7u, 100u, 1000003u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU32(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(5);
  for (double shape : {0.3, 1.0, 4.5}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.08) << "shape=" << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    auto v = rng.Dirichlet(0.3, 8);
    ASSERT_EQ(v.size(), 8u);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(7);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i)] = i;
  auto copy = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.Zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(10);
  Rng child = parent.Fork(1);
  Rng child2 = parent.Fork(1);
  // Sequential forks from an advancing parent differ.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.NextU32() == child2.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitAndTrimDropsEmpties) {
  auto parts = SplitAndTrim("a,,b, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitEmptyInput) {
  EXPECT_TRUE(SplitAndTrim("", ",").empty());
  EXPECT_TRUE(SplitAndTrim(",,,", ",").empty());
}

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("AbC-12"), "abc-12");
}

TEST(StringUtilTest, IsAsciiAlnum) {
  EXPECT_TRUE(IsAsciiAlnum("abc123"));
  EXPECT_FALSE(IsAsciiAlnum("ab c"));
  EXPECT_FALSE(IsAsciiAlnum("a-b"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, ParseNumberAcceptsOnlyWholeNumbers) {
  int i = 7;
  EXPECT_TRUE(ParseNumber("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseNumber("-3", &i));
  EXPECT_EQ(i, -3);
  for (const char* bad : {"", "abc", "12x", " 1", "1 ", "+1", "1.5", "0x10",
                          "2147483648"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << "'" << bad << "'";
  }
  EXPECT_EQ(i, -3);  // unchanged by every failure

  int64_t l = 0;
  EXPECT_TRUE(ParseNumber("2147483648", &l));
  EXPECT_EQ(l, int64_t{2147483648});
  EXPECT_FALSE(ParseNumber("9223372036854775808", &l));

  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseNumber("-1", &u));
  EXPECT_FALSE(ParseNumber("18446744073709551616", &u));

  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(ParseNumber("-1e-3", &d));
  EXPECT_EQ(d, -1e-3);
  // Correctly rounded, like strtod.
  EXPECT_TRUE(ParseNumber("0.123456789", &d));
  EXPECT_EQ(d, std::strtod("0.123456789", nullptr));
  for (const char* bad : {"", "x", "1.5.2", "1e", " 2", "nan", "inf",
                          "-inf", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
  }
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.bin", ".bin"));
  EXPECT_FALSE(EndsWith("bin", ".bin"));
}

// ---------- math_util ----------

TEST(MathUtilTest, LogSumExpMatchesDirect) {
  std::vector<double> xs = {0.1, -2.0, 3.0, 1.5};
  double direct = 0.0;
  for (double x : xs) direct += std::exp(x);
  EXPECT_NEAR(LogSumExp(xs), std::log(direct), 1e-12);
}

TEST(MathUtilTest, LogSumExpStableForLargeValues) {
  std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> neg = {-1000.0, -1001.0};
  EXPECT_TRUE(std::isfinite(LogSumExp(neg)));
}

TEST(MathUtilTest, LogSumExpAtLeastMax) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs;
    for (int i = 0; i < 5; ++i) xs.push_back(rng.Uniform(-10, 10));
    double mx = *std::max_element(xs.begin(), xs.end());
    EXPECT_GE(LogSumExp(xs), mx);
    EXPECT_LE(LogSumExp(xs), mx + std::log(5.0) + 1e-12);
  }
}

TEST(MathUtilTest, SigmoidSymmetryAndRange) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(MathUtilTest, LogSigmoidMatchesLogOfSigmoid) {
  for (double x : {-5.0, -0.5, 0.0, 0.5, 5.0}) {
    EXPECT_NEAR(LogSigmoid(x), std::log(Sigmoid(x)), 1e-10);
  }
  EXPECT_TRUE(std::isfinite(LogSigmoid(-1000.0)));
}

TEST(MathUtilTest, CrossEntropyClampsProbabilities) {
  EXPECT_TRUE(std::isfinite(CrossEntropy(1.0, 0.0)));
  EXPECT_TRUE(std::isfinite(CrossEntropy(0.0, 1.0)));
  EXPECT_NEAR(CrossEntropy(1.0, 1.0), 0.0, 1e-9);
}

TEST(MathUtilTest, CosineSimilarityBasics) {
  float a[3] = {1.0f, 0.0f, 0.0f};
  float b[3] = {0.0f, 1.0f, 0.0f};
  float c[3] = {2.0f, 0.0f, 0.0f};
  float z[3] = {0.0f, 0.0f, 0.0f};
  EXPECT_NEAR(CosineSimilarity(a, b, 3), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c, 3), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, z, 3), 0.0, 1e-9);  // zero-vector guard
}

TEST(MathUtilTest, EuclideanDistance2D) {
  EXPECT_NEAR(EuclideanDistance2D(0, 0, 3, 4), 5.0, 1e-12);
}

// ---------- CRC-32 ----------

TEST(Crc32Test, MatchesKnownVector) {
  // The standard CRC-32 check value: crc("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(0, s, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsIdentity) {
  EXPECT_EQ(Crc32(0, nullptr, 0), 0u);
  EXPECT_EQ(Crc32(0x1234u, nullptr, 0), 0x1234u);
}

TEST(Crc32Test, IncrementalChainingMatchesOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const size_t n = 43;
  uint32_t one_shot = Crc32(0, s, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t chained = Crc32(Crc32(0, s, split), s + split, n - split);
    EXPECT_EQ(chained, one_shot) << "split=" << split;
  }
}

TEST(Crc32Test, SingleBitFlipChangesDigest) {
  std::string bytes(64, '\x00');
  uint32_t clean = Crc32(0, bytes.data(), bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_NE(Crc32(0, flipped.data(), flipped.size()), clean)
        << "byte " << i;
  }
}

// ---------- Rng state capture ----------

TEST(RngStateTest, SaveRestoreReplaysSequence) {
  Rng rng(99, 3);
  rng.NextU64();  // advance off the seed state
  RngState mid = rng.SaveState();
  std::vector<uint32_t> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(rng.NextU32());

  Rng replay = Rng::FromState(mid);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(replay.NextU32(), expect[static_cast<size_t>(i)]) << i;
  }
  rng.RestoreState(mid);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.NextU32(), expect[static_cast<size_t>(i)]) << i;
  }
}

TEST(RngStateTest, ShuffleSwapPatternDependsOnlyOnDraws) {
  // The resume path replays skipped epoch shuffles on a dummy vector to
  // advance a probe rng, relying on Fisher-Yates consuming the same draws
  // regardless of element values. Pin that property.
  Rng a(7, 1), b(7, 1);
  std::vector<int> real{5, 4, 3, 2, 1, 0, 9, 8, 7, 6};
  std::vector<int> dummy(real.size());  // all zeros
  a.Shuffle(real);
  b.Shuffle(dummy);
  EXPECT_EQ(a.SaveState(), b.SaveState());
}

TEST(RngStateTest, SerializeRoundTrip) {
  std::string path = testing::TempDir() + "/evrec_rng_state.bin";
  Rng rng(1234, 9);
  rng.NextU64();
  RngState before = rng.SaveState();
  {
    BinaryWriter w(path);
    rng.Serialize(w);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  Rng loaded;
  loaded.Deserialize(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(loaded.SaveState(), before);
  std::remove(path.c_str());
}

// ---------- binary IO ----------

class BinaryIoTest : public ::testing::Test {
 protected:
  std::string path_ = testing::TempDir() + "/evrec_bio_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(BinaryIoTest, RoundTripAllTypes) {
  {
    BinaryWriter w(path_);
    w.WriteMagic("TSTM");
    w.WriteU32(42u);
    w.WriteU64(1ULL << 40);
    w.WriteI32(-7);
    w.WriteF32(1.5f);
    w.WriteF64(2.25);
    w.WriteString("hello");
    w.WriteFloatVector({1.0f, 2.0f});
    w.WriteDoubleVector({3.0, 4.0, 5.0});
    w.WriteI32Vector({-1, 0, 1});
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path_);
  r.ExpectMagic("TSTM");
  EXPECT_EQ(r.ReadU32(), 42u);
  EXPECT_EQ(r.ReadU64(), 1ULL << 40);
  EXPECT_EQ(r.ReadI32(), -7);
  EXPECT_EQ(r.ReadF32(), 1.5f);
  EXPECT_EQ(r.ReadF64(), 2.25);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloatVector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{3.0, 4.0, 5.0}));
  EXPECT_EQ(r.ReadI32Vector(), (std::vector<int32_t>{-1, 0, 1}));
  EXPECT_TRUE(r.ok());
}

TEST_F(BinaryIoTest, MagicMismatchIsCorruption) {
  {
    BinaryWriter w(path_);
    w.WriteMagic("AAAA");
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path_);
  r.ExpectMagic("BBBB");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(BinaryIoTest, ShortReadIsCorruption) {
  {
    BinaryWriter w(path_);
    w.WriteU32(7u);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path_);
  EXPECT_EQ(r.ReadU32(), 7u);
  r.ReadU64();  // past EOF
  EXPECT_FALSE(r.ok());
}

TEST_F(BinaryIoTest, ImplausibleVectorLengthRejected) {
  {
    BinaryWriter w(path_);
    w.WriteU32(0xFFFFFFFFu);  // absurd element count
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path_);
  auto v = r.ReadFloatVector();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

// Writes a checkpoint-shaped file (magic, scalar header fields, payload
// vectors) and returns its byte size.
size_t WriteCheckpointLikeFile(const std::string& path) {
  BinaryWriter w(path);
  w.WriteMagic("CKPT");
  w.WriteU32(3u);  // "version"
  w.WriteU32(2u);  // "dim"
  w.WriteString("tower.user");
  w.WriteFloatVector({0.5f, -1.5f, 2.0f, 0.25f});
  w.WriteDoubleVector({1.0, 2.0});
  EXPECT_TRUE(w.Close().ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<size_t>(in.tellg());
}

// Replays the exact read sequence of WriteCheckpointLikeFile and returns
// the reader's final status.
Status ReadCheckpointLikeFile(const std::string& path) {
  BinaryReader r(path);
  r.ExpectMagic("CKPT");
  r.ReadU32();
  r.ReadU32();
  r.ReadString();
  r.ReadFloatVector();
  r.ReadDoubleVector();
  return r.status();
}

TEST_F(BinaryIoTest, TruncationAtAnyOffsetIsCorruptionNotGarbage) {
  size_t full = WriteCheckpointLikeFile(path_);
  ASSERT_GT(full, 8u);
  // Full file reads back clean.
  EXPECT_TRUE(ReadCheckpointLikeFile(path_).ok());
  // Truncate mid-magic, mid-header, mid-string, mid-vector, and one byte
  // short of complete: every prefix must surface Corruption, never OK.
  for (size_t keep : {size_t{2}, size_t{6}, size_t{13}, full / 2,
                      full - 1}) {
    std::string bytes;
    {
      std::ifstream in(path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(bytes.size(), full);
    std::string trunc_path = path_ + ".trunc";
    {
      std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    Status s = ReadCheckpointLikeFile(trunc_path);
    EXPECT_FALSE(s.ok()) << "keep=" << keep;
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "keep=" << keep;
    std::remove(trunc_path.c_str());
  }
}

TEST_F(BinaryIoTest, FlippedMagicByteIsCorruption) {
  WriteCheckpointLikeFile(path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[1] ^= 0x5A;  // corrupt the magic in place
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Status s = ReadCheckpointLikeFile(path_);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(BinaryIoTest, MarkCorruptIsStickyAndFirstFailureWins) {
  {
    BinaryWriter w(path_);
    w.WriteU32(7u);
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path_);
  EXPECT_TRUE(r.ok());
  r.MarkCorrupt("shape mismatch");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("shape mismatch"), std::string::npos);
  r.MarkCorrupt("second failure");  // must not overwrite the first
  EXPECT_NE(r.status().message().find("shape mismatch"), std::string::npos);
}

TEST_F(BinaryIoTest, MissingFileIsIoError) {
  BinaryReader r("/nonexistent/dir/file.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(BinaryIoTest, FileExists) {
  EXPECT_FALSE(FileExists(path_));
  {
    BinaryWriter w(path_);
    w.WriteU32(1);
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_TRUE(FileExists(path_));
}

// ---------- CSV ----------

TEST(CsvWriterTest, WritesHeaderAndRows) {
  std::string path = testing::TempDir() + "/evrec_csv_test.csv";
  {
    CsvWriter csv(path, {"recall", "precision"});
    csv.WriteRow(std::vector<double>{0.5, 0.25});
    csv.WriteRow(std::vector<std::string>{"1.0", "has,comma"});
    ASSERT_TRUE(csv.Close().ok());
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "recall,precision");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,0.25");
  std::getline(in, line);
  EXPECT_EQ(line, "1.0,\"has,comma\"");
  std::remove(path.c_str());
}

// ---------- logging ----------

// Captures everything the logger writes while alive (via SetLogStream),
// then hands the records back as lines.
class LogCapture {
 public:
  LogCapture() : file_(std::tmpfile()) {
    EXPECT_NE(file_, nullptr);
    SetLogStream(file_);
  }
  ~LogCapture() {
    SetLogStream(nullptr);
    std::fclose(file_);
  }

  std::vector<std::string> Lines() {
    std::fflush(file_);
    std::rewind(file_);
    std::vector<std::string> lines;
    std::string current;
    int c;
    while ((c = std::fgetc(file_)) != EOF) {
      if (c == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current.push_back(static_cast<char>(c));
      }
    }
    EXPECT_TRUE(current.empty()) << "unterminated record: " << current;
    return lines;
  }

 private:
  std::FILE* file_;
};

// Every record: [<level> <ISO-8601 UTC ms> t<ordinal>[/<name>]
// <file>:<line>] <msg> — the /name suffix appears on threads named via
// SetTraceThreadName (pool workers).
const char kRecordPattern[] =
    R"(\[[DIWE] \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z t\d+(/[-\w.]+)? )"
    R"([^ :]+:\d+\] .*)";

TEST(LoggingTest, RecordCarriesTimestampThreadIdAndLocation) {
  LogCapture capture;
  EVREC_LOG(WARN) << "hello " << 42;
  std::vector<std::string> lines = capture.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(std::regex_match(lines[0], std::regex(kRecordPattern)))
      << lines[0];
  EXPECT_NE(lines[0].find("util_test.cc"), std::string::npos);
  EXPECT_NE(lines[0].find("] hello 42"), std::string::npos);
}

TEST(LoggingTest, NamedThreadRecordsCarryTheName) {
  LogCapture capture;
  std::thread worker([] {
    SetTraceThreadName("evrec-w1");
    EVREC_LOG(INFO) << "from a named worker";
  });
  worker.join();
  std::vector<std::string> lines = capture.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(std::regex_match(lines[0], std::regex(kRecordPattern)))
      << lines[0];
  EXPECT_NE(lines[0].find("/evrec-w1 "), std::string::npos) << lines[0];
}

TEST(LoggingTest, LevelThresholdSuppressesRecords) {
  LogCapture capture;
  SetLogLevel(LogLevel::kError);
  EVREC_LOG(WARN) << "dropped";
  EVREC_LOG(ERROR) << "kept";
  SetLogLevel(LogLevel::kInfo);
  std::vector<std::string> lines = capture.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
}

TEST(LoggingTest, StampedeNeverInterleavesRecords) {
  LogCapture capture;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        EVREC_LOG(WARN) << "thread " << t << " message " << i
                        << " padding-padding-padding-padding";
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<std::string> lines = capture.Lines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::regex record(kRecordPattern);
  for (const auto& line : lines) {
    // A mangled (interleaved or torn) record fails the shape check.
    ASSERT_TRUE(std::regex_match(line, record)) << line;
    ASSERT_NE(line.find("padding-padding-padding-padding"),
              std::string::npos)
        << line;
  }
}

TEST(LoggingTest, LogEveryNEmitsFirstAndEveryNth) {
  LogCapture capture;
  for (int i = 0; i < 10; ++i) {
    EVREC_LOG_EVERY_N(WARN, 4) << "tick " << i;
  }
  std::vector<std::string> lines = capture.Lines();
  // Occurrences 0, 4, 8 -> three records.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("tick 0"), std::string::npos);
  EXPECT_NE(lines[1].find("tick 4"), std::string::npos);
  EXPECT_NE(lines[2].find("tick 8"), std::string::npos);
}

TEST(LoggingTest, LogEveryNCountsPerCallSite) {
  LogCapture capture;
  for (int i = 0; i < 3; ++i) {
    EVREC_LOG_EVERY_N(WARN, 100) << "site-a " << i;
    EVREC_LOG_EVERY_N(WARN, 100) << "site-b " << i;
  }
  std::vector<std::string> lines = capture.Lines();
  // Independent counters: each site emits its own first occurrence.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("site-a 0"), std::string::npos);
  EXPECT_NE(lines[1].find("site-b 0"), std::string::npos);
}

TEST(LoggingTest, LogEveryNWithOneEmitsEverything) {
  LogCapture capture;
  for (int i = 0; i < 5; ++i) {
    EVREC_LOG_EVERY_N(WARN, 1) << "all " << i;
  }
  EXPECT_EQ(capture.Lines().size(), 5u);
}

// ---------- json ----------

TEST(JsonTest, ParsesNestedDocument) {
  StatusOr<JsonValue> doc = ParseJson(
      "{\"name\": \"t1\", \"pi\": 3.5, \"neg\": -2e3, \"ok\": true, "
      "\"none\": null, \"list\": [1, \"two\", false], "
      "\"inner\": {\"k\": 7}}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("name")->string_value, "t1");
  EXPECT_DOUBLE_EQ(doc->Find("pi")->number_value, 3.5);
  EXPECT_DOUBLE_EQ(doc->Find("neg")->number_value, -2000.0);
  EXPECT_TRUE(doc->Find("ok")->bool_value);
  EXPECT_TRUE(doc->Find("none")->IsNull());
  const JsonValue* list = doc->Find("list");
  ASSERT_TRUE(list->IsArray());
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_DOUBLE_EQ(list->array[0].number_value, 1.0);
  EXPECT_EQ(list->array[1].string_value, "two");
  EXPECT_FALSE(list->array[2].bool_value);
  EXPECT_DOUBLE_EQ(doc->Find("inner")->Find("k")->number_value, 7.0);
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonTest, DecodesStringEscapes) {
  StatusOr<JsonValue> doc =
      ParseJson("{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value, "a\"b\\c\n\tA");
}

TEST(JsonTest, DuplicateKeysKeepBothAndFindReturnsFirst) {
  StatusOr<JsonValue> doc = ParseJson("{\"a\": 1, \"a\": 2}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->object.size(), 2u);
  EXPECT_DOUBLE_EQ(doc->Find("a")->number_value, 1.0);
}

TEST(JsonTest, HostileInputIsCorruptionNotUB) {
  const char* bad[] = {
      "",                  // empty
      "{",                 // truncated object
      "[1, 2",             // truncated array
      "{\"a\": }",         // missing value
      "{\"a\" 1}",         // missing colon
      "\"unterminated",    // unterminated string
      "\"bad\\escape\"",   // unknown escape
      "{\"a\": 1} extra",  // trailing garbage
      "nul",               // truncated literal
  };
  for (const char* text : bad) {
    StatusOr<JsonValue> doc = ParseJson(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kCorruption) << text;
  }
}

// ---------- trace context ----------

TEST(TraceContextTest, DeriveSpanIdIsPureAndCollisionResistant) {
  uint64_t id = DeriveSpanId(7, 3, "serve.request", 0);
  EXPECT_EQ(DeriveSpanId(7, 3, "serve.request", 0), id);  // pure
  EXPECT_NE(id, 0u);  // 0 is reserved for "no span"
  // Any coordinate change moves the id.
  EXPECT_NE(DeriveSpanId(8, 3, "serve.request", 0), id);
  EXPECT_NE(DeriveSpanId(7, 4, "serve.request", 0), id);
  EXPECT_NE(DeriveSpanId(7, 3, "serve.candidate", 0), id);
  EXPECT_NE(DeriveSpanId(7, 3, "serve.request", 1), id);
}

TEST(TraceContextTest, ShardBandsAreDisjointAndShardDeterministic) {
  TraceContext parent;
  parent.trace_id = 5;
  parent.span_id = 99;
  parent.depth = 2;
  parent.child_seq = 3;
  std::set<uint64_t> bands;
  for (int s = 0; s < 16; ++s) {
    TraceContext shard = ShardTraceContext(parent, s);
    // Identity and depth pass through; only the sibling band moves.
    EXPECT_EQ(shard.trace_id, parent.trace_id);
    EXPECT_EQ(shard.span_id, parent.span_id);
    EXPECT_EQ(shard.depth, parent.depth);
    EXPECT_EQ(shard.child_seq,
              parent.child_seq + ((static_cast<uint64_t>(s) + 1) << 32));
    bands.insert(shard.child_seq);
    // Same shard index -> same band, no matter which worker runs it.
    EXPECT_EQ(ShardTraceContext(parent, s).child_seq, shard.child_seq);
  }
  EXPECT_EQ(bands.size(), 16u);
  // The caller's own low band stays clear of every shard band.
  EXPECT_LT(parent.child_seq + 100, *bands.begin());
}

TEST(TraceContextTest, ScopedInstallRestoresPreviousContext) {
  TraceContext before = CurrentTraceContext();
  TraceContext inner;
  inner.trace_id = 42;
  inner.span_id = 7;
  inner.depth = 1;
  {
    ScopedTraceContext scope(inner);
    EXPECT_EQ(CurrentTraceContext().trace_id, 42u);
    EXPECT_EQ(CurrentTraceContext().span_id, 7u);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, before.trace_id);
  EXPECT_EQ(CurrentTraceContext().span_id, before.span_id);
  EXPECT_EQ(CurrentTraceContext().child_seq, before.child_seq);
}

}  // namespace
}  // namespace evrec
