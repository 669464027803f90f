// Tests for Status/Result, the RNG, CSV writer, and string helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include <cstdint>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/csv_writer.h"
#include "util/endian.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace neuroprint {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dims");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kIOError,
        StatusCode::kCorruptData, StatusCode::kNotConverged,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All residues hit.
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(13);
  const auto p = rng.Permutation(50);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  // Weight 0 entries must never be drawn.
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    counts[rng.Categorical({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 3000.0, 0.75, 0.05);
}

TEST(CsvWriterTest, HeaderAndRows) {
  CsvWriter csv;
  csv.SetHeader({"a", "b"});
  csv.AddRow({"1", "x"});
  csv.AddNumericRow({2.5, -3.0});
  EXPECT_EQ(csv.ToString(), "a,b\n1,x\n2.5,-3\n");
  EXPECT_EQ(csv.row_count(), 2u);
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter csv;
  csv.AddRow({"he,llo", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(csv.ToString(), "\"he,llo\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriterTest, WriteFileRoundTrip) {
  CsvWriter csv;
  csv.SetHeader({"x"});
  csv.AddRow({"1"});
  const std::string path = ::testing::TempDir() + "/np_csv_test.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "x\n1\n");
}

TEST(CsvWriterTest, WriteFileFailsOnBadPath) {
  CsvWriter csv;
  csv.AddRow({"1"});
  const Status s = csv.WriteFile("/nonexistent_dir_zzz/file.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, StrSplitAndJoin) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(StrJoin({}, "-"), "");
}

TEST(StringUtilTest, EndsWithAndTrim) {
  EXPECT_TRUE(EndsWith("image.nii.gz", ".gz"));
  EXPECT_FALSE(EndsWith("image.nii", ".gz"));
  EXPECT_TRUE(EndsWith("x", ""));
  EXPECT_EQ(StrTrim("  hi \n"), "hi");
  EXPECT_EQ(StrTrim("\t\n "), "");
}

TEST(CheckTest, PassingChecksAreSilent) {
  NP_CHECK(1 + 1 == 2);
  NP_CHECK_EQ(3, 3);
  NP_CHECK_LT(2, 3) << "never printed";
}

TEST(CheckDeathTest, FailureAbortsWithExprAndStreamedContext) {
  EXPECT_DEATH(NP_CHECK(2 < 1) << "ctx " << 42, "2 < 1.*ctx 42");
  EXPECT_DEATH(NP_CHECK_GE(1, 5), "Check failed");
}

TEST(CheckTest, DcheckFamilyPassesInBothBuildModes) {
  NP_DCHECK(true);
  NP_DCHECK_EQ(2, 2);
  NP_DCHECK_NE(1, 2);
  NP_DCHECK_LT(1, 2);
  NP_DCHECK_LE(2, 2);
  NP_DCHECK_GT(3, 2);
  NP_DCHECK_GE(3, 3);
}

// The release stub must typecheck its argument without evaluating it; the
// debug build must evaluate (and die on) the same expression.
TEST(CheckDeathTest, DcheckEvaluationTracksBuildMode) {
  int calls = 0;
  auto failing = [&calls]() {
    ++calls;
    return false;
  };
#ifdef NDEBUG
  NP_DCHECK(failing());
  EXPECT_EQ(calls, 0);
#else
  EXPECT_DEATH(NP_DCHECK(failing()), "Check failed");
#endif
}

TEST(EndianTest, ScalarsRoundTripThroughLittleEndianBytes) {
  std::uint8_t buf[8];
  WriteLE(std::int16_t{-12345}, buf);
  EXPECT_EQ(ReadLE<std::int16_t>(buf), -12345);
  WriteLE(std::int32_t{0x12345678}, buf);
  EXPECT_EQ(ReadLE<std::int32_t>(buf), 0x12345678);
  EXPECT_EQ(buf[0], 0x78);  // little-endian on disk, whatever the host
  EXPECT_EQ(buf[3], 0x12);
  WriteLE(std::uint64_t{0xdeadbeefcafef00dULL}, buf);
  EXPECT_EQ(ReadLE<std::uint64_t>(buf), 0xdeadbeefcafef00dULL);
  WriteLE(1.5f, buf);
  EXPECT_EQ(ReadLE<float>(buf), 1.5f);
  WriteLE(-2.25, buf);
  EXPECT_EQ(ReadLE<double>(buf), -2.25);
}

TEST(EndianTest, ReadBEIsByteReversedReadLE) {
  const std::uint8_t le[4] = {0x78, 0x56, 0x34, 0x12};
  const std::uint8_t be[4] = {0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(ReadLE<std::int32_t>(le), ReadBE<std::int32_t>(be));
}

TEST(EndianTest, AppendLEAndStreamReadLERoundTrip) {
  std::vector<char> buf;
  AppendLE(buf, std::uint32_t{7});
  AppendLE(buf, -1.25);
  const double values[3] = {0.5, -3.0e-300, 1.0e300};
  AppendLE(buf, values, 3);
  AppendLE(buf, values, 0);
  ASSERT_EQ(buf.size(), 36u);
  // The array overload writes exactly the bytes of per-value appends.
  std::vector<char> scalar_buf;
  for (double x : values) AppendLE(scalar_buf, x);
  EXPECT_TRUE(std::equal(scalar_buf.begin(), scalar_buf.end(),
                         buf.begin() + 12));

  std::istringstream in(std::string(buf.begin(), buf.end()));
  std::uint32_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(ReadLE(in, u));
  ASSERT_TRUE(ReadLE(in, d));
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(d, -1.25);
  for (double want : values) {
    ASSERT_TRUE(ReadLE(in, d));
    EXPECT_EQ(d, want);
  }
  // Short read: nothing left in the stream.
  EXPECT_FALSE(ReadLE(in, u));

  // The array decoder reads back what the array encoder wrote.
  double decoded[3] = {};
  ReadLE(reinterpret_cast<const std::uint8_t*>(buf.data() + 12), 3, decoded);
  EXPECT_TRUE(std::equal(values, values + 3, decoded));
  std::uint8_t bytes[8];
  WriteLE(&values[1], 1, bytes);
  EXPECT_EQ(ReadLE<double>(bytes), values[1]);
}

}  // namespace
}  // namespace neuroprint
