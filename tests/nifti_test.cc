// NIfTI codec tests: header round-trip, voxel round-trip across data
// types and compression, endianness handling, and corrupt-file rejection.

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include <zlib.h>

#include "nifti/nifti_header.h"
#include "nifti/nifti_io.h"
#include "nifti/nifti_stream.h"
#include "util/random.h"

namespace neuroprint::nifti {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

image::Volume4D MakeTestRun(std::size_t nx, std::size_t ny, std::size_t nz,
                            std::size_t nt, Rng& rng) {
  image::Volume4D run(nx, ny, nz, nt);
  run.spacing().dx_mm = 2.0;
  run.spacing().dy_mm = 2.5;
  run.spacing().dz_mm = 3.0;
  run.spacing().tr_seconds = 0.72;
  for (float& v : run.flat()) {
    v = static_cast<float>(rng.Gaussian(500.0, 100.0));
  }
  return run;
}

TEST(NiftiHeaderTest, EncodeDecodeRoundTrip) {
  NiftiHeader header;
  header.dim = {4, 16, 18, 20, 50, 1, 1, 1};
  header.datatype = DataType::kInt16;
  header.pixdim = {1.f, 2.f, 2.5f, 3.f, 0.72f, 1.f, 1.f, 1.f};
  header.scl_slope = 0.5f;
  header.scl_inter = 10.0f;
  header.description = "test image";
  const auto bytes = EncodeHeader(header);
  ASSERT_EQ(bytes.size(), kNiftiHeaderSize);

  bool swapped = true;
  const auto decoded = DecodeHeader(bytes, &swapped);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(swapped);
  EXPECT_EQ(decoded->dim, header.dim);
  EXPECT_EQ(decoded->datatype, DataType::kInt16);
  EXPECT_FLOAT_EQ(decoded->pixdim[4], 0.72f);
  EXPECT_FLOAT_EQ(decoded->scl_slope, 0.5f);
  EXPECT_FLOAT_EQ(decoded->scl_inter, 10.0f);
  EXPECT_EQ(decoded->description, "test image");
}

TEST(NiftiHeaderTest, DetectsByteSwappedHeader) {
  NiftiHeader header;
  header.dim = {3, 8, 8, 8, 1, 1, 1, 1};
  auto bytes = EncodeHeader(header);
  // Simulate a big-endian writer: reverse each multi-byte field we probe.
  auto swap32 = [&](std::size_t off) {
    std::swap(bytes[off], bytes[off + 3]);
    std::swap(bytes[off + 1], bytes[off + 2]);
  };
  auto swap16 = [&](std::size_t off) { std::swap(bytes[off], bytes[off + 1]); };
  swap32(0);  // sizeof_hdr
  for (std::size_t d = 0; d < 8; ++d) swap16(40 + 2 * d);   // dim
  swap16(70);                                               // datatype
  swap16(72);                                               // bitpix
  for (std::size_t d = 0; d < 8; ++d) swap32(76 + 4 * d);   // pixdim
  swap32(108);  // vox_offset
  swap32(112);  // scl_slope
  swap32(116);  // scl_inter
  swap16(252);
  swap16(254);
  for (std::size_t i = 0; i < 12; ++i) swap32(280 + 4 * i);  // srow

  bool swapped = false;
  const auto decoded = DecodeHeader(bytes, &swapped);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(swapped);
  EXPECT_EQ(decoded->dim[1], 8);
  EXPECT_EQ(decoded->datatype, DataType::kFloat32);
}

TEST(NiftiHeaderTest, RejectsGarbage) {
  std::vector<std::uint8_t> garbage(kNiftiHeaderSize, 0xAB);
  EXPECT_FALSE(DecodeHeader(garbage).ok());
  std::vector<std::uint8_t> tiny(10, 0);
  const auto r = DecodeHeader(tiny);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
}

TEST(NiftiHeaderTest, ValidateCatchesBadFields) {
  NiftiHeader header;
  header.dim[0] = 9;
  EXPECT_FALSE(header.Validate().ok());
  header.dim[0] = 3;
  header.dim[2] = -5;
  EXPECT_FALSE(header.Validate().ok());
  header.dim[2] = 4;
  header.vox_offset = 100.0f;
  EXPECT_FALSE(header.Validate().ok());
}

TEST(NiftiHeaderTest, BitsPerVoxel) {
  EXPECT_EQ(*BitsPerVoxel(DataType::kUint8), 8);
  EXPECT_EQ(*BitsPerVoxel(DataType::kInt16), 16);
  EXPECT_EQ(*BitsPerVoxel(DataType::kInt32), 32);
  EXPECT_EQ(*BitsPerVoxel(DataType::kFloat32), 32);
  EXPECT_EQ(*BitsPerVoxel(DataType::kFloat64), 64);
  EXPECT_FALSE(IsSupportedDataType(1));    // DT_BINARY
  EXPECT_FALSE(IsSupportedDataType(128));  // DT_RGB24
}

// Parameterized write/read round trip over dtype x compression.
// gtest prints this struct as a raw byte dump, and the CMake test discovery
// puts that dump in the ctest name, so the padding is an explicit zeroed
// member: left implicit, its bytes are stack garbage and the name of each
// case changes from run to run.
struct RoundTripCase {
  RoundTripCase(DataType datatype_in, bool gzip_in, double tolerance_in)
      : datatype(datatype_in), gzip(gzip_in), tolerance(tolerance_in) {}

  DataType datatype;
  bool gzip;
  std::array<unsigned char,
             sizeof(double) - sizeof(DataType) - sizeof(bool)> padding{};
  double tolerance;  // Integer types quantize.
};
static_assert(sizeof(RoundTripCase) == 2 * sizeof(double),
              "RoundTripCase must have no implicit padding");

class NiftiRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(NiftiRoundTripTest, WriteReadPreservesVoxels) {
  const RoundTripCase& c = GetParam();
  Rng rng(55);
  const image::Volume4D run = MakeTestRun(6, 5, 4, 7, rng);
  const std::string path = TempPath(
      std::string("roundtrip_") +
      std::to_string(static_cast<int>(c.datatype)) +
      (c.gzip ? ".nii.gz" : ".nii"));

  WriteOptions options;
  options.datatype = c.datatype;
  ASSERT_TRUE(WriteNifti(path, run, options).ok());

  const auto image = ReadNifti(path);
  ASSERT_TRUE(image.ok()) << image.status();
  ASSERT_EQ(image->data.nx(), run.nx());
  ASSERT_EQ(image->data.ny(), run.ny());
  ASSERT_EQ(image->data.nz(), run.nz());
  ASSERT_EQ(image->data.nt(), run.nt());
  EXPECT_NEAR(image->data.spacing().dy_mm, 2.5, 1e-5);
  EXPECT_NEAR(image->data.spacing().tr_seconds, 0.72, 1e-5);
  for (std::size_t i = 0; i < run.size(); ++i) {
    ASSERT_NEAR(image->data.flat()[i], run.flat()[i], c.tolerance)
        << "voxel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DtypesAndCompression, NiftiRoundTripTest,
    ::testing::Values(RoundTripCase{DataType::kFloat32, false, 1e-3},
                      RoundTripCase{DataType::kFloat32, true, 1e-3},
                      RoundTripCase{DataType::kFloat64, false, 1e-6},
                      RoundTripCase{DataType::kFloat64, true, 1e-6},
                      RoundTripCase{DataType::kInt16, false, 0.05},
                      RoundTripCase{DataType::kInt16, true, 0.05},
                      RoundTripCase{DataType::kInt32, false, 1e-3},
                      RoundTripCase{DataType::kUint8, false, 4.0}));

TEST(NiftiIoTest, GzipDetectedByMagicNotExtension) {
  Rng rng(66);
  const image::Volume4D run = MakeTestRun(4, 4, 3, 2, rng);
  // Write gzipped content to a path WITHOUT .gz suffix.
  const std::string path = TempPath("misnamed_plain.nii");
  WriteOptions options;
  options.compression = WriteOptions::Compression::kAlways;
  ASSERT_TRUE(WriteNifti(path, run, options).ok());
  const auto image = ReadNifti(path);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->data.nt(), 2u);
}

TEST(NiftiIoTest, ThreeDimensionalImage) {
  Rng rng(77);
  image::Volume3D vol(5, 6, 7);
  for (float& v : vol.flat()) v = static_cast<float>(rng.Uniform(0, 100));
  const std::string path = TempPath("three_d.nii");
  ASSERT_TRUE(WriteNifti3D(path, vol).ok());
  const auto image = ReadNifti(path);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->header.dim[0], 3);
  EXPECT_EQ(image->data.nt(), 1u);
  EXPECT_NEAR(image->data.at(2, 3, 4, 0), vol.at(2, 3, 4), 1e-3);
}

TEST(NiftiIoTest, ConstantVolumeInt16ScalingDegenerate) {
  image::Volume4D run(3, 3, 3, 1, 42.0f);
  const std::string path = TempPath("constant.nii");
  WriteOptions options;
  options.datatype = DataType::kInt16;
  ASSERT_TRUE(WriteNifti(path, run, options).ok());
  const auto image = ReadNifti(path);
  ASSERT_TRUE(image.ok());
  EXPECT_NEAR(image->data.at(1, 1, 1, 0), 42.0, 1e-3);
}

TEST(NiftiIoTest, MissingFileGivesIOError) {
  const auto image = ReadNifti(TempPath("does_not_exist.nii"));
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kIOError);
}

TEST(NiftiIoTest, DirectoryPathGivesIOError) {
  // A directory opens like a file but cannot be read; its size is no
  // file size, so nothing may be allocated from it.
  const auto image = ReadNifti(::testing::TempDir());
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kIOError);
}

TEST(NiftiIoTest, TruncatedVoxelDataRejected) {
  Rng rng(88);
  const image::Volume4D run = MakeTestRun(8, 8, 8, 3, rng);
  const std::string path = TempPath("truncated.nii");
  ASSERT_TRUE(WriteNifti(path, run).ok());
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string contents(size / 2, '\0');
  in.read(contents.data(), static_cast<std::streamsize>(contents.size()));
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();

  const auto image = ReadNifti(path);
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kCorruptData);
}

TEST(NiftiIoTest, CorruptGzipRejected) {
  const std::string path = TempPath("corrupt.nii.gz");
  std::ofstream out(path, std::ios::binary);
  const char bytes[] = {0x1f, static_cast<char>(0x8b), 0x01, 0x02, 0x03};
  out.write(bytes, sizeof(bytes));
  out.close();
  EXPECT_FALSE(ReadNifti(path).ok());
}

TEST(NiftiIoTest, EmptyVolumeRejected) {
  EXPECT_FALSE(WriteNifti(TempPath("empty.nii"), image::Volume4D()).ok());
}

// --- Robustness: hostile on-disk bytes must come back as Status errors
// (no crash, no UB — the asan-ubsan tier runs these).

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(size);
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  return bytes;
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(NiftiRobustnessTest, CorruptedMagicRejected) {
  Rng rng(99);
  const image::Volume4D run = MakeTestRun(4, 4, 4, 2, rng);
  const std::string path = TempPath("bad_magic.nii");
  ASSERT_TRUE(WriteNifti(path, run).ok());

  std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), 348u);
  bytes[344] = 'X';  // magic lives at offset 344: "n+1\0"
  bytes[345] = 'Y';
  WriteAllBytes(path, bytes);

  const auto image = ReadNifti(path);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kCorruptData);
}

// Gzips `bytes` into `path` as one complete stream, so crafted headers
// can be tested on the .nii.gz path too.
void GzipAllBytes(const std::string& path, const std::vector<char>& bytes) {
  gzFile gz = gzopen(path.c_str(), "wb6");
  ASSERT_NE(gz, nullptr) << path;
  ASSERT_EQ(gzwrite(gz, bytes.data(), static_cast<unsigned>(bytes.size())),
            static_cast<int>(bytes.size()));
  ASSERT_EQ(gzclose(gz), Z_OK);
}

// Writes `bytes` to `stem`.nii raw and to `stem`.nii.gz gzipped and
// returns both paths, so each robustness case runs over both encodings.
std::vector<std::string> WriteRawAndGzip(const std::string& stem,
                                         const std::vector<char>& bytes) {
  const std::string raw = TempPath(stem + ".nii");
  const std::string gz = TempPath(stem + ".nii.gz");
  WriteAllBytes(raw, bytes);
  GzipAllBytes(gz, bytes);
  return {raw, gz};
}

TEST(NiftiRobustnessTest, AbsurdDimsRejected) {
  Rng rng(101);
  const image::Volume4D run = MakeTestRun(4, 4, 4, 2, rng);
  const std::string path = TempPath("absurd_dims_src.nii");
  ASSERT_TRUE(WriteNifti(path, run).ok());

  // dim[] lives at offset 40 as 8 int16s. Claim a 32767^4-voxel image on
  // a few-KB file (or a ~100-byte .nii.gz): the reader must reject it
  // against the file's size instead of allocating.
  std::vector<char> bytes = ReadAllBytes(path);
  for (std::size_t d = 1; d <= 4; ++d) {
    bytes[40 + 2 * d] = '\xff';
    bytes[40 + 2 * d + 1] = '\x7f';
  }
  for (const std::string& file : WriteRawAndGzip("absurd_dims", bytes)) {
    const auto image = ReadNifti(file);
    ASSERT_FALSE(image.ok()) << file;
    EXPECT_EQ(image.status().code(), StatusCode::kCorruptData) << file;
  }
}

TEST(NiftiRobustnessTest, VoxOffsetPastEndOfFileRejected) {
  Rng rng(103);
  const image::Volume4D run = MakeTestRun(4, 4, 4, 2, rng);
  const std::string path = TempPath("far_offset_src.nii");
  ASSERT_TRUE(WriteNifti(path, run).ok());
  std::vector<char> bytes = ReadAllBytes(path);
  // vox_offset is a float at offset 108. Past the end by 1000 bytes: the
  // raw file fails the size bound; the gzipped one (Gaussian voxels barely
  // compress, so the 1032:1 bound admits it) runs out while skipping.
  const float offset = static_cast<float>(bytes.size() + 1000);
  std::memcpy(bytes.data() + 108, &offset, sizeof(offset));
  for (const std::string& file : WriteRawAndGzip("far_offset", bytes)) {
    const auto image = ReadNifti(file);
    ASSERT_FALSE(image.ok()) << file;
    EXPECT_EQ(image.status().code(), StatusCode::kCorruptData) << file;
    EXPECT_NE(image.status().message().find("truncated"), std::string::npos)
        << image.status();
  }
}

TEST(NiftiRobustnessTest, HeaderTruncatedInsideStreamRejected) {
  Rng rng(107);
  const image::Volume4D run = MakeTestRun(4, 4, 4, 2, rng);
  const std::string path = TempPath("short_header_src.nii");
  ASSERT_TRUE(WriteNifti(path, run).ok());
  std::vector<char> bytes = ReadAllBytes(path);

  // Raw: the file ends 148 bytes into the 348-byte header.
  const std::string raw = TempPath("short_header.nii");
  WriteAllBytes(raw, std::vector<char>(bytes.begin(), bytes.begin() + 200));
  const auto raw_image = ReadNifti(raw);
  ASSERT_FALSE(raw_image.ok());
  EXPECT_EQ(raw_image.status().code(), StatusCode::kCorruptData);

  // Gzip: the compressed stream is cut before it inflates a whole header.
  const std::string whole = TempPath("short_header_whole.nii.gz");
  GzipAllBytes(whole, bytes);
  const std::string cut = TempPath("short_header.nii.gz");
  std::vector<char> compressed = ReadAllBytes(whole);
  ASSERT_GT(compressed.size(), 24u);
  compressed.resize(24);
  WriteAllBytes(cut, compressed);
  {
    // Precondition: the cut really falls inside the header's plaintext.
    auto reader = GzipStreamReader::Open(cut);
    ASSERT_TRUE(reader.ok());
    std::vector<std::uint8_t> buffer(kNiftiHeaderSize);
    const auto got = reader->Read(buffer.data(), buffer.size());
    EXPECT_FALSE(got.ok());
    EXPECT_LT(reader->decoded_bytes(), kNiftiHeaderSize);
  }
  const auto gz_image = ReadNifti(cut);
  ASSERT_FALSE(gz_image.ok());
  EXPECT_EQ(gz_image.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(gz_image.status().message().find("compressed bytes consumed"),
            std::string::npos)
      << gz_image.status();
}

TEST(NiftiHeaderTest, DimProductOverflowRejected) {
  // 7 dims of 32767 overflow the std::size_t voxel count; the checked
  // multiply must catch it rather than wrapping to a small "valid" size.
  NiftiHeader header;
  header.dim = {7, 32767, 32767, 32767, 32767, 32767, 32767, 32767};
  const auto count = header.VoxelCount();
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kCorruptData);
}

TEST(NiftiHeaderTest, NonFiniteVoxOffsetRejected) {
  NiftiHeader header;
  header.dim = {3, 4, 4, 4, 1, 1, 1, 1};
  header.vox_offset = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(header.Validate().ok());
  header.vox_offset = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(header.Validate().ok());
  header.vox_offset = 1.0e20f;  // would overflow the size_t conversion
  EXPECT_FALSE(header.Validate().ok());
}

TEST(NiftiRobustnessTest, GzipMidStreamTruncationRejected) {
  Rng rng(111);
  const image::Volume4D run = MakeTestRun(8, 8, 8, 3, rng);
  const std::string path = TempPath("truncated_stream.nii.gz");
  WriteOptions options;
  options.compression = WriteOptions::Compression::kAlways;
  ASSERT_TRUE(WriteNifti(path, run, options).ok());

  // Cut the gzip stream mid-way: the header deflates fine, the voxel
  // payload ends early. Must surface as a Status, not a crash.
  std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() * 6 / 10);
  WriteAllBytes(path, bytes);

  const auto image = ReadNifti(path);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kCorruptData);
}

// --- Chunked gzip decode: bytes-consumed accounting -------------------------

// Gaussian voxels are incompressible, so this run's .gz payload is well
// past the decoder's 64 KiB input chunk — truncation points around the
// chunk boundary exercise the refill path, not just the first window.
std::string WriteBigGzRun(const std::string& name, std::size_t* raw_bytes) {
  Rng rng(314);
  const image::Volume4D run = MakeTestRun(32, 32, 16, 4, rng);
  const std::string path = TempPath(name);
  WriteOptions options;
  options.compression = WriteOptions::Compression::kAlways;
  EXPECT_TRUE(WriteNifti(path, run, options).ok());
  if (raw_bytes != nullptr) {
    // Plaintext size = the uncompressed encoding of the same image.
    const std::string raw_path = TempPath("raw_" + name);
    WriteOptions raw_options;
    raw_options.compression = WriteOptions::Compression::kNever;
    EXPECT_TRUE(WriteNifti(raw_path, run, raw_options).ok());
    std::ifstream probe(raw_path, std::ios::binary | std::ios::ate);
    *raw_bytes = static_cast<std::size_t>(probe.tellg());
  }
  return path;
}

std::size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  return static_cast<std::size_t>(in.tellg());
}

void TruncateFile(const std::string& src, const std::string& dst,
                  std::size_t keep) {
  std::ifstream in(src, std::ios::binary);
  std::string contents(keep, '\0');
  in.read(contents.data(), static_cast<std::streamsize>(keep));
  ASSERT_TRUE(in.good());
  std::ofstream(dst, std::ios::binary | std::ios::trunc)
      .write(contents.data(), static_cast<std::streamsize>(keep));
}

TEST(GzipStreamTest, CleanEndReportsFullAccounting) {
  std::size_t raw_bytes = 0;
  const std::string path = WriteBigGzRun("gz_clean.nii.gz", &raw_bytes);
  ASSERT_GT(FileSize(path), std::size_t{64} << 10)
      << "test needs a payload past the input chunk";
  auto reader = GzipStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  // Deliberately awkward read size: plaintext chunks straddle every input
  // refill boundary.
  std::vector<std::uint8_t> buffer(7777);
  std::size_t total = 0;
  for (;;) {
    const auto got = reader->Read(buffer.data(), buffer.size());
    ASSERT_TRUE(got.ok()) << got.status();
    if (*got == 0) break;
    total += *got;
  }
  EXPECT_TRUE(reader->finished());
  EXPECT_EQ(total, raw_bytes);
  EXPECT_EQ(reader->decoded_bytes(), raw_bytes);
  EXPECT_LE(reader->compressed_consumed(), FileSize(path));
  // A finished stream keeps returning clean end, not an error.
  const auto again = reader->Read(buffer.data(), buffer.size());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(GzipStreamTest, TruncationAtChunkBoundariesReportsBytesConsumed) {
  const std::string path = WriteBigGzRun("gz_trunc.nii.gz", nullptr);
  const std::size_t size = FileSize(path);
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  ASSERT_GT(size, kChunk + 2);
  // Mid-chunk, exactly at the refill boundary, one past it, and one byte
  // short of the whole stream (inside the gzip trailer).
  for (const std::size_t keep : {kChunk / 2, kChunk, kChunk + 1, size - 1}) {
    const std::string cut = TempPath("gz_cut_" + std::to_string(keep));
    TruncateFile(path, cut, keep);
    auto reader = GzipStreamReader::Open(cut);
    ASSERT_TRUE(reader.ok()) << reader.status();
    std::vector<std::uint8_t> buffer(4096);
    Status failure = Status::OK();
    for (;;) {
      const auto got = reader->Read(buffer.data(), buffer.size());
      if (!got.ok()) {
        failure = got.status();
        break;
      }
      ASSERT_NE(*got, 0u) << "truncated stream reported a clean end at keep="
                          << keep;
    }
    EXPECT_EQ(failure.code(), StatusCode::kCorruptData) << "keep=" << keep;
    EXPECT_NE(failure.message().find("compressed bytes consumed"),
              std::string::npos)
        << failure;
    EXPECT_LE(reader->compressed_consumed(), keep) << "keep=" << keep;
  }
}

TEST(GzipStreamTest, ConcatenatedMembersDecodeSeamlessly) {
  Rng rng(27);
  const image::Volume4D run_a = MakeTestRun(4, 4, 3, 2, rng);
  const image::Volume4D run_b = MakeTestRun(5, 3, 2, 1, rng);
  const std::string path_a = TempPath("gz_member_a.nii.gz");
  const std::string path_b = TempPath("gz_member_b.nii.gz");
  WriteOptions options;
  options.compression = WriteOptions::Compression::kAlways;
  ASSERT_TRUE(WriteNifti(path_a, run_a, options).ok());
  ASSERT_TRUE(WriteNifti(path_b, run_b, options).ok());
  // Plaintext sizes of each member on its own.
  const auto decoded_size = [](const std::string& path) -> std::size_t {
    auto reader = GzipStreamReader::Open(path);
    EXPECT_TRUE(reader.ok());
    if (!reader.ok()) return 0;
    std::vector<std::uint8_t> buffer(4096);
    std::size_t total = 0;
    for (;;) {
      const auto got = reader->Read(buffer.data(), buffer.size());
      EXPECT_TRUE(got.ok()) << got.status();
      if (!got.ok() || *got == 0) break;
      total += *got;
    }
    return total;
  };
  const std::size_t plain_a = decoded_size(path_a);
  const std::size_t plain_b = decoded_size(path_b);
  ASSERT_GT(plain_a, 0u);
  ASSERT_GT(plain_b, 0u);
  const std::string joined = TempPath("gz_joined.nii.gz");
  {
    std::ofstream out(joined, std::ios::binary);
    for (const std::string& p : {path_a, path_b}) {
      std::ifstream in(p, std::ios::binary);
      out << in.rdbuf();
    }
  }
  auto reader = GzipStreamReader::Open(joined);
  ASSERT_TRUE(reader.ok());
  std::vector<std::uint8_t> buffer(4096);
  std::size_t total = 0;
  for (;;) {
    const auto got = reader->Read(buffer.data(), buffer.size());
    ASSERT_TRUE(got.ok()) << got.status();
    if (*got == 0) break;
    total += *got;
  }
  EXPECT_EQ(total, plain_a + plain_b);
  EXPECT_TRUE(reader->finished());
}

TEST(NiftiRobustnessTest, WholeFileGzipTruncationNamesBytesConsumed) {
  // ReadNifti inflates through the chunked decoder, so its truncation
  // error carries the consumed/decoded accounting — also when only the
  // gzip trailer is cut, after every voxel byte has decoded.
  Rng rng(115);
  const image::Volume4D run = MakeTestRun(8, 8, 8, 3, rng);
  const std::string path = TempPath("gz_accounting.nii.gz");
  WriteOptions options;
  options.compression = WriteOptions::Compression::kAlways;
  ASSERT_TRUE(WriteNifti(path, run, options).ok());
  const std::size_t size = FileSize(path);
  for (const std::size_t keep : {size * 6 / 10, size - 1}) {
    const std::string cut = TempPath("gz_accounting_cut.nii.gz");
    TruncateFile(path, cut, keep);
    const auto image = ReadNifti(cut);
    ASSERT_FALSE(image.ok()) << "keep=" << keep;
    EXPECT_EQ(image.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(image.status().message().find("compressed bytes consumed"),
              std::string::npos)
        << image.status();
  }
}

}  // namespace
}  // namespace neuroprint::nifti
