// Tests for binary GroupMatrix persistence: bit-exact round trips and
// corrupt-file rejection, for both the materializing reader and the
// file-backed MatrixStore / incremental writer.

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace neuroprint::connectome {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

GroupMatrix MakeGroup(std::size_t features, std::size_t subjects, Rng& rng) {
  std::vector<linalg::Vector> columns(subjects);
  std::vector<std::string> ids;
  for (std::size_t j = 0; j < subjects; ++j) {
    columns[j].resize(features);
    for (double& v : columns[j]) v = rng.Gaussian();
    ids.push_back("subject-" + std::to_string(j));
  }
  return *GroupMatrix::FromFeatureColumns(columns, ids);
}

TEST(GroupMatrixIoTest, RoundTripBitExact) {
  Rng rng(5);
  const GroupMatrix group = MakeGroup(500, 7, rng);
  const std::string path = TempPath("group_roundtrip.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  const auto restored = ReadGroupMatrix(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_features(), 500u);
  EXPECT_EQ(restored->num_subjects(), 7u);
  EXPECT_EQ(restored->subject_ids(), group.subject_ids());
  for (std::size_t j = 0; j < 7; ++j) {
    EXPECT_EQ(restored->SubjectColumn(j), group.SubjectColumn(j));
  }
}

TEST(GroupMatrixIoTest, EmptySubjectIdSurvives) {
  const auto group =
      GroupMatrix::FromFeatureColumns({{1.0, 2.0}, {3.0, 4.0}}, {"", "x"});
  ASSERT_TRUE(group.ok());
  const std::string path = TempPath("group_empty_id.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, *group).ok());
  const auto restored = ReadGroupMatrix(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->subject_ids()[0], "");
  EXPECT_EQ(restored->subject_ids()[1], "x");
}

TEST(GroupMatrixIoTest, RejectsMissingAndGarbageFiles) {
  EXPECT_EQ(ReadGroupMatrix(TempPath("nope.npgm")).status().code(),
            StatusCode::kIOError);
  const std::string path = TempPath("garbage.npgm");
  std::ofstream(path) << "this is not a group matrix";
  EXPECT_EQ(ReadGroupMatrix(path).status().code(), StatusCode::kCorruptData);
}

TEST(GroupMatrixIoTest, RejectsTruncatedValues) {
  Rng rng(6);
  const GroupMatrix group = MakeGroup(100, 4, rng);
  const std::string path = TempPath("group_truncated.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  // Chop the last kilobyte off.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::string contents(static_cast<std::size_t>(in.tellg()) - 1024, '\0');
  in.seekg(0);
  in.read(contents.data(), static_cast<std::streamsize>(contents.size()));
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(contents.data(), static_cast<std::streamsize>(contents.size()));
  EXPECT_EQ(ReadGroupMatrix(path).status().code(), StatusCode::kCorruptData);
}

TEST(GroupMatrixIoTest, RejectsTrailingBytes) {
  Rng rng(7);
  const GroupMatrix group = MakeGroup(64, 3, rng);
  const std::string path = TempPath("group_trailing.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  std::ofstream(path, std::ios::binary | std::ios::app) << "extra";
  const auto restored = ReadGroupMatrix(path);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(restored.status().message().find("trailing"), std::string::npos)
      << restored.status();
}

TEST(GroupMatrixIoTest, ValueCorruptionIsCaughtByChecksum) {
  // A single flipped bit in the value payload keeps every size field
  // consistent — only the v2 CRC trailer can catch it.
  Rng rng(9);
  const GroupMatrix group = MakeGroup(48, 5, rng);
  const std::string path = TempPath("group_bitflip.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    // A byte inside the last value, before the 4-byte CRC trailer.
    f.seekp(-7, std::ios::end);
    char byte = 0;
    f.seekg(-7, std::ios::end);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(-7, std::ios::end);
    f.write(&byte, 1);
  }
  const auto restored = ReadGroupMatrix(path);
  ASSERT_EQ(restored.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(restored.status().message().find("checksum mismatch"),
            std::string::npos)
      << restored.status();

  // A corrupted trailer (rather than payload) is the same failure.
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(-1, std::ios::end);
    f.write(&byte, 1);
  }
  EXPECT_EQ(ReadGroupMatrix(path).status().code(), StatusCode::kCorruptData);
}

TEST(GroupMatrixIoTest, AtomicWriteLeavesNoTempBehind) {
  Rng rng(10);
  const GroupMatrix group = MakeGroup(16, 2, rng);
  const std::string path = TempPath("group_atomic.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "writer left its publish temp behind";
}

// Hand-crafts a v2 NPGM file whose header promises `subjects` columns
// with matching ids but whose payload holds `payload_columns` columns of
// `features` doubles each, followed by the crc32c trailer of that payload.
// Little-endian host assumed (as the sibling hand-crafting tests do).
std::string CraftMismatchedFile(const std::string& name,
                                std::uint64_t features, std::uint64_t subjects,
                                std::uint64_t payload_columns) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out.write("NPGM", 4);
  const std::uint32_t version = 2;
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&features), 8);
  out.write(reinterpret_cast<const char*>(&subjects), 8);
  for (std::uint64_t j = 0; j < subjects; ++j) {
    const std::uint32_t id_length = 1;
    const char id = static_cast<char>('a' + j);
    out.write(reinterpret_cast<const char*>(&id_length), 4);
    out.write(&id, 1);
  }
  const double value = 1.5;
  std::uint32_t crc = 0;
  for (std::uint64_t i = 0; i < payload_columns * features; ++i) {
    out.write(reinterpret_cast<const char*>(&value), 8);
    crc = crc32c::Extend(crc, &value, 8);
  }
  out.write(reinterpret_cast<const char*>(&crc), 4);
  return path;
}

TEST(GroupMatrixIoTest, RejectsSubjectCountPayloadMismatch) {
  // Header promises 3 subjects, payload holds 2 columns: truncation.
  EXPECT_EQ(
      ReadGroupMatrix(CraftMismatchedFile("group_fewer.npgm", 4, 3, 2))
          .status()
          .code(),
      StatusCode::kCorruptData);
  // Header promises 2 subjects, payload holds 3 columns: trailing data.
  EXPECT_EQ(
      ReadGroupMatrix(CraftMismatchedFile("group_more.npgm", 4, 2, 3))
          .status()
          .code(),
      StatusCode::kCorruptData);
  // Sanity: the crafting helper produces a readable file when consistent.
  const auto ok_case =
      ReadGroupMatrix(CraftMismatchedFile("group_exact.npgm", 4, 2, 2));
  ASSERT_TRUE(ok_case.ok()) << ok_case.status();
  EXPECT_EQ(ok_case->num_subjects(), 2u);
  EXPECT_EQ(ok_case->num_features(), 4u);
}

TEST(GroupMatrixIoTest, HugePromisedPayloadRejectedWithoutAllocation) {
  // In-bounds dimensions (2^31 features x 1 subject = 16 GiB payload) with
  // an empty payload must be rejected by the size plausibility check —
  // before the reader tries to allocate a column buffer.
  const std::string path =
      CraftMismatchedFile("group_16gib.npgm", 1ull << 31, 1, 0);
  const auto restored = ReadGroupMatrix(path);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(restored.status().message().find("truncated"), std::string::npos)
      << restored.status();
}

TEST(GroupMatrixIoTest, RejectsImplausibleDimensions) {
  // Hand-craft a header claiming 2^40 features.
  const std::string path = TempPath("group_huge.npgm");
  std::ofstream out(path, std::ios::binary);
  out.write("NPGM", 4);
  const std::uint32_t version = 2;
  const std::uint64_t features = 1ull << 40, subjects = 1;
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&features), 8);
  out.write(reinterpret_cast<const char*>(&subjects), 8);
  const std::uint32_t empty_payload_crc = 0;  // crc32c of no bytes
  out.write(reinterpret_cast<const char*>(&empty_payload_crc), 4);
  out.close();
  EXPECT_EQ(ReadGroupMatrix(path).status().code(), StatusCode::kCorruptData);
}

TEST(GroupMatrixIoTest, VersionOneIsUnimplemented) {
  // A consistent file except for its version field: the checksum-less v1
  // layout is no longer read, by either reader.
  const std::string path = CraftMismatchedFile("group_v1.npgm", 4, 2, 2);
  ASSERT_TRUE(ReadGroupMatrix(path).ok());
  std::fstream patch(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::uint32_t version = 1;
  patch.seekp(4);
  patch.write(reinterpret_cast<const char*>(&version), 4);
  patch.close();
  EXPECT_EQ(ReadGroupMatrix(path).status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(FileMatrixStore::Open(path).status().code(),
            StatusCode::kUnimplemented);
}

// Truncates the file at `path` to `keep` bytes (helper for the
// shrank-after-Open cases).
void ShrinkFile(const std::string& path, std::size_t keep) {
  std::ifstream in(path, std::ios::binary);
  std::string contents(keep, '\0');
  in.read(contents.data(), static_cast<std::streamsize>(keep));
  ASSERT_TRUE(in.good());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

TEST(FileMatrixStoreTest, TilesMatchMaterializedMatrix) {
  Rng rng(8);
  const GroupMatrix group = MakeGroup(37, 9, rng);
  const std::string path = TempPath("store_tiles.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  auto store = FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->num_features(), 37u);
  EXPECT_EQ((*store)->num_subjects(), 9u);
  EXPECT_EQ((*store)->subject_ids(), group.subject_ids());
  // Ragged tile shapes, including single elements and full columns.
  for (const auto& [r0, rc, c0, cc] :
       {std::array<std::size_t, 4>{0, 37, 0, 9},
        std::array<std::size_t, 4>{5, 7, 2, 3},
        std::array<std::size_t, 4>{36, 1, 8, 1},
        std::array<std::size_t, 4>{0, 1, 0, 9}}) {
    linalg::Matrix tile;
    ASSERT_TRUE((*store)->ReadTile(r0, rc, c0, cc, &tile).ok());
    for (std::size_t i = 0; i < rc; ++i) {
      for (std::size_t j = 0; j < cc; ++j) {
        EXPECT_EQ(tile(i, j), group.data()(r0 + i, c0 + j));
      }
    }
  }
  linalg::Matrix out_of_bounds;
  EXPECT_EQ((*store)->ReadTile(0, 38, 0, 1, &out_of_bounds).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->ReadTile(0, 1, 9, 1, &out_of_bounds).code(),
            StatusCode::kInvalidArgument);
}

TEST(FileMatrixStoreTest, MaterializeStoreRoundTripsBitExact) {
  Rng rng(9);
  const GroupMatrix group = MakeGroup(53, 6, rng);
  const std::string path = TempPath("store_materialize.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  auto store = FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  const auto restored = MaterializeStore(**store);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->subject_ids(), group.subject_ids());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(restored->SubjectColumn(j), group.SubjectColumn(j));
  }
}

TEST(FileMatrixStoreTest, MidTileTruncationAfterOpenIsCorruptData) {
  Rng rng(10);
  const GroupMatrix group = MakeGroup(64, 5, rng);
  const std::string path = TempPath("store_shrunk.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  auto store = FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  // Shrink the file so the last column's payload ends mid-tile; Open has
  // already validated the header, so only the read can notice.
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  const auto full_size = static_cast<std::size_t>(probe.tellg());
  probe.close();
  ShrinkFile(path, full_size - 32 * sizeof(double));
  linalg::Matrix tile;
  // Early columns are intact.
  EXPECT_TRUE((*store)->ReadColumns(0, 2, &tile).ok());
  const Status late = (*store)->ReadColumns(3, 2, &tile);
  EXPECT_EQ(late.code(), StatusCode::kCorruptData);
  EXPECT_NE(late.message().find("truncated mid-read"), std::string::npos)
      << late;
}

TEST(FileMatrixStoreTest, OpenRejectsHeaderPayloadMismatch) {
  // Header promises 3 subjects, payload holds 2 columns.
  EXPECT_EQ(FileMatrixStore::Open(
                CraftMismatchedFile("store_fewer.npgm", 4, 3, 2))
                .status()
                .code(),
            StatusCode::kCorruptData);
  // Header promises 2 subjects, payload holds 3 columns.
  EXPECT_EQ(FileMatrixStore::Open(
                CraftMismatchedFile("store_more.npgm", 4, 2, 3))
                .status()
                .code(),
            StatusCode::kCorruptData);
  EXPECT_EQ(FileMatrixStore::Open(TempPath("store_missing.npgm"))
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(FileMatrixStoreTest, DeletionAfterOpenIsIOErrorNotCrash) {
  Rng rng(11);
  const GroupMatrix group = MakeGroup(16, 4, rng);
  const std::string path = TempPath("store_deleted.npgm");
  ASSERT_TRUE(WriteGroupMatrix(path, group).ok());
  auto store = FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(std::remove(path.c_str()), 0);
  // POSIX keeps the open descriptor readable after unlink; replacing the
  // path with an empty file and reopening is the portable way to observe
  // the failure, so accept either a clean read (still-open handle) or a
  // non-OK status — never a crash.
  linalg::Matrix tile;
  const Status status = (*store)->ReadColumns(0, 4, &tile);
  if (!status.ok()) {
    EXPECT_TRUE(status.code() == StatusCode::kIOError ||
                status.code() == StatusCode::kCorruptData)
        << status;
  }
}

TEST(GroupMatrixFileWriterTest, ByteIdenticalToWriteGroupMatrix) {
  Rng rng(12);
  const GroupMatrix group = MakeGroup(41, 6, rng);
  const std::string whole = TempPath("writer_whole.npgm");
  const std::string streamed = TempPath("writer_streamed.npgm");
  ASSERT_TRUE(WriteGroupMatrix(whole, group).ok());
  auto writer =
      GroupMatrixFileWriter::Create(streamed, 41, group.subject_ids());
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (std::size_t j = 0; j < 6; ++j) {
    ASSERT_TRUE(writer->AppendColumn(group.SubjectColumn(j)).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  std::ifstream a(whole, std::ios::binary), b(streamed, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(GroupMatrixFileWriterTest, EnforcesColumnContract) {
  const std::string path = TempPath("writer_contract.npgm");
  auto writer = GroupMatrixFileWriter::Create(path, 3, {"a", "b"});
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ(writer->AppendColumn({1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  // Finish before every promised column arrived.
  EXPECT_TRUE(writer->AppendColumn({1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(writer->Finish().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(writer->AppendColumn({4.0, 5.0, 6.0}).ok());
  EXPECT_EQ(writer->AppendColumn({7.0, 8.0, 9.0}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(writer->Finish().ok());
  const auto restored = ReadGroupMatrix(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->SubjectColumn(1), linalg::Vector({4.0, 5.0, 6.0}));
}

}  // namespace
}  // namespace neuroprint::connectome
