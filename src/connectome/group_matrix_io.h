// Binary persistence for GroupMatrix: preprocessing a large cohort is
// the expensive step of the attack (minutes of registration/filtering per
// scan), so tools cache the extracted feature matrices on disk.
//
// Format ("NPGM" v2, little-endian):
//   magic "NPGM" | u32 version | u64 features | u64 subjects |
//   per subject: u32 id_length, id bytes |
//   features*subjects f64 values (column-major: subject by subject) |
//   u32 crc32c(value bytes)
//
// Writers produce v2 and are crash-safe: bytes land in `path + ".tmp"`
// and the finished file is fsynced and renamed into place
// (util/journal.h AtomicFileWriter), so a crash mid-write can never
// leave a truncated NPGM under the real name — readers see the old file
// or the complete new one. ReadGroupMatrix verifies the value checksum
// (CorruptData on mismatch); any other version, including the
// checksum-less v1, is Unimplemented. FileMatrixStore seeks tiles on
// demand and therefore cannot affordably checksum the whole payload at
// Open — it relies on the exact-size check plus the atomic-publish
// contract.

#ifndef NEUROPRINT_CONNECTOME_GROUP_MATRIX_IO_H_
#define NEUROPRINT_CONNECTOME_GROUP_MATRIX_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "connectome/group_matrix.h"
#include "util/journal.h"
#include "util/status.h"

namespace neuroprint::connectome {

/// Writes the group matrix to `path`, overwriting.
Status WriteGroupMatrix(const std::string& path, const GroupMatrix& group);

/// Reads a group matrix previously written by WriteGroupMatrix. Returns
/// CorruptData for malformed or truncated files.
Result<GroupMatrix> ReadGroupMatrix(const std::string& path);

/// Incremental NPGM writer for cohorts too large to materialize: the
/// subject ids (and therefore the column count) are fixed up front, then
/// columns stream in one at a time in subject order. Bytes accumulate in
/// `path + ".tmp"`; only Finish() — after confirming every promised
/// column arrived and appending the value checksum — publishes the file
/// atomically, so `path` never holds a partial cohort (an abandoned
/// writer unlinks its temp file). A file produced by WriteGroupMatrix of
/// the same matrix is byte-identical.
class GroupMatrixFileWriter {
 public:
  static Result<GroupMatrixFileWriter> Create(
      const std::string& path, std::size_t num_features,
      const std::vector<std::string>& subject_ids);

  GroupMatrixFileWriter(GroupMatrixFileWriter&&) = default;
  GroupMatrixFileWriter& operator=(GroupMatrixFileWriter&&) = default;
  GroupMatrixFileWriter(const GroupMatrixFileWriter&) = delete;
  GroupMatrixFileWriter& operator=(const GroupMatrixFileWriter&) = delete;

  /// Appends the next subject's feature column (must have num_features
  /// values). FailedPrecondition once every promised column was written.
  Status AppendColumn(const linalg::Vector& column);

  std::size_t columns_written() const { return columns_written_; }

  /// Validates that exactly the promised columns arrived, appends the
  /// value checksum, and atomically publishes the file (fsync + rename).
  Status Finish();

 private:
  GroupMatrixFileWriter() = default;

  std::string path_;
  AtomicFileWriter out_;
  std::size_t num_features_ = 0;
  std::size_t num_subjects_ = 0;
  std::size_t columns_written_ = 0;
  std::uint32_t value_crc_ = 0;
  std::vector<std::uint8_t> encoded_;
};

namespace internal {

/// Parsed + validated NPGM header (shared by ReadGroupMatrix and
/// FileMatrixStore::Open): magic, version, dimension bounds, ids, and
/// the exact-payload-size check all happen here, leaving `in` positioned
/// at the first value byte.
struct NpgmHeader {
  std::uint32_t version = 0;
  std::uint64_t features = 0;
  std::uint64_t subjects = 0;
  std::vector<std::string> subject_ids;
  std::uint64_t data_offset = 0;
  /// crc32c of the value payload, from the trailer. Full-file readers
  /// verify it; the tile-seeking FileMatrixStore documents that it does
  /// not.
  std::uint32_t value_crc = 0;
};

Result<NpgmHeader> ParseNpgmHeader(std::ifstream& in, const std::string& path);

}  // namespace internal

}  // namespace neuroprint::connectome

#endif  // NEUROPRINT_CONNECTOME_GROUP_MATRIX_IO_H_
