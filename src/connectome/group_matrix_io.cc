#include "connectome/group_matrix_io.h"

#include <cstring>
#include <limits>
#include <utility>

#include "util/crc32c.h"
#include "util/endian.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace neuroprint::connectome {
namespace {

constexpr char kMagic[4] = {'N', 'P', 'G', 'M'};
// v2 appends crc32c(value bytes) after the payload; it is the only
// version read or written.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kCrcTrailerBytes = 4;

// Bounds protecting the reader from allocating absurd sizes on corrupt
// input.
constexpr std::uint64_t kMaxFeatures = 1ull << 32;
constexpr std::uint64_t kMaxSubjects = 1ull << 24;
constexpr std::uint32_t kMaxIdLength = 4096;

// Values are little-endian on disk; AppendLE/ReadLE from util/endian.h keep
// the format stable across host byte orders without type-punned loads.

// Serialized header for `num_features` x ids.size() values, or
// InvalidArgument when an id exceeds the length bound.
Result<std::vector<char>> EncodeNpgmHeader(
    std::size_t num_features, const std::vector<std::string>& subject_ids) {
  std::vector<char> header;
  header.insert(header.end(), kMagic, kMagic + 4);
  AppendLE(header, kVersion);
  AppendLE(header, static_cast<std::uint64_t>(num_features));
  AppendLE(header, static_cast<std::uint64_t>(subject_ids.size()));
  for (const std::string& id : subject_ids) {
    if (id.size() > kMaxIdLength) {
      return Status::InvalidArgument("WriteGroupMatrix: subject id too long");
    }
    AppendLE(header, static_cast<std::uint32_t>(id.size()));
    header.insert(header.end(), id.begin(), id.end());
  }
  return header;
}

}  // namespace

namespace internal {

Result<NpgmHeader> ParseNpgmHeader(std::ifstream& in,
                                   const std::string& path) {
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::CorruptData("not a group-matrix file: " + path);
  }
  NpgmHeader header;
  if (!ReadLE(in, header.version) || !ReadLE(in, header.features) ||
      !ReadLE(in, header.subjects)) {
    return Status::CorruptData("truncated group-matrix header: " + path);
  }
  if (header.version != kVersion) {
    return Status::Unimplemented(
        StrFormat("unsupported group-matrix version %u", header.version));
  }
  if (header.features == 0 || header.features > kMaxFeatures ||
      header.subjects == 0 || header.subjects > kMaxSubjects) {
    return Status::CorruptData("implausible group-matrix dimensions");
  }

  header.subject_ids.resize(header.subjects);
  for (std::uint64_t j = 0; j < header.subjects; ++j) {
    std::uint32_t length = 0;
    if (!ReadLE(in, length) || length > kMaxIdLength) {
      return Status::CorruptData("bad subject id in group-matrix file");
    }
    header.subject_ids[j].resize(length);
    if (length > 0 && !in.read(header.subject_ids[j].data(), length)) {
      return Status::CorruptData("truncated subject ids");
    }
  }

  // The payload must account for exactly features x subjects doubles
  // plus the checksum trailer: fewer means truncation, more means
  // trailing garbage or a header whose counts disagree with the data —
  // all kCorruptData, and all caught before allocating `features * 8`
  // bytes against a file that cannot hold them.
  const std::streampos data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos file_end = in.tellg();
  if (data_begin < 0 || file_end < data_begin) {
    return Status::CorruptData("unreadable group-matrix payload: " + path);
  }
  const std::uint64_t expected =
      header.features * static_cast<std::uint64_t>(sizeof(double)) *
          header.subjects +
      kCrcTrailerBytes;
  const std::uint64_t available =
      static_cast<std::uint64_t>(file_end - data_begin);
  if (available < expected) {
    return Status::CorruptData(StrFormat(
        "group-matrix values truncated: header promises %llu x %llu "
        "subjects (%llu bytes), file holds %llu",
        static_cast<unsigned long long>(header.features),
        static_cast<unsigned long long>(header.subjects),
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(available)));
  }
  if (available > expected) {
    return Status::CorruptData(StrFormat(
        "group-matrix file has %llu trailing bytes after the %llu x %llu "
        "values — subject/feature counts disagree with the payload",
        static_cast<unsigned long long>(available - expected),
        static_cast<unsigned long long>(header.features),
        static_cast<unsigned long long>(header.subjects)));
  }
  in.seekg(file_end - static_cast<std::streamoff>(kCrcTrailerBytes));
  if (!ReadLE(in, header.value_crc)) {
    return Status::CorruptData("unreadable group-matrix checksum: " + path);
  }
  in.clear();
  in.seekg(data_begin);
  header.data_offset = static_cast<std::uint64_t>(data_begin);
  return header;
}

}  // namespace internal

Result<GroupMatrixFileWriter> GroupMatrixFileWriter::Create(
    const std::string& path, std::size_t num_features,
    const std::vector<std::string>& subject_ids) {
  if (num_features == 0 || subject_ids.empty()) {
    return Status::InvalidArgument(
        "GroupMatrixFileWriter: empty group matrix");
  }
  if (subject_ids.size() > kMaxSubjects ||
      static_cast<std::uint64_t>(num_features) > kMaxFeatures) {
    return Status::InvalidArgument(
        "GroupMatrixFileWriter: dimensions exceed the format bounds");
  }
  std::vector<char> header;
  NP_ASSIGN_OR_RETURN(header, EncodeNpgmHeader(num_features, subject_ids));

  GroupMatrixFileWriter writer;
  writer.path_ = path;
  writer.num_features_ = num_features;
  writer.num_subjects_ = subject_ids.size();
  // Crash safety: everything lands in `path + ".tmp"`; only Finish()
  // publishes it under the real name.
  Result<AtomicFileWriter> out = AtomicFileWriter::Create(path);
  if (!out.ok()) return out.status();
  writer.out_ = std::move(out).value();
  NP_RETURN_IF_ERROR(writer.out_.Append(header.data(), header.size()));
  return writer;
}

Status GroupMatrixFileWriter::AppendColumn(const linalg::Vector& column) {
  if (columns_written_ >= num_subjects_) {
    return Status::FailedPrecondition(StrFormat(
        "GroupMatrixFileWriter: all %zu columns already written",
        num_subjects_));
  }
  if (column.size() != num_features_) {
    return Status::InvalidArgument(StrFormat(
        "GroupMatrixFileWriter: column has %zu values, header promises %zu",
        column.size(), num_features_));
  }
  encoded_.resize(column.size() * sizeof(double));
  WriteLE(column.data(), column.size(), encoded_.data());
  value_crc_ = crc32c::Extend(value_crc_, encoded_.data(), encoded_.size());
  NP_RETURN_IF_ERROR(out_.Append(encoded_.data(), encoded_.size()));
  ++columns_written_;
  return Status::OK();
}

Status GroupMatrixFileWriter::Finish() {
  if (columns_written_ != num_subjects_) {
    return Status::FailedPrecondition(StrFormat(
        "GroupMatrixFileWriter: %zu of %zu columns written",
        columns_written_, num_subjects_));
  }
  std::uint8_t trailer[4];
  WriteLE(value_crc_, trailer);
  NP_RETURN_IF_ERROR(out_.Append(trailer, sizeof(trailer)));
  return out_.Commit();
}

Status WriteGroupMatrix(const std::string& path, const GroupMatrix& group) {
  if (group.num_subjects() == 0 || group.num_features() == 0) {
    return Status::InvalidArgument("WriteGroupMatrix: empty group matrix");
  }
  auto writer = GroupMatrixFileWriter::Create(path, group.num_features(),
                                              group.subject_ids());
  if (!writer.ok()) return writer.status();
  for (std::size_t j = 0; j < group.num_subjects(); ++j) {
    NP_RETURN_IF_ERROR(writer->AppendColumn(group.SubjectColumn(j)));
  }
  return writer->Finish();
}

Result<GroupMatrix> ReadGroupMatrix(const std::string& path) {
  NP_FAULT_POINT("io.group_matrix_read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  internal::NpgmHeader header;
  NP_ASSIGN_OR_RETURN(header, internal::ParseNpgmHeader(in, path));

  std::vector<linalg::Vector> columns(header.subjects);
  std::vector<std::uint8_t> encoded(header.features * sizeof(double));
  std::uint32_t computed_crc = 0;
  for (std::uint64_t j = 0; j < header.subjects; ++j) {
    columns[j].resize(header.features);
    if (!in.read(reinterpret_cast<char*>(encoded.data()),
                 static_cast<std::streamsize>(encoded.size()))) {
      return Status::CorruptData("truncated group-matrix values");
    }
    computed_crc =
        crc32c::Extend(computed_crc, encoded.data(), encoded.size());
    ReadLE(encoded.data(), columns[j].size(), columns[j].data());
  }
  if (computed_crc != header.value_crc) {
    // Bit rot (or a torn copy) inside the value payload: the dimensions
    // all line up but the bytes are not the ones the writer checksummed.
    return Status::CorruptData(StrFormat(
        "group-matrix value checksum mismatch (stored %08x, computed %08x): "
        "%s",
        header.value_crc, computed_crc, path.c_str()));
  }
  auto group =
      GroupMatrix::FromFeatureColumns(columns, std::move(header.subject_ids));
  if (!group.ok()) {
    // Structural inconsistencies surfaced by assembly are file corruption
    // from the reader's point of view, not caller error.
    return Status::CorruptData("inconsistent group-matrix file: " +
                               group.status().message());
  }
  return group;
}

}  // namespace neuroprint::connectome
