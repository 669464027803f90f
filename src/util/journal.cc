#include "util/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define NEUROPRINT_HAS_POSIX_IO 1
#else
#define NEUROPRINT_HAS_POSIX_IO 0
#endif

#include "util/crc32c.h"
#include "util/endian.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace neuroprint {

#if NEUROPRINT_HAS_POSIX_IO

namespace {

Status ErrnoError(const char* what, const std::string& path) {
  return Status::IOError(StrFormat("%s failed (%s): %s", what,
                                   std::strerror(errno), path.c_str()));
}

Status WriteFully(int fd, const std::uint8_t* data, std::size_t size,
                  const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

// Performs one write honoring the fault point's rules. kError fails
// before the syscall (the file is untouched, the writer stays usable);
// kCorrupt writes a deterministically scrambled copy and reports success
// (media corruption, caught later by CRC); kTorn writes only the first
// torn_bytes bytes and kills the writer; kCrash writes everything and
// kills the writer (crash between the write and whatever came next).
Status FaultyWrite(int fd, const std::uint8_t* data, std::size_t size,
                   const char* point, bool* crashed,
                   const std::string& path) {
  if (!fault::Enabled()) return WriteFully(fd, data, size, path);
  const fault::Injection injection = fault::Hit(point);
  switch (injection.action) {
    case fault::Action::kNone:
      return WriteFully(fd, data, size, path);
    case fault::Action::kError:
      return injection.status;
    case fault::Action::kCorrupt: {
      std::vector<std::uint8_t> scrambled(data, data + size);
      fault::ScrambleBytes(injection.seed, scrambled.data(), size);
      return WriteFully(fd, scrambled.data(), size, path);
    }
    case fault::Action::kNaN:
      return Status::Internal(std::string("fault point '") + point +
                              "' does not support action 'nan'");
    case fault::Action::kTorn: {
      const std::size_t keep = static_cast<std::size_t>(
          std::min<std::uint64_t>(injection.torn_bytes, size));
      Status status =
          keep > 0 ? WriteFully(fd, data, keep, path) : Status::OK();
      *crashed = true;
      if (!status.ok()) return status;
      return Status::IOError(StrFormat(
          "simulated torn write (%zu of %zu bytes) at %s: %s", keep, size,
          point, path.c_str()));
    }
    case fault::Action::kCrash: {
      Status status = WriteFully(fd, data, size, path);
      *crashed = true;
      if (!status.ok()) return status;
      return Status::IOError(StrFormat("simulated crash after write at %s: %s",
                                       point, path.c_str()));
    }
  }
  return WriteFully(fd, data, size, path);
}

// Fault gate for non-write syscall sites (open, fsync, rename, truncate).
// kError fails cleanly without performing the syscall; kTorn crashes
// *before* it (an fsync or rename has no partial form, so the nearest
// crash point is just shy of the syscall); kCrash asks the caller to
// perform the syscall and then crash (crash_after).
struct SyscallGate {
  Status status;  ///< Non-OK: do not perform the syscall.
  bool crash_after = false;
};

SyscallGate GateSyscall(const char* point, bool* crashed,
                        const std::string& path) {
  SyscallGate gate;
  if (!fault::Enabled()) return gate;
  const fault::Injection injection = fault::Hit(point);
  switch (injection.action) {
    case fault::Action::kNone:
      break;
    case fault::Action::kError:
      gate.status = injection.status;
      break;
    case fault::Action::kTorn:
      *crashed = true;
      gate.status = Status::IOError(StrFormat(
          "simulated crash before syscall at %s: %s", point, path.c_str()));
      break;
    case fault::Action::kCrash:
      gate.crash_after = true;
      break;
    case fault::Action::kNaN:
    case fault::Action::kCorrupt:
      gate.status =
          Status::Internal(std::string("fault point '") + point +
                           "' does not support action '" +
                           fault::ActionName(injection.action) +
                           "' at a non-write site");
      break;
  }
  return gate;
}

Status CrashedError(const char* what, const std::string& path) {
  return Status::IOError(StrFormat(
      "%s refused: writer already crashed (simulated): %s", what,
      path.c_str()));
}

// Best-effort durability for a directory entry (file creation / rename).
void FsyncParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

Result<AtomicFileWriter> AtomicFileWriter::Create(const std::string& path,
                                                  const char* fault_point) {
  bool gate_crashed = false;
  const SyscallGate gate = GateSyscall(fault_point, &gate_crashed, path);
  if (!gate.status.ok()) return gate.status;
  AtomicFileWriter writer;
  writer.path_ = path;
  writer.temp_path_ = path + ".tmp";
  writer.fault_point_ = fault_point;
  writer.fd_ = ::open(writer.temp_path_.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (writer.fd_ < 0) return ErrnoError("open", writer.temp_path_);
  if (gate.crash_after) {
    // Crash right after the open: the (empty) temp file stays behind for
    // recovery to sweep, exactly as a dead process would leave it.
    (void)::close(writer.fd_);
    writer.fd_ = -1;
    writer.crashed_ = true;
    return Status::IOError(StrFormat("simulated crash after open at %s: %s",
                                     fault_point, path.c_str()));
  }
  return writer;
}

AtomicFileWriter::AtomicFileWriter(AtomicFileWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      fault_point_(other.fault_point_),
      bytes_written_(other.bytes_written_),
      committed_(other.committed_),
      crashed_(other.crashed_) {
  other.fd_ = -1;
  other.temp_path_.clear();
  other.committed_ = true;  // Disarm the moved-from destructor.
}

AtomicFileWriter& AtomicFileWriter::operator=(
    AtomicFileWriter&& other) noexcept {
  if (this == &other) return *this;
  Abandon();
  fd_ = other.fd_;
  path_ = std::move(other.path_);
  temp_path_ = std::move(other.temp_path_);
  fault_point_ = other.fault_point_;
  bytes_written_ = other.bytes_written_;
  committed_ = other.committed_;
  crashed_ = other.crashed_;
  other.fd_ = -1;
  other.temp_path_.clear();
  other.committed_ = true;
  return *this;
}

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

Status AtomicFileWriter::Append(const void* data, std::size_t size) {
  if (crashed_) return CrashedError("Append", path_);
  if (fd_ < 0 || committed_) {
    return Status::FailedPrecondition("AtomicFileWriter: not open: " + path_);
  }
  if (size == 0) return Status::OK();
  NP_RETURN_IF_ERROR(FaultyWrite(fd_, static_cast<const std::uint8_t*>(data),
                                 size, fault_point_, &crashed_, temp_path_));
  bytes_written_ += size;
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (crashed_) return CrashedError("Commit", path_);
  if (fd_ < 0 || committed_) {
    return Status::FailedPrecondition("AtomicFileWriter: not open: " + path_);
  }
  // 1. Make the temp file's bytes durable.
  {
    NP_TRACE_SCOPE("durability.fsync");
    const SyscallGate gate = GateSyscall(fault_point_, &crashed_, path_);
    if (!gate.status.ok()) return gate.status;
    if (::fsync(fd_) != 0) return ErrnoError("fsync", temp_path_);
    if (gate.crash_after) {
      crashed_ = true;
      (void)::close(fd_);
      fd_ = -1;
      return Status::IOError(StrFormat("simulated crash after fsync at %s: %s",
                                       fault_point_, path_.c_str()));
    }
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return ErrnoError("close", temp_path_);
  }
  fd_ = -1;
  // 2. The atomicity point: rename publishes the whole file or nothing.
  {
    const SyscallGate gate = GateSyscall(fault_point_, &crashed_, path_);
    if (!gate.status.ok()) return gate.status;
    if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
      return ErrnoError("rename", path_);
    }
    if (gate.crash_after) {
      // Crash after the rename: the new file is fully in place (the
      // directory entry may not be durable yet, but its contents are) —
      // recovery observes the post-commit state.
      crashed_ = true;
      return Status::IOError(StrFormat(
          "simulated crash after rename at %s: %s", fault_point_,
          path_.c_str()));
    }
  }
  // 3. Make the rename itself durable.
  {
    const SyscallGate gate = GateSyscall(fault_point_, &crashed_, path_);
    if (!gate.status.ok()) {
      // The rename already happened; the file is valid either way.
      committed_ = true;
      return gate.status;
    }
    FsyncParentDir(path_);
    committed_ = true;
    if (gate.crash_after) {
      crashed_ = true;
      return Status::IOError(StrFormat(
          "simulated crash after directory fsync at %s: %s", fault_point_,
          path_.c_str()));
    }
  }
  return Status::OK();
}

void AtomicFileWriter::Abandon() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (committed_ || temp_path_.empty()) return;
  // A crashed writer is a dead process: it cannot clean up, so the temp
  // file stays on disk for recovery to unlink.
  if (!crashed_) (void)::unlink(temp_path_.c_str());
  temp_path_.clear();
}

Status AtomicWriteFile(const std::string& path, const void* data,
                       std::size_t size, const char* fault_point) {
  Result<AtomicFileWriter> writer = AtomicFileWriter::Create(path, fault_point);
  if (!writer.ok()) return writer.status();
  NP_RETURN_IF_ERROR(writer->Append(data, size));
  return writer->Commit();
}

Result<JournalWriter> JournalWriter::Open(const std::string& path,
                                          std::uint64_t valid_bytes,
                                          const JournalOptions& options) {
  if (options.sync_every == 0) {
    return Status::InvalidArgument("JournalOptions: sync_every must be >= 1");
  }
  bool gate_crashed = false;
  const SyscallGate gate = GateSyscall("io.journal", &gate_crashed, path);
  if (!gate.status.ok()) return gate.status;

  JournalWriter journal;
  journal.path_ = path;
  journal.options_ = options;
  journal.fd_ =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (journal.fd_ < 0) return ErrnoError("open", path);
  FsyncParentDir(path);

  struct stat st{};
  if (::fstat(journal.fd_, &st) != 0) return ErrnoError("fstat", path);
  const std::uint64_t on_disk = static_cast<std::uint64_t>(st.st_size);
  if (valid_bytes > on_disk) {
    return Status::CorruptData(StrFormat(
        "journal shrank below its validated prefix (%llu < %llu bytes): %s",
        static_cast<unsigned long long>(on_disk),
        static_cast<unsigned long long>(valid_bytes), path.c_str()));
  }
  if (on_disk > valid_bytes) {
    // Drop the torn tail a crashed append left behind, durably, before
    // anything new lands after the last valid record.
    if (::ftruncate(journal.fd_, static_cast<off_t>(valid_bytes)) != 0) {
      return ErrnoError("ftruncate", path);
    }
    if (::fsync(journal.fd_) != 0) return ErrnoError("fsync", path);
    metrics::Count("journal.tails_truncated", 1);
  }
  if (::lseek(journal.fd_, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    return ErrnoError("lseek", path);
  }
  journal.size_bytes_ = valid_bytes;
  if (gate.crash_after) {
    (void)::close(journal.fd_);
    journal.fd_ = -1;
    journal.crashed_ = true;
    return Status::IOError(
        StrFormat("simulated crash after journal open: %s", path.c_str()));
  }
  return journal;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      options_(other.options_),
      size_bytes_(other.size_bytes_),
      unsynced_records_(other.unsynced_records_),
      crashed_(other.crashed_) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) {
    if (!crashed_) (void)::fsync(fd_);
    (void)::close(fd_);
  }
  fd_ = other.fd_;
  path_ = std::move(other.path_);
  options_ = other.options_;
  size_bytes_ = other.size_bytes_;
  unsynced_records_ = other.unsynced_records_;
  crashed_ = other.crashed_;
  other.fd_ = -1;
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ < 0) return;
  if (!crashed_) (void)::fsync(fd_);
  (void)::close(fd_);
}

Status JournalWriter::Append(const void* payload, std::size_t size) {
  NP_TRACE_SCOPE("durability.journal_append");
  if (crashed_) return CrashedError("Append", path_);
  if (fd_ < 0) {
    return Status::FailedPrecondition("JournalWriter: not open: " + path_);
  }
  if (size == 0) {
    return Status::InvalidArgument("JournalWriter: empty record");
  }
  if (size > kJournalMaxRecordBytes) {
    return Status::InvalidArgument(StrFormat(
        "JournalWriter: record of %zu bytes exceeds the %u-byte bound", size,
        kJournalMaxRecordBytes));
  }
  // One buffered write per record: framing + payload land together, so a
  // torn append can only damage the final record, never an earlier one.
  std::vector<std::uint8_t> buffer;
  buffer.reserve(kJournalRecordHeaderBytes + size);
  AppendLE(buffer, static_cast<std::uint32_t>(size));
  AppendLE(buffer, crc32c::Value(payload, size));
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(payload);
  buffer.insert(buffer.end(), bytes, bytes + size);

  const std::uint64_t record_offset = size_bytes_;
  Status status =
      FaultyWrite(fd_, buffer.data(), buffer.size(), "io.journal", &crashed_,
                  path_);
  if (status.ok()) {
    size_bytes_ += buffer.size();
    ++unsynced_records_;
    if (unsynced_records_ < options_.sync_every) {
      metrics::Count("journal.appends", 1);
      return Status::OK();
    }
    status = SyncLocked();
    if (status.ok()) {
      metrics::Count("journal.appends", 1);
      return Status::OK();
    }
    --unsynced_records_;
  }
  // Roll the file back to the previous record boundary so a returned
  // error always means "this record is not on disk" (a crashed writer
  // cannot compensate — the torn bytes stay for recovery to truncate).
  if (!crashed_) {
    if (::ftruncate(fd_, static_cast<off_t>(record_offset)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(record_offset), SEEK_SET) < 0 ||
        ::fsync(fd_) != 0) {
      // The disk state is now unknown; refuse further use like a crash.
      crashed_ = true;
    }
  }
  size_bytes_ = record_offset;
  return status;
}

Status JournalWriter::SyncLocked() {
  NP_TRACE_SCOPE("durability.fsync");
  const SyscallGate gate = GateSyscall("io.journal", &crashed_, path_);
  if (!gate.status.ok()) return gate.status;
  if (::fsync(fd_) != 0) return ErrnoError("fsync", path_);
  if (gate.crash_after) {
    // The fsync completed, so everything appended so far is durable; the
    // "crash" only means no later operation can run.
    crashed_ = true;
    return Status::IOError(
        StrFormat("simulated crash after journal fsync: %s", path_.c_str()));
  }
  unsynced_records_ = 0;
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (crashed_) return CrashedError("Sync", path_);
  if (fd_ < 0) {
    return Status::FailedPrecondition("JournalWriter: not open: " + path_);
  }
  return SyncLocked();
}

Status JournalWriter::TruncateTo(std::uint64_t size) {
  if (crashed_) return CrashedError("TruncateTo", path_);
  if (fd_ < 0) {
    return Status::FailedPrecondition("JournalWriter: not open: " + path_);
  }
  if (size > size_bytes_) {
    return Status::InvalidArgument(
        "JournalWriter: cannot truncate to a larger size");
  }
  const SyscallGate gate = GateSyscall("io.journal", &crashed_, path_);
  if (!gate.status.ok()) return gate.status;
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoError("ftruncate", path_);
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return ErrnoError("lseek", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoError("fsync", path_);
  size_bytes_ = size;
  unsynced_records_ = 0;
  metrics::Count("journal.truncates", 1);
  if (gate.crash_after) {
    // The truncate is already durable; only later operations are lost.
    crashed_ = true;
    return Status::IOError(StrFormat(
        "simulated crash after journal truncate: %s", path_.c_str()));
  }
  return Status::OK();
}

#else  // !NEUROPRINT_HAS_POSIX_IO

// Durability requires POSIX fd I/O (fsync/rename/ftruncate); other hosts
// get explicit Unimplemented instead of silent non-durability.
namespace {
Status NoPosix() {
  return Status::Unimplemented("durable I/O requires a POSIX host");
}
}  // namespace

Result<AtomicFileWriter> AtomicFileWriter::Create(const std::string&,
                                                  const char*) {
  return NoPosix();
}
AtomicFileWriter::AtomicFileWriter(AtomicFileWriter&&) noexcept = default;
AtomicFileWriter& AtomicFileWriter::operator=(AtomicFileWriter&&) noexcept =
    default;
AtomicFileWriter::~AtomicFileWriter() = default;
Status AtomicFileWriter::Append(const void*, std::size_t) { return NoPosix(); }
Status AtomicFileWriter::Commit() { return NoPosix(); }
void AtomicFileWriter::Abandon() {}
Status AtomicWriteFile(const std::string&, const void*, std::size_t,
                       const char*) {
  return NoPosix();
}
Result<JournalWriter> JournalWriter::Open(const std::string&, std::uint64_t,
                                          const JournalOptions&) {
  return NoPosix();
}
JournalWriter::JournalWriter(JournalWriter&&) noexcept = default;
JournalWriter& JournalWriter::operator=(JournalWriter&&) noexcept = default;
JournalWriter::~JournalWriter() = default;
Status JournalWriter::Append(const void*, std::size_t) { return NoPosix(); }
Status JournalWriter::Sync() { return NoPosix(); }
Status JournalWriter::SyncLocked() { return NoPosix(); }
Status JournalWriter::TruncateTo(std::uint64_t) { return NoPosix(); }

#endif  // NEUROPRINT_HAS_POSIX_IO

Result<JournalScan> ReplayJournal(
    const std::string& path,
    const std::function<Status(const std::uint8_t* payload,
                               std::size_t size)>& fn) {
  if (fault::Enabled()) {
    const fault::Injection injection = fault::Hit("io.journal");
    // Only `error` rules fire on the read side; torn/crash/corrupt target
    // the writer's syscalls, and ignoring them here lets recovery run
    // under a still-active crash schedule.
    if (injection.action == fault::Action::kError) return injection.status;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return JournalScan{};
    return Status::IOError("cannot open journal: " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  if (end < 0) return Status::IOError("cannot size journal: " + path);
  const std::uint64_t file_size = static_cast<std::uint64_t>(end);
  in.seekg(0);

  JournalScan scan;
  std::vector<std::uint8_t> payload;
  std::uint64_t pos = 0;
  while (file_size - pos >= kJournalRecordHeaderBytes) {
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    if (!ReadLE(in, length) || !ReadLE(in, crc)) break;
    // A zero, implausible, or beyond-EOF length is the torn tail: stop
    // scanning (never allocate against a scrambled length field).
    if (length == 0 || length > kJournalMaxRecordBytes ||
        file_size - pos - kJournalRecordHeaderBytes < length) {
      break;
    }
    payload.resize(length);
    if (!in.read(reinterpret_cast<char*>(payload.data()), length)) break;
    if (crc32c::Value(payload.data(), length) != crc) break;
    NP_RETURN_IF_ERROR(fn(payload.data(), length));
    pos += kJournalRecordHeaderBytes + length;
    ++scan.records;
  }
  scan.valid_bytes = pos;
  scan.dropped_bytes = file_size - pos;
  if (scan.dropped_bytes > 0) {
    metrics::Count("journal.tail_bytes_dropped", scan.dropped_bytes);
  }
  return scan;
}

}  // namespace neuroprint
