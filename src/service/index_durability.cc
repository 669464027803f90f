// Durability for IdentificationIndex: snapshot (de)serialization, the
// write-ahead journal record codec, and the durable open/create/compact
// paths. The mutation hooks (journal-before-commit) live with the
// mutation code in identification_index.cc; everything here is the
// storage layer they call into.
//
// Snapshot format ("NPIX" v1, little-endian):
//
//   magic "NPIX" | u32 version | u64 payload_bytes | u32 crc32c(payload) |
//   payload:
//     u64 full_feature_count | u8 retain_full_columns | u64 staleness |
//     u64 selected_count, u64 rows... |
//     u64 entry_count, per entry (ascending id):
//       u32 id_length, id bytes |
//       selected_count f64 fingerprint values (bitwise — NOT recomputed
//       on load, so a reopened index is bit-identical) |
//       full_feature_count f64 values when retain_full_columns
//
// Journal record payloads (framing + CRC are JournalWriter's):
//
//   u8 1 (enroll) | u32 count, per subject:
//       u32 id_length, id bytes, full_feature_count f64 values
//   u8 2 (remove) | u32 id_length, id bytes
//
// Enroll records carry the *screened* full column (post fault-injection,
// finite-checked), and a whole batch is ONE record: replay re-derives
// each fingerprint with MakeFingerprint, which is deterministic, so
// recovery commits exactly the bytes the live index committed — and a
// batch is all-or-nothing across a crash, like the in-memory commit
// phase it mirrors.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "service/identification_index.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/endian.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace neuroprint::service {
namespace {

constexpr char kSnapshotMagic[4] = {'N', 'P', 'I', 'X'};
constexpr std::uint32_t kSnapshotVersion = 1;
// magic + version + payload size + crc.
constexpr std::size_t kSnapshotHeaderBytes = 4 + 4 + 8 + 4;
// Same id bound as the NPGM container: protects the decoders from
// allocating against a scrambled length field.
constexpr std::uint32_t kMaxIdBytes = 4096;
constexpr std::uint64_t kMaxSnapshotFeatures = 1ull << 32;
constexpr std::uint64_t kMaxSnapshotEntries = 1ull << 32;

constexpr std::uint8_t kRecordEnroll = 1;
constexpr std::uint8_t kRecordRemove = 2;

constexpr const char* kSnapshotFile = "snapshot.npix";
constexpr const char* kJournalFile = "journal.wal";

std::string LatchDataDirectory() {
  const char* env = std::getenv("NEUROPRINT_DATA_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

// The directory a durable index lives in: explicit option first, then the
// latched environment fallback, else an error naming both knobs.
Result<std::string> ResolveDataDir(const DurabilityOptions& durability) {
  if (durability.sync_every == 0) {
    return Status::InvalidArgument(
        "DurabilityOptions: sync_every must be >= 1");
  }
  if (!durability.data_dir.empty()) return durability.data_dir;
  if (!DataDirectory().empty()) return DataDirectory();
  return Status::InvalidArgument(
      "durable index: no data directory — set DurabilityOptions::data_dir "
      "or the NEUROPRINT_DATA_DIR environment variable");
}

std::string SnapshotPathIn(const std::string& dir) {
  return (std::filesystem::path(dir) / kSnapshotFile).string();
}

std::string JournalPathIn(const std::string& dir) {
  return (std::filesystem::path(dir) / kJournalFile).string();
}

// Bounds-checked little-endian cursor over a decoded payload; every
// reader returns false instead of walking past the end, and the callers
// turn false into CorruptData.
class PayloadCursor {
 public:
  PayloadCursor(const std::uint8_t* data, std::size_t size)
      : p_(data), remaining_(size) {}

  template <typename T>
  bool Read(T* value) {
    if (remaining_ < sizeof(T)) return false;
    *value = ReadLE<T>(p_);
    p_ += sizeof(T);
    remaining_ -= sizeof(T);
    return true;
  }

  bool ReadString(std::uint32_t length, std::string* out) {
    if (remaining_ < length) return false;
    out->assign(reinterpret_cast<const char*>(p_), length);
    p_ += length;
    remaining_ -= length;
    return true;
  }

  bool ReadDoubles(std::size_t count, linalg::Vector* out) {
    if (remaining_ < count * sizeof(double)) return false;
    out->resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      (*out)[i] = ReadLE<double>(p_ + i * sizeof(double));
    }
    p_ += count * sizeof(double);
    remaining_ -= count * sizeof(double);
    return true;
  }

  std::size_t remaining() const { return remaining_; }

 private:
  const std::uint8_t* p_;
  std::size_t remaining_;
};

}  // namespace

const std::string& DataDirectory() {
  static const std::string dir = LatchDataDirectory();
  return dir;
}

Result<std::vector<std::uint8_t>> IdentificationIndex::SerializeSnapshot()
    const {
  const std::size_t dim = selected_features_.size();
  std::vector<std::uint8_t> payload;
  payload.reserve(64 + dim * 8 +
                  size_ * (8 + dim * sizeof(double) +
                           (options_.retain_full_columns
                                ? full_feature_count_ * sizeof(double)
                                : 0)));
  AppendLE(payload, static_cast<std::uint64_t>(full_feature_count_));
  payload.push_back(options_.retain_full_columns ? std::uint8_t{1}
                                                 : std::uint8_t{0});
  AppendLE(payload, static_cast<std::uint64_t>(sketch_staleness_));
  AppendLE(payload, static_cast<std::uint64_t>(dim));
  for (std::size_t row : selected_features_) {
    AppendLE(payload, static_cast<std::uint64_t>(row));
  }

  // Entries in ascending-id order across all shards: the shard layout is
  // a pure function of (id, num_shards) and re-derived on load, so the
  // snapshot stays valid if only num_shards changes.
  std::vector<const Entry*> ordered;
  ordered.reserve(size_);
  for (const Shard& shard : shards_) {
    for (const Entry& entry : shard.entries) ordered.push_back(&entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->id < b->id; });
  AppendLE(payload, static_cast<std::uint64_t>(ordered.size()));
  for (const Entry* entry : ordered) {
    if (entry->id.size() > kMaxIdBytes) {
      return Status::InvalidArgument(StrFormat(
          "SaveSnapshot: subject id of %zu bytes exceeds the format bound",
          entry->id.size()));
    }
    AppendLE(payload, static_cast<std::uint32_t>(entry->id.size()));
    payload.insert(payload.end(), entry->id.begin(), entry->id.end());
    for (double x : entry->fingerprint) AppendLE(payload, x);
    if (options_.retain_full_columns) {
      for (double x : entry->full) AppendLE(payload, x);
    }
  }

  std::vector<std::uint8_t> image;
  image.reserve(kSnapshotHeaderBytes + payload.size());
  image.insert(image.end(), kSnapshotMagic, kSnapshotMagic + 4);
  AppendLE(image, kSnapshotVersion);
  AppendLE(image, static_cast<std::uint64_t>(payload.size()));
  AppendLE(image, crc32c::Value(payload.data(), payload.size()));
  image.insert(image.end(), payload.begin(), payload.end());
  return image;
}

Result<std::uint64_t> IdentificationIndex::PublishSnapshot(
    const std::string& path) const {
  std::vector<std::uint8_t> image;
  NP_ASSIGN_OR_RETURN(image, SerializeSnapshot());
  NP_RETURN_IF_ERROR(AtomicWriteFile(path, image.data(), image.size()));
  metrics::Count("service.snapshot_saves", 1);
  metrics::SetGauge("service.snapshot_bytes",
                    static_cast<double>(image.size()));
  return static_cast<std::uint64_t>(image.size());
}

Status IdentificationIndex::SaveSnapshot(const std::string& path) const {
  return PublishSnapshot(path).status();
}

Result<IdentificationIndex> IdentificationIndex::OpenFromSnapshot(
    const std::string& path, const IndexOptions& options) {
  fault::ScopedSchedule fault_schedule(options.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  if (options.num_shards == 0) {
    return Status::InvalidArgument("IndexOptions: num_shards must be > 0");
  }
  if (options.kmeans_iterations == 0) {
    return Status::InvalidArgument(
        "IndexOptions: kmeans_iterations must be > 0");
  }
  // The read side honors only clean error injection: recovery must be
  // able to run while a torn/crash schedule aimed at the writers is
  // still active.
  if (fault::Enabled()) {
    const fault::Injection injection = fault::Hit("io.snapshot");
    if (injection.action == fault::Action::kError) return injection.status;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open index snapshot: " + path);
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kSnapshotMagic, 4) != 0) {
    return Status::CorruptData("not an index snapshot: " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t stored_crc = 0;
  if (!ReadLE(in, version) || !ReadLE(in, payload_size) ||
      !ReadLE(in, stored_crc)) {
    return Status::CorruptData("truncated index-snapshot header: " + path);
  }
  if (version != kSnapshotVersion) {
    return Status::Unimplemented(
        StrFormat("unsupported index-snapshot version %u", version));
  }
  const std::streampos data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos file_end = in.tellg();
  if (data_begin < 0 || file_end < data_begin ||
      static_cast<std::uint64_t>(file_end - data_begin) != payload_size) {
    return Status::CorruptData(StrFormat(
        "index snapshot payload size mismatch (header promises %llu "
        "bytes): %s",
        static_cast<unsigned long long>(payload_size), path.c_str()));
  }
  in.seekg(data_begin);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
  if (payload_size > 0 &&
      !in.read(reinterpret_cast<char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()))) {
    return Status::CorruptData("unreadable index-snapshot payload: " + path);
  }
  const std::uint32_t computed_crc =
      crc32c::Value(payload.data(), payload.size());
  if (computed_crc != stored_crc) {
    return Status::CorruptData(StrFormat(
        "index snapshot checksum mismatch (stored %08x, computed %08x): %s",
        stored_crc, computed_crc, path.c_str()));
  }

  PayloadCursor cursor(payload.data(), payload.size());
  std::uint64_t feature_count = 0;
  std::uint8_t retain = 0;
  std::uint64_t staleness = 0;
  std::uint64_t dim = 0;
  if (!cursor.Read(&feature_count) || !cursor.Read(&retain) ||
      !cursor.Read(&staleness) || !cursor.Read(&dim)) {
    return Status::CorruptData("truncated index-snapshot payload: " + path);
  }
  if (feature_count == 0 || feature_count > kMaxSnapshotFeatures ||
      retain > 1 || dim < 2 || dim > feature_count) {
    return Status::CorruptData("implausible index-snapshot metadata: " +
                               path);
  }
  if ((retain != 0) != options.retain_full_columns) {
    return Status::FailedPrecondition(StrFormat(
        "index snapshot was written with retain_full_columns = %s but the "
        "open options say %s",
        retain != 0 ? "true" : "false",
        options.retain_full_columns ? "true" : "false"));
  }

  IdentificationIndex index;
  index.options_ = options;
  index.full_feature_count_ = static_cast<std::size_t>(feature_count);
  index.sketch_staleness_ = static_cast<std::size_t>(staleness);
  index.shards_.resize(options.num_shards);
  index.selected_features_.resize(static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < index.selected_features_.size(); ++i) {
    std::uint64_t row = 0;
    if (!cursor.Read(&row)) {
      return Status::CorruptData("truncated index-snapshot payload: " + path);
    }
    if (row >= feature_count) {
      return Status::CorruptData(
          "index snapshot selects a feature row out of range: " + path);
    }
    index.selected_features_[i] = static_cast<std::size_t>(row);
  }

  std::uint64_t entry_count = 0;
  if (!cursor.Read(&entry_count) || entry_count > kMaxSnapshotEntries) {
    return Status::CorruptData("truncated index-snapshot payload: " + path);
  }
  std::string previous_id;
  for (std::uint64_t e = 0; e < entry_count; ++e) {
    std::uint32_t id_length = 0;
    if (!cursor.Read(&id_length) || id_length > kMaxIdBytes) {
      return Status::CorruptData("bad subject id in index snapshot: " + path);
    }
    Entry entry;
    if (!cursor.ReadString(id_length, &entry.id) ||
        !cursor.ReadDoubles(index.selected_features_.size(),
                            &entry.fingerprint)) {
      return Status::CorruptData("truncated index-snapshot entry: " + path);
    }
    if (retain != 0 &&
        !cursor.ReadDoubles(index.full_feature_count_, &entry.full)) {
      return Status::CorruptData("truncated index-snapshot entry: " + path);
    }
    // Strictly ascending ids: guards duplicates and lets each shard take
    // its entries by push_back while staying sorted.
    if (e > 0 && !(previous_id < entry.id)) {
      return Status::CorruptData("index-snapshot ids out of order: " + path);
    }
    previous_id = entry.id;
    Shard& shard = index.shards_[index.ShardOf(entry.id)];
    shard.entries.push_back(std::move(entry));
    shard.clusters_dirty = true;
  }
  if (cursor.remaining() != 0) {
    return Status::CorruptData(StrFormat(
        "index snapshot has %zu trailing payload bytes: %s",
        cursor.remaining(), path.c_str()));
  }
  index.size_ = static_cast<std::size_t>(entry_count);
  metrics::Count("service.snapshot_loads", 1);
  metrics::SetGauge("service.gallery_size", static_cast<double>(index.size_));
  metrics::SetGauge("service.sketch_staleness",
                    static_cast<double>(index.sketch_staleness_));
  return index;
}

Status IdentificationIndex::JournalEnrolls(
    const std::vector<PendingEnroll>& pending) {
  if (journal_ == nullptr || pending.empty()) return Status::OK();
  std::vector<std::uint8_t> payload;
  payload.reserve(5 + pending.size() *
                          (8 + full_feature_count_ * sizeof(double)));
  payload.push_back(kRecordEnroll);
  AppendLE(payload, static_cast<std::uint32_t>(pending.size()));
  for (const PendingEnroll& enroll : pending) {
    if (enroll.id->size() > kMaxIdBytes) {
      return Status::InvalidArgument(StrFormat(
          "Enroll: subject id of %zu bytes exceeds the journal bound",
          enroll.id->size()));
    }
    NP_CHECK_EQ(enroll.column->size(), full_feature_count_);
    AppendLE(payload, static_cast<std::uint32_t>(enroll.id->size()));
    payload.insert(payload.end(), enroll.id->begin(), enroll.id->end());
    for (double x : *enroll.column) AppendLE(payload, x);
  }
  return journal_->Append(payload.data(), payload.size());
}

Status IdentificationIndex::JournalRemove(const std::string& subject_id) {
  if (journal_ == nullptr) return Status::OK();
  if (subject_id.size() > kMaxIdBytes) {
    return Status::InvalidArgument(StrFormat(
        "Remove: subject id of %zu bytes exceeds the journal bound",
        subject_id.size()));
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(5 + subject_id.size());
  payload.push_back(kRecordRemove);
  AppendLE(payload, static_cast<std::uint32_t>(subject_id.size()));
  payload.insert(payload.end(), subject_id.begin(), subject_id.end());
  return journal_->Append(payload.data(), payload.size());
}

Status IdentificationIndex::ApplyJournalRecord(const std::uint8_t* payload,
                                               std::size_t size) {
  PayloadCursor cursor(payload, size);
  std::uint8_t type = 0;
  if (!cursor.Read(&type)) {
    return Status::CorruptData("empty journal record");
  }
  if (type == kRecordEnroll) {
    std::uint32_t count = 0;
    if (!cursor.Read(&count)) {
      return Status::CorruptData("truncated journal enroll record");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t id_length = 0;
      std::string id;
      linalg::Vector column;
      if (!cursor.Read(&id_length) || id_length > kMaxIdBytes ||
          !cursor.ReadString(id_length, &id) ||
          !cursor.ReadDoubles(full_feature_count_, &column)) {
        return Status::CorruptData("truncated journal enroll record");
      }
      // Already enrolled: this record predates the snapshot (a checkpoint
      // crashed after publishing it but before truncating the journal) —
      // replay converges by skipping, not failing.
      if (Contains(id)) continue;
      CommitEnroll(id, std::move(column));
    }
  } else if (type == kRecordRemove) {
    std::uint32_t id_length = 0;
    std::string id;
    if (!cursor.Read(&id_length) || id_length > kMaxIdBytes ||
        !cursor.ReadString(id_length, &id)) {
      return Status::CorruptData("truncated journal remove record");
    }
    Shard& shard = shards_[ShardOf(id)];
    const auto pos = std::lower_bound(
        shard.entries.begin(), shard.entries.end(), id,
        [](const Entry& e, const std::string& want) { return e.id < want; });
    // Absent: redundant like the enroll case above — skip.
    if (pos == shard.entries.end() || pos->id != id) return Status::OK();
    shard.entries.erase(pos);
    shard.clusters_dirty = true;
    --size_;
    NoteMutation();
  } else {
    return Status::CorruptData(
        StrFormat("unknown journal record type %u", type));
  }
  if (cursor.remaining() != 0) {
    return Status::CorruptData(StrFormat(
        "journal record has %zu trailing bytes", cursor.remaining()));
  }
  return Status::OK();
}

Result<IdentificationIndex> IdentificationIndex::CreateDurable(
    const connectome::GroupMatrix& reference,
    const DurabilityOptions& durability, const IndexOptions& options,
    BatchReport* report) {
  std::string dir;
  NP_ASSIGN_OR_RETURN(dir, ResolveDataDir(durability));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat(
        "CreateDurable: cannot create data directory '%s': %s", dir.c_str(),
        ec.message().c_str()));
  }
  Result<IdentificationIndex> created = Create(reference, options, report);
  if (!created.ok()) return created.status();
  IdentificationIndex index = std::move(created).value();
  index.durability_ = durability;
  index.durability_.data_dir = dir;
  index.snapshot_path_ = SnapshotPathIn(dir);
  // Sweep the temp a crashed snapshot writer may have left; it is inert
  // (Commit never ran) but should not accumulate.
  std::filesystem::remove(index.snapshot_path_ + ".tmp", ec);

  NP_ASSIGN_OR_RETURN(index.snapshot_bytes_,
                      index.PublishSnapshot(index.snapshot_path_));

  // A fresh journal: Open at offset 0 truncates whatever a previous
  // incarnation left (its state is superseded by the snapshot above).
  JournalOptions journal_options;
  journal_options.sync_every = durability.sync_every;
  Result<JournalWriter> journal =
      JournalWriter::Open(JournalPathIn(dir), 0, journal_options);
  if (!journal.ok()) return journal.status();
  index.journal_ =
      std::make_unique<JournalWriter>(std::move(journal).value());
  return index;
}

Result<IdentificationIndex> IdentificationIndex::OpenDurable(
    const DurabilityOptions& durability, const IndexOptions& options) {
  std::string dir;
  NP_ASSIGN_OR_RETURN(dir, ResolveDataDir(durability));
  const std::string snapshot_path = SnapshotPathIn(dir);
  const std::string journal_path = JournalPathIn(dir);
  std::error_code ec;
  std::filesystem::remove(snapshot_path + ".tmp", ec);

  Result<IdentificationIndex> opened =
      OpenFromSnapshot(snapshot_path, options);
  if (!opened.ok()) return opened.status();
  IdentificationIndex index = std::move(opened).value();
  index.durability_ = durability;
  index.durability_.data_dir = dir;
  index.snapshot_path_ = snapshot_path;
  const std::uintmax_t snapshot_bytes =
      std::filesystem::file_size(snapshot_path, ec);
  if (ec) {
    return Status::IOError("OpenDurable: cannot stat snapshot: " +
                           snapshot_path);
  }
  index.snapshot_bytes_ = static_cast<std::uint64_t>(snapshot_bytes);

  // Replay the committed mutations since that snapshot. A torn tail
  // (crash mid-append) ends the valid prefix and is truncated by the
  // writer below; a record that passes CRC but fails to decode is real
  // corruption and aborts the open.
  JournalScan scan;
  {
    Result<JournalScan> replayed = ReplayJournal(
        journal_path,
        [&index](const std::uint8_t* payload, std::size_t size) {
          return index.ApplyJournalRecord(payload, size);
        });
    if (!replayed.ok()) return replayed.status();
    scan = *replayed;
  }
  metrics::Count("service.journal_replays", 1);
  metrics::Count("service.journal_records_replayed", scan.records);

  JournalOptions journal_options;
  journal_options.sync_every = durability.sync_every;
  Result<JournalWriter> journal =
      JournalWriter::Open(journal_path, scan.valid_bytes, journal_options);
  if (!journal.ok()) return journal.status();
  index.journal_ =
      std::make_unique<JournalWriter>(std::move(journal).value());

  // A journal that already outgrew its snapshot compacts now, so reopen
  // cost stays bounded across many crash/reopen cycles.
  NP_RETURN_IF_ERROR(index.MaybeCompact());
  return index;
}

Status IdentificationIndex::Checkpoint() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "Checkpoint: index has no journal (CreateDurable/OpenDurable)");
  }
  NP_ASSIGN_OR_RETURN(snapshot_bytes_, PublishSnapshot(snapshot_path_));
  // Crash window: the snapshot is published but the journal still holds
  // the records it absorbed. Safe — replay skips already-present enrolls
  // and already-absent removes, so the next open converges to the same
  // state.
  NP_RETURN_IF_ERROR(journal_->TruncateTo(0));
  metrics::Count("service.checkpoints", 1);
  return Status::OK();
}

Status IdentificationIndex::MaybeCompact() {
  if (!durable() || durability_.compact_min_bytes == 0) return Status::OK();
  const std::uint64_t journal_bytes = journal_->size_bytes();
  if (journal_bytes < durability_.compact_min_bytes) return Status::OK();
  if (static_cast<double>(journal_bytes) <
      durability_.compact_ratio * static_cast<double>(snapshot_bytes_)) {
    return Status::OK();
  }
  metrics::Count("service.compactions", 1);
  return Checkpoint();
}

}  // namespace neuroprint::service
