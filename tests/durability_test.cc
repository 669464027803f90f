// Durability tier: crash-recovery property tests for the durable
// identification index (CreateDurable / OpenDurable / Checkpoint).
//
// The centerpiece is a deterministic crash sweep: a fixed mutation
// scenario (create, enrolls, a batch, a stream, removes, a checkpoint)
// is re-run once per (retain_full_columns setting, fault action, I/O
// site), with the fault schedule `point@k=action` walking k over every
// arrival at `io.journal` and `io.snapshot` until a full pass completes
// without firing. After each simulated crash the data directory is
// reopened and the recovered index must hold exactly the pre-op or
// post-op member set of the interrupted operation, with a
// DebugStateString bit-identical to a never-crashed index over the same
// members — torn tails truncated, checkpoint-redundant records skipped,
// never a corrupt or merged state.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/endian.h"
#include "util/fault.h"
#include "util/journal.h"
#include "util/status.h"
#include "util/string_util.h"

namespace neuroprint::service {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.npix";
}

std::string JournalPath(const std::string& dir) { return dir + "/journal.wal"; }

// ---------------------------------------------------------------------------
// Crash sweep
// ---------------------------------------------------------------------------

// The sweep scenario enrolls from subjects [0, kSubjects) of this
// gallery; slices are bitwise-identical to the corresponding columns of
// the full session-0 matrix, so the clean replica can re-enroll any
// member from `full`.
constexpr std::size_t kSubjects = 18;
constexpr std::size_t kReference = 10;

SyntheticGalleryConfig SweepGallery() {
  SyntheticGalleryConfig config;
  config.num_subjects = kSubjects;
  config.num_features = 48;
  config.seed = 0xd00bea75ULL;
  return config;
}

// The sweep runs at both retain_full_columns settings: an enroll record
// carries the full column only when the index retains it.
IndexOptions SweepOptions(bool retain_full_columns) {
  IndexOptions options;
  options.num_features = 16;
  options.num_shards = 3;
  options.retain_full_columns = retain_full_columns;
  return options;
}

// Sorted member set after scenario op `op` committed (op = -1 is the
// state before CreateDurable: no index at all). Mirrors RunScenario.
std::vector<std::string> ExpectedAfter(int op) {
  std::set<std::string> members;
  const auto apply = [&members](int step) {
    switch (step) {
      case 0:
        for (std::size_t j = 0; j < kReference; ++j) {
          members.insert(SyntheticSubjectId(j));
        }
        break;
      case 1:
        members.insert(SyntheticSubjectId(10));
        break;
      case 2:
        for (std::size_t j = 11; j < 14; ++j) {
          members.insert(SyntheticSubjectId(j));
        }
        break;
      case 3:
        members.erase(SyntheticSubjectId(3));
        break;
      case 4:
        break;  // Checkpoint: membership unchanged.
      case 5:
        for (std::size_t j = 14; j < 17; ++j) {
          members.insert(SyntheticSubjectId(j));
        }
        break;
      case 6:
        members.insert(SyntheticSubjectId(17));
        break;
      case 7:
        members.erase(SyntheticSubjectId(11));
        break;
      default:
        ADD_FAILURE() << "unknown scenario op " << step;
    }
  };
  for (int step = 0; step <= op; ++step) apply(step);
  return {members.begin(), members.end()};
}

constexpr int kScenarioOps = 8;

// Runs the scenario against a fresh durable index in `dir` and returns
// the index of the first op that failed (-1: clean pass). A fired
// torn/crash rule leaves the journal writer dead, so every later op
// would fail too — stopping at the first error models the process
// dying there.
int RunScenario(const std::string& dir, const connectome::GroupMatrix& reference,
                const connectome::GroupMatrix& full, bool retain,
                Status* failure) {
  DurabilityOptions durability;
  durability.data_dir = dir;
  auto index = IdentificationIndex::CreateDurable(reference, durability,
                                                  SweepOptions(retain));
  if (!index.ok()) {
    *failure = index.status();
    return 0;
  }
  Status s = index->Enroll(SyntheticSubjectId(10), full.SubjectColumn(10));
  if (!s.ok()) {
    *failure = s;
    return 1;
  }
  auto batch = MakeSyntheticGallerySlice(SweepGallery(), 0, 11, 14);
  if (!batch.ok()) {
    ADD_FAILURE() << batch.status();
    *failure = batch.status();
    return 2;
  }
  s = index->EnrollBatch(*batch);
  if (!s.ok()) {
    *failure = s;
    return 2;
  }
  s = index->Remove(SyntheticSubjectId(3));
  if (!s.ok()) {
    *failure = s;
    return 3;
  }
  s = index->Checkpoint();
  if (!s.ok()) {
    *failure = s;
    return 4;
  }
  auto streamed = MakeSyntheticGallerySlice(SweepGallery(), 0, 14, 17);
  if (!streamed.ok()) {
    ADD_FAILURE() << streamed.status();
    *failure = streamed.status();
    return 5;
  }
  const connectome::InMemoryMatrixStore store(*streamed);
  s = index->EnrollStream(store, nullptr, 2);
  if (!s.ok()) {
    *failure = s;
    return 5;
  }
  s = index->Enroll(SyntheticSubjectId(17), full.SubjectColumn(17));
  if (!s.ok()) {
    *failure = s;
    return 6;
  }
  s = index->Remove(SyntheticSubjectId(11));
  if (!s.ok()) {
    *failure = s;
    return 7;
  }
  *failure = Status::OK();
  return -1;
}

// A never-crashed, never-persisted index over exactly `members`: fitted
// on the same reference (the subspace is a function of the reference,
// not of later mutations), then diffed toward the member set. The
// enroll/remove round-trip and order-independence properties (service
// tier) make this construction canonical.
Result<IdentificationIndex> BuildCleanReplica(
    const connectome::GroupMatrix& reference,
    const connectome::GroupMatrix& full,
    const std::vector<std::string>& members, bool retain) {
  auto clean = IdentificationIndex::Create(reference, SweepOptions(retain));
  if (!clean.ok()) return clean.status();
  const std::set<std::string> want(members.begin(), members.end());
  for (const std::string& id : reference.subject_ids()) {
    if (want.count(id) == 0) NP_RETURN_IF_ERROR(clean->Remove(id));
  }
  for (std::size_t j = 0; j < full.num_subjects(); ++j) {
    const std::string& id = full.subject_ids()[j];
    if (want.count(id) != 0 && !clean->Contains(id)) {
      NP_RETURN_IF_ERROR(clean->Enroll(id, full.SubjectColumn(j)));
    }
  }
  return clean;
}

TEST(DurabilityCrashSweepTest, EveryIoSiteRecoversToPreOrPostState) {
  const auto gallery = SweepGallery();
  auto full = MakeSyntheticGallery(gallery, 0);
  auto reference = MakeSyntheticGallerySlice(gallery, 0, 0, kReference);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(reference.ok()) << reference.status();

  const char* kPoints[] = {"io.journal", "io.snapshot"};
  // Every failure mode the durable writers model: a clean I/O error, a
  // write torn to 0 / 4 / all of its bytes, and a kill right after the
  // syscall.
  const char* kActions[] = {"error:IOError:injected sweep fault", "torn:0",
                            "torn:4", "torn:1000000", "crash"};
  for (const bool retain : {true, false}) {
    for (const char* point : kPoints) {
      for (const char* action : kActions) {
        bool swept_past_end = false;
        int hit = 0;
        for (hit = 1; hit < 64 && !swept_past_end; ++hit) {
          SCOPED_TRACE(StrFormat("retain=%d %s@%d=%s", retain ? 1 : 0, point,
                                 hit, action));
          const std::string dir =
              FreshDir(StrFormat("durability_sweep_%d", hit));
          Status failure;
          int failed_op = -1;
          std::uint64_t arrivals = 0;
          {
            fault::ScopedSchedule schedule(
                StrFormat("%s@%d=%s", point, hit, action));
            ASSERT_TRUE(schedule.status().ok()) << schedule.status();
            fault::ResetHitCounters();
            failed_op = RunScenario(dir, *reference, *full, retain, &failure);
            arrivals = fault::ArrivalCount(point);
          }
          if (failed_op == -1) {
            // Clean pass: the hit index walked past the scenario's last
            // arrival at this point, so the sweep covered every site.
            ASSERT_LT(arrivals, static_cast<std::uint64_t>(hit))
                << "scenario passed although the fault fired";
            swept_past_end = true;
          } else {
            ASSERT_FALSE(failure.ok());
          }

          DurabilityOptions durability;
          durability.data_dir = dir;
          auto reopened = IdentificationIndex::OpenDurable(
              durability, SweepOptions(retain));
          if (failed_op == 0 && !reopened.ok()) {
            // CreateDurable died before its snapshot was published: the
            // pre-op state of creation is "no index", and open saying so
            // is the correct recovery.
            continue;
          }
          ASSERT_TRUE(reopened.ok()) << reopened.status();
          const std::vector<std::string> members = reopened->EnrolledIds();
          const std::vector<std::string> pre =
              ExpectedAfter(failed_op == -1 ? kScenarioOps - 1 : failed_op - 1);
          const std::vector<std::string> post =
              ExpectedAfter(failed_op == -1 ? kScenarioOps - 1 : failed_op);
          ASSERT_TRUE(members == pre || members == post)
              << "recovered member set is neither the pre-op nor the post-op "
                 "state of op "
              << failed_op << " (failure: " << failure.message() << ")";

          auto clean = BuildCleanReplica(*reference, *full, members, retain);
          ASSERT_TRUE(clean.ok()) << clean.status();
          ASSERT_EQ(reopened->DebugStateString(), clean->DebugStateString())
              << "recovered index diverged from a never-crashed index over "
                 "the same members";
        }
        EXPECT_TRUE(swept_past_end)
            << point << "=" << action << " sweep never completed";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot / journal round trips
// ---------------------------------------------------------------------------

TEST(DurabilityTest, SnapshotRoundTripIsBitIdentical) {
  SyntheticGalleryConfig gallery;
  gallery.num_subjects = 30;
  gallery.num_features = 64;
  auto group = MakeSyntheticGallery(gallery, 0);
  ASSERT_TRUE(group.ok());
  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(probes.ok());
  for (const bool retain : {true, false}) {
    SCOPED_TRACE(StrFormat("retain=%d", retain ? 1 : 0));
    IndexOptions options;
    options.retain_full_columns = retain;
    auto index = IdentificationIndex::Create(*group, options);
    ASSERT_TRUE(index.ok()) << index.status();

    const std::string path =
        FreshDir(StrFormat("durability_snapshot_%d", retain ? 1 : 0)) +
        "/index.npix";
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    ASSERT_TRUE(index->SaveSnapshot(path).ok());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "atomic publish left its temp file behind";

    auto reopened = IdentificationIndex::OpenFromSnapshot(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_FALSE(reopened->durable());
    EXPECT_EQ(reopened->EnrolledIds(), index->EnrolledIds());
    EXPECT_EQ(reopened->DebugStateString(), index->DebugStateString());

    auto a = index->IdentifyBatch(*probes);
    auto b = reopened->IdentifyBatch(*probes);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size());
    for (std::size_t p = 0; p < a->matches.size(); ++p) {
      EXPECT_EQ(a->matches[p].subject_id, b->matches[p].subject_id);
      EXPECT_EQ(a->matches[p].similarity, b->matches[p].similarity);
      EXPECT_EQ(a->matches[p].margin, b->matches[p].margin);
    }
  }
}

// The satellite grid: EnrollStream at several window sizes and thread
// counts, over a resident and a file-backed store, a torn-write crash in
// the middle, recovery, and then full DebugStateString + IdentifyBatch
// parity against a never-persisted replica — streaming, persistence, and
// parallelism must all be invisible in the final state. The file-backed
// store is read window by window, so its journal records are built from
// columns staged across several tile reads.
TEST(DurabilityTest, StreamCrashRecoveryParityAcrossWindowsAndThreads) {
  SyntheticGalleryConfig gallery;
  gallery.num_subjects = 40;
  gallery.num_features = 64;
  gallery.seed = 0x57e2ea11ULL;
  auto reference = MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto streamed = MakeSyntheticGallerySlice(gallery, 0, 12, 36);
  auto full = MakeSyntheticGallery(gallery, 0);
  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(probes.ok());

  IndexOptions base_options;
  base_options.num_features = 24;
  base_options.num_shards = 4;

  auto clean = IdentificationIndex::Create(*reference, base_options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->EnrollBatch(*streamed).ok());
  ASSERT_TRUE(
      clean->Enroll(full->subject_ids()[36], full->SubjectColumn(36)).ok());
  const std::string want_state = clean->DebugStateString();
  auto want = clean->IdentifyBatch(*probes);
  ASSERT_TRUE(want.ok()) << want.status();

  const std::string npgm_path =
      ::testing::TempDir() + "/durability_grid_streamed.npgm";
  ASSERT_TRUE(connectome::WriteGroupMatrix(npgm_path, *streamed).ok());
  auto file_store = connectome::FileMatrixStore::Open(npgm_path);
  ASSERT_TRUE(file_store.ok()) << file_store.status();
  const connectome::InMemoryMatrixStore ram_store(*streamed);

  for (std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (const bool file_backed : {false, true}) {
        SCOPED_TRACE(StrFormat("window=%zu threads=%zu file_backed=%d", window,
                               threads, file_backed ? 1 : 0));
        IndexOptions options = base_options;
        options.parallel.num_threads = threads;
        DurabilityOptions durability;
        durability.data_dir =
            FreshDir(StrFormat("durability_grid_%zu_%zu_%d", window, threads,
                               file_backed ? 1 : 0));
        const connectome::MatrixStore* store = &ram_store;
        if (file_backed) store = file_store->get();
        {
          auto index = IdentificationIndex::CreateDurable(*reference,
                                                          durability, options);
          ASSERT_TRUE(index.ok()) << index.status();
          ASSERT_TRUE(index->EnrollStream(*store, nullptr, window).ok());
          // Tear the next mutation's journal append after 7 bytes — less
          // than the record header — and let the "process" die.
          fault::ScopedSchedule schedule("io.journal@1=torn:7");
          ASSERT_TRUE(schedule.status().ok());
          fault::ResetHitCounters();
          EXPECT_EQ(index
                        ->Enroll(full->subject_ids()[36],
                                 full->SubjectColumn(36))
                        .code(),
                    StatusCode::kIOError);
        }
        auto recovered = IdentificationIndex::OpenDurable(durability, options);
        ASSERT_TRUE(recovered.ok()) << recovered.status();
        EXPECT_EQ(recovered->size(), 36u);
        EXPECT_FALSE(recovered->Contains(full->subject_ids()[36]));
        // Finish the interrupted work, compact, and reopen once more.
        ASSERT_TRUE(
            recovered->Enroll(full->subject_ids()[36], full->SubjectColumn(36))
                .ok());
        ASSERT_TRUE(recovered->Checkpoint().ok());
        EXPECT_EQ(recovered->journal_size_bytes(), 0u);
        auto reopened = IdentificationIndex::OpenDurable(durability, options);
        ASSERT_TRUE(reopened.ok()) << reopened.status();

        EXPECT_EQ(reopened->DebugStateString(), want_state);
        auto got = reopened->IdentifyBatch(*probes);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->matches.size(), want->matches.size());
        for (std::size_t p = 0; p < got->matches.size(); ++p) {
          EXPECT_EQ(got->matches[p].subject_id, want->matches[p].subject_id);
          EXPECT_EQ(got->matches[p].similarity, want->matches[p].similarity);
          EXPECT_EQ(got->matches[p].margin, want->matches[p].margin);
          EXPECT_EQ(got->matches[p].candidates_scanned,
                    want->matches[p].candidates_scanned);
        }
        EXPECT_EQ(got->accuracy, want->accuracy);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Durable lifecycle details
// ---------------------------------------------------------------------------

class DurableIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticGalleryConfig gallery;
    gallery.num_subjects = 16;
    gallery.num_features = 40;
    auto reference = MakeSyntheticGallerySlice(gallery, 0, 0, 8);
    auto rest = MakeSyntheticGallerySlice(gallery, 0, 8, 16);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(rest.ok());
    reference_ = std::move(reference).value();
    rest_ = std::move(rest).value();
  }

  connectome::GroupMatrix reference_;
  connectome::GroupMatrix rest_;
};

TEST_F(DurableIndexTest, MissingDataDirectoryConfigurationIsAnError) {
  if (!DataDirectory().empty()) {
    GTEST_SKIP() << "NEUROPRINT_DATA_DIR is set in this environment";
  }
  DurabilityOptions durability;  // No data_dir, no env fallback.
  auto created = IdentificationIndex::CreateDurable(reference_, durability);
  ASSERT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("NEUROPRINT_DATA_DIR"),
            std::string::npos)
      << created.status();
  EXPECT_EQ(IdentificationIndex::OpenDurable(durability).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DurableIndexTest, ZeroSyncEveryIsRejected) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_sync0");
  durability.sync_every = 0;
  EXPECT_EQ(IdentificationIndex::CreateDurable(reference_, durability)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DurableIndexTest, CheckpointRequiresDurability) {
  auto index = IdentificationIndex::Create(reference_);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->durable());
  EXPECT_EQ(index->journal_size_bytes(), 0u);
  EXPECT_EQ(index->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableIndexTest, RetainFlagMismatchIsFailedPrecondition) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_retain");
  auto index = IdentificationIndex::CreateDurable(reference_, durability);
  ASSERT_TRUE(index.ok()) << index.status();
  IndexOptions lean;
  lean.retain_full_columns = false;
  auto reopened = IdentificationIndex::OpenDurable(durability, lean);
  ASSERT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("retain_full_columns"),
            std::string::npos)
      << reopened.status();
}

TEST_F(DurableIndexTest, CorruptSnapshotIsDetected) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_corrupt");
  {
    auto index = IdentificationIndex::CreateDurable(reference_, durability);
    ASSERT_TRUE(index.ok()) << index.status();
  }
  const std::string path = SnapshotPath(durability.data_dir);

  // Flip the last payload byte: the CRC must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(-1, std::ios::end);
    f.write(&byte, 1);
  }
  auto flipped = IdentificationIndex::OpenDurable(durability);
  ASSERT_EQ(flipped.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(flipped.status().message().find("checksum mismatch"),
            std::string::npos)
      << flipped.status();

  // Truncate into the header: detected before any payload is trusted.
  std::filesystem::resize_file(path, 10);
  EXPECT_EQ(IdentificationIndex::OpenDurable(durability).status().code(),
            StatusCode::kCorruptData);

  // Wrong magic: not a snapshot at all.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "XXXXsomething that is long enough to not be a header issue";
  }
  EXPECT_EQ(IdentificationIndex::OpenDurable(durability).status().code(),
            StatusCode::kCorruptData);
}

TEST_F(DurableIndexTest, StaleSnapshotTempIsSweptOnOpen) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_tmp_sweep");
  {
    auto index = IdentificationIndex::CreateDurable(reference_, durability);
    ASSERT_TRUE(index.ok()) << index.status();
  }
  const std::string temp = SnapshotPath(durability.data_dir) + ".tmp";
  {
    std::ofstream f(temp, std::ios::binary);
    f << "half-written snapshot from a crashed writer";
  }
  auto reopened = IdentificationIndex::OpenDurable(durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(std::filesystem::exists(temp));
}

TEST_F(DurableIndexTest, GarbageJournalTailIsTruncatedOnOpen) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_tail");
  {
    auto index = IdentificationIndex::CreateDurable(reference_, durability);
    ASSERT_TRUE(index.ok()) << index.status();
    ASSERT_TRUE(
        index->Enroll(rest_.subject_ids()[0], rest_.SubjectColumn(0)).ok());
  }
  const std::string journal = JournalPath(durability.data_dir);
  const auto committed_bytes = std::filesystem::file_size(journal);
  {
    // A torn header plus noise: nothing past the committed prefix
    // checks out, so open must keep the prefix and drop the tail.
    std::ofstream f(journal, std::ios::binary | std::ios::app);
    f << "\x13\x37garbage";
  }
  ASSERT_GT(std::filesystem::file_size(journal), committed_bytes);
  auto reopened = IdentificationIndex::OpenDurable(durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->size(), reference_.num_subjects() + 1);
  EXPECT_TRUE(reopened->Contains(rest_.subject_ids()[0]));
  EXPECT_EQ(std::filesystem::file_size(journal), committed_bytes)
      << "the invalid tail should have been truncated away";
}

TEST_F(DurableIndexTest, RelaxedSyncEveryStillRecoversCleanShutdown) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_sync3");
  durability.sync_every = 3;
  std::string state;
  {
    auto index = IdentificationIndex::CreateDurable(reference_, durability);
    ASSERT_TRUE(index.ok()) << index.status();
    for (std::size_t j = 0; j < rest_.num_subjects(); ++j) {
      ASSERT_TRUE(
          index->Enroll(rest_.subject_ids()[j], rest_.SubjectColumn(j)).ok());
    }
    state = index->DebugStateString();
  }
  auto reopened = IdentificationIndex::OpenDurable(durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->size(), reference_.num_subjects() + rest_.num_subjects());
  EXPECT_EQ(reopened->DebugStateString(), state);
}

TEST_F(DurableIndexTest, AutoCompactionKeepsJournalEmptyAndConverges) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_compact");
  durability.compact_min_bytes = 1;  // Compact after every mutation.
  durability.compact_ratio = 0.0;
  auto index = IdentificationIndex::CreateDurable(reference_, durability);
  ASSERT_TRUE(index.ok()) << index.status();
  for (std::size_t j = 0; j < rest_.num_subjects(); ++j) {
    ASSERT_TRUE(
        index->Enroll(rest_.subject_ids()[j], rest_.SubjectColumn(j)).ok());
    EXPECT_EQ(index->journal_size_bytes(), 0u)
        << "mutation " << j << " did not trigger compaction";
  }
  ASSERT_TRUE(index->Remove(rest_.subject_ids()[1]).ok());
  EXPECT_EQ(index->journal_size_bytes(), 0u);

  auto reopened = IdentificationIndex::OpenDurable(durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->DebugStateString(), index->DebugStateString());
}

// An enroll record holds, per subject, what the snapshot stores: u32 id
// length, the id, the fingerprint, and the full column only when the
// index retains it. A batch is one record, so each further subject adds
// its entry alone.
TEST_F(DurableIndexTest, EnrollRecordGrowsByOneEntryPerSubject) {
  for (const bool retain : {true, false}) {
    SCOPED_TRACE(StrFormat("retain=%d", retain ? 1 : 0));
    IndexOptions options;
    options.num_features = 12;
    options.retain_full_columns = retain;
    DurabilityOptions durability;
    durability.data_dir =
        FreshDir(StrFormat("durability_growth_%d", retain ? 1 : 0));
    auto index =
        IdentificationIndex::CreateDurable(reference_, durability, options);
    ASSERT_TRUE(index.ok()) << index.status();
    const std::size_t dim = index->selected_features().size();
    ASSERT_EQ(dim, 12u);
    const std::size_t full = retain ? rest_.num_features() : 0;
    const auto entry_bytes = [&](const std::string& id) {
      return std::uint64_t{4 + id.size() + dim * 8 + full * 8};
    };
    // Framing, then u8 type and u32 count.
    const std::uint64_t record_bytes = kJournalRecordHeaderBytes + 1 + 4;

    ASSERT_EQ(index->journal_size_bytes(), 0u);
    ASSERT_TRUE(
        index->Enroll(rest_.subject_ids()[0], rest_.SubjectColumn(0)).ok());
    EXPECT_EQ(index->journal_size_bytes(),
              record_bytes + entry_bytes(rest_.subject_ids()[0]));

    const std::uint64_t before = index->journal_size_bytes();
    std::vector<linalg::Vector> columns;
    std::vector<std::string> ids;
    std::uint64_t want = record_bytes;
    for (std::size_t j = 1; j < 4; ++j) {
      columns.push_back(rest_.SubjectColumn(j));
      ids.push_back(rest_.subject_ids()[j]);
      want += entry_bytes(ids.back());
    }
    auto batch = connectome::GroupMatrix::FromFeatureColumns(columns, ids);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(index->EnrollBatch(*batch).ok());
    EXPECT_EQ(index->journal_size_bytes() - before, want);

    auto reopened = IdentificationIndex::OpenDurable(durability, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->DebugStateString(), index->DebugStateString());
  }
}

// Type 1 is the older enroll record that carried full columns only. There
// is one reader per format: such a journal is refused as Unimplemented,
// naming the format, not read as corrupt.
TEST_F(DurableIndexTest, FullColumnEnrollRecordIsUnimplemented) {
  DurabilityOptions durability;
  durability.data_dir = FreshDir("durability_type1");
  {
    auto index = IdentificationIndex::CreateDurable(reference_, durability);
    ASSERT_TRUE(index.ok()) << index.status();
  }
  // u8 1 | u32 count | u32 id_length, id, full_feature_count f64 values.
  const std::string& id = rest_.subject_ids()[0];
  const linalg::Vector column = rest_.SubjectColumn(0);
  std::vector<std::uint8_t> payload = {1};
  AppendLE(payload, std::uint32_t{1});
  AppendLE(payload, static_cast<std::uint32_t>(id.size()));
  payload.insert(payload.end(), id.begin(), id.end());
  AppendLE(payload, column.data(), column.size());
  {
    auto journal =
        JournalWriter::Open(JournalPath(durability.data_dir), 0, {});
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Append(payload.data(), payload.size()).ok());
  }
  auto reopened = IdentificationIndex::OpenDurable(durability);
  ASSERT_EQ(reopened.status().code(), StatusCode::kUnimplemented)
      << reopened.status();
  EXPECT_NE(reopened.status().message().find("older full-column format"),
            std::string::npos)
      << reopened.status();
}

// Journaled fingerprints are valid only in the subspace of the snapshot
// the journal extends, and RefreshSketch is the one mutation that changes
// the subspace. An error at any journal or snapshot I/O site of a refresh,
// followed by an enroll, must still reopen to the live state.
TEST_F(DurableIndexTest, RefreshErrorsNeverMixSubspacesOnReopen) {
  IndexOptions options;
  options.num_features = 12;
  const std::string& id = rest_.subject_ids()[0];
  const std::size_t last = rest_.num_subjects() - 1;
  for (const char* point : {"io.journal", "io.snapshot"}) {
    bool swept_past_end = false;
    for (int hit = 1; hit < 32 && !swept_past_end; ++hit) {
      SCOPED_TRACE(StrFormat("%s@%d", point, hit));
      DurabilityOptions durability;
      durability.data_dir = FreshDir(StrFormat("durability_refresh_%d", hit));
      auto index =
          IdentificationIndex::CreateDurable(reference_, durability, options);
      ASSERT_TRUE(index.ok()) << index.status();
      for (std::size_t j = 1; j < last; ++j) {
        ASSERT_TRUE(
            index->Enroll(rest_.subject_ids()[j], rest_.SubjectColumn(j))
                .ok());
      }
      // Enroll, remove and re-enroll one id: replay re-commits its last
      // journaled fingerprint after removing the snapshot's copy.
      ASSERT_TRUE(index->Enroll(id, rest_.SubjectColumn(0)).ok());
      ASSERT_TRUE(index->Remove(id).ok());
      ASSERT_TRUE(index->Enroll(id, rest_.SubjectColumn(0)).ok());
      const std::vector<std::size_t> fitted = index->selected_features();
      {
        fault::ScopedSchedule schedule(
            StrFormat("%s@%d=error:IOError:refresh fault", point, hit));
        ASSERT_TRUE(schedule.status().ok());
        fault::ResetHitCounters();
        const Status refreshed = index->RefreshSketch();
        swept_past_end =
            fault::ArrivalCount(point) < static_cast<std::uint64_t>(hit);
        EXPECT_EQ(refreshed.ok(), swept_past_end) << refreshed;
      }
      if (swept_past_end) {
        ASSERT_NE(index->selected_features(), fitted)
            << "the refit must change the subspace for this test to bite";
      }
      ASSERT_TRUE(
          index->Enroll(rest_.subject_ids()[last], rest_.SubjectColumn(last))
              .ok());
      auto reopened = IdentificationIndex::OpenDurable(durability, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      EXPECT_EQ(reopened->DebugStateString(), index->DebugStateString());
    }
    EXPECT_TRUE(swept_past_end) << point << " sweep never completed";
  }
}

}  // namespace
}  // namespace neuroprint::service
