// Mutation-sequence tests for the identification index (service and
// durability tiers). Removals tombstone their entry in place and an enroll
// batch merges into each shard once; neither may be visible in any
// observable state:
//
//   * a pinned digest of DebugStateString, the snapshot file and the
//     journal file after a fixed enroll/remove/checkpoint sequence — the
//     bytes the one-entry-at-a-time sorted-vector commit produced;
//   * a seeded randomized differential test: interleavings of EnrollBatch,
//     Remove, Checkpoint, reopen, RefreshSketch and IdentifyBatch against a
//     std::set model, with pruned-vs-brute-force and live-vs-reopened
//     parity after every step, at both retain_full_columns settings;
//   * edge cases: an emptied shard, remove then re-enroll, a refresh after
//     removals, an in-batch duplicate behind a failed copy, and the
//     per-index fault schedule on Remove.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "connectome/group_matrix.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace neuroprint::service {
namespace {

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Both sessions of a small synthetic gallery, resident: session 0 is what
// gets enrolled, session 1 what gets probed.
struct Sessions {
  explicit Sessions(const SyntheticGalleryConfig& config) {
    auto s0 = MakeSyntheticGallery(config, 0);
    auto s1 = MakeSyntheticGallery(config, 1);
    NP_CHECK(s0.ok() && s1.ok());
    enroll = std::move(s0).value();
    probe = std::move(s1).value();
  }

  // The columns of `subjects` from `session` (0 or 1), ids attached.
  connectome::GroupMatrix Pick(int session,
                               const std::vector<std::size_t>& subjects) const {
    const connectome::GroupMatrix& from = session == 0 ? enroll : probe;
    std::vector<linalg::Vector> columns;
    std::vector<std::string> ids;
    for (std::size_t j : subjects) {
      columns.push_back(from.SubjectColumn(j));
      ids.push_back(from.subject_ids()[j]);
    }
    auto group = connectome::GroupMatrix::FromFeatureColumns(columns, ids);
    NP_CHECK(group.ok());
    return std::move(group).value();
  }

  connectome::GroupMatrix enroll;
  connectome::GroupMatrix probe;
};

std::vector<std::size_t> Range(std::size_t begin, std::size_t end) {
  std::vector<std::size_t> out;
  for (std::size_t j = begin; j < end; ++j) out.push_back(j);
  return out;
}

SyntheticGalleryConfig MutationGallery() {
  SyntheticGalleryConfig config;
  config.num_subjects = 48;
  config.num_features = 48;
  config.num_communities = 4;
  config.community_weight = 0.5;
  config.seed = 0x70b570e5ULL;
  return config;
}

// Three shards of a dozen or so members, clustered (not flat), so the
// cluster build and the pruned probe both run on shards that removals
// have thinned.
IndexOptions MutationOptions(bool retain_full_columns) {
  IndexOptions options;
  options.num_features = 16;
  options.num_shards = 3;
  options.min_cluster_shard_size = 4;
  options.retain_full_columns = retain_full_columns;
  options.failure_policy = FailurePolicy::SkipAndReport();
  return options;
}

void ExpectTopOneMatchesBruteForce(IdentificationIndex& index,
                                   const connectome::GroupMatrix& probes) {
  auto pruned = index.IdentifyBatch(probes);
  auto brute = index.IdentifyBatchBruteForce(probes);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(brute.ok()) << brute.status();
  ASSERT_EQ(pruned->matches.size(), brute->matches.size());
  for (std::size_t p = 0; p < pruned->matches.size(); ++p) {
    EXPECT_EQ(pruned->matches[p].subject_id, brute->matches[p].subject_id)
        << "probe " << pruned->probe_ids[p];
    EXPECT_EQ(pruned->matches[p].similarity, brute->matches[p].similarity);
  }
}

// ---------------------------------------------------------------------------
// Bit contract
// ---------------------------------------------------------------------------

struct PinnedDigests {
  std::uint64_t state;
  std::uint64_t snapshot;
  std::uint64_t journal;
};

// Taken from the index as it was before removals tombstoned and batches
// merged (every mutation then inserted into or erased from the sorted
// shard vector directly); the commit paths changed, the bytes must not.
constexpr PinnedDigests kPinnedRetain = {
    0x0a09ecea601daa3fULL, 0xf06a510004c17538ULL, 0x56f7a9da11c52335ULL};
constexpr PinnedDigests kPinnedLean = {
    0x0a09ecea601daa3fULL, 0x8cd50432fa46e2cdULL, 0xac772fecc4282458ULL};

TEST(ServiceMutationTest, FixedSequenceDigestsArePinned) {
  const Sessions sessions(MutationGallery());
  for (const bool retain : {true, false}) {
    SCOPED_TRACE(StrFormat("retain=%d", retain ? 1 : 0));
    DurabilityOptions durability;
    durability.data_dir = FreshDir(StrFormat("mutation_pin_%d", retain ? 1 : 0));
    durability.compact_min_bytes = 0;  // Checkpoint only when asked.
    auto index = IdentificationIndex::CreateDurable(
        sessions.Pick(0, Range(0, 16)), durability, MutationOptions(retain));
    ASSERT_TRUE(index.ok()) << index.status();
    ASSERT_TRUE(index->EnrollBatch(sessions.Pick(0, Range(16, 30))).ok());
    for (const std::size_t j : {3, 17, 29, 8}) {
      ASSERT_TRUE(index->Remove(SyntheticSubjectId(j)).ok());
    }
    ASSERT_TRUE(index->Checkpoint().ok());
    std::vector<std::size_t> next = Range(30, 40);
    next.push_back(17);  // Re-enrolled after its removal.
    ASSERT_TRUE(index->EnrollBatch(sessions.Pick(0, next)).ok());
    for (const std::size_t j : {0, 31, 12, 39}) {
      ASSERT_TRUE(index->Remove(SyntheticSubjectId(j)).ok());
    }
    ASSERT_TRUE(index->EnrollBatch(sessions.Pick(0, {0, 40, 41})).ok());

    const PinnedDigests actual = {
        Fnv1a(index->DebugStateString()),
        Fnv1a(ReadFile(durability.data_dir + "/snapshot.npix")),
        Fnv1a(ReadFile(durability.data_dir + "/journal.wal"))};
    const PinnedDigests& pinned = retain ? kPinnedRetain : kPinnedLean;
    EXPECT_EQ(actual.state, pinned.state)
        << StrFormat("state 0x%016llx", (unsigned long long)actual.state);
    EXPECT_EQ(actual.snapshot, pinned.snapshot)
        << StrFormat("snapshot 0x%016llx", (unsigned long long)actual.snapshot);
    EXPECT_EQ(actual.journal, pinned.journal)
        << StrFormat("journal 0x%016llx", (unsigned long long)actual.journal);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential test
// ---------------------------------------------------------------------------

// One seeded run: a durable index and a std::set model of its members,
// driven through random mutations with every invariant checked after each
// step.
class MutationRun {
 public:
  MutationRun(const Sessions& sessions, bool retain, std::uint64_t seed)
      : sessions_(sessions),
        retain_(retain),
        rng_(seed),
        pool_(sessions.enroll.num_subjects()) {
    durability_.data_dir =
        FreshDir(StrFormat("mutation_run_%d_%llu", retain ? 1 : 0,
                           static_cast<unsigned long long>(seed)));
    // Small enough that some enrolls and removals auto-compact.
    durability_.compact_min_bytes = 8 << 10;
    durability_.compact_ratio = 0.25;
  }

  void Run(std::size_t steps) {
    std::vector<std::size_t> reference = Range(0, 8);
    auto created = IdentificationIndex::CreateDurable(
        sessions_.Pick(0, reference), durability_, MutationOptions(retain_));
    ASSERT_TRUE(created.ok()) << created.status();
    index_ = std::make_unique<IdentificationIndex>(std::move(created).value());
    for (std::size_t j : reference) Enrolled(j);
    CheckInvariants();
    for (std::size_t step = 0; step < steps; ++step) {
      SCOPED_TRACE(StrFormat("step %zu", step));
      const std::uint64_t roll = rng_.UniformInt(100);
      if (roll < 35) {
        EnrollBatch();
      } else if (roll < 65) {
        Remove();
      } else if (roll < 73) {
        ASSERT_TRUE(index_->Checkpoint().ok());
      } else if (roll < 81) {
        Reopen();
      } else if (roll < 87) {
        Refresh();
      } else {
        if (!model_.empty()) {
          ExpectTopOneMatchesBruteForce(*index_, sessions_.Pick(1, Probes()));
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
      CheckInvariants();
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  void Enrolled(std::size_t j) {
    model_.insert(SyntheticSubjectId(j));
    ever_.insert(j);
  }

  std::size_t PickFrom(const std::vector<std::size_t>& from) {
    return from[rng_.UniformInt(from.size())];
  }

  std::vector<std::size_t> Members(bool live) const {
    std::vector<std::size_t> out;
    for (std::size_t j : ever_) {
      if ((model_.count(SyntheticSubjectId(j)) != 0) == live) out.push_back(j);
    }
    return out;
  }

  // A batch of fresh ids, re-enrolls of removed ids, in-batch duplicates
  // and already-enrolled ids, under skip-and-report: the model predicts
  // exactly which items the report lists.
  void EnrollBatch() {
    const std::size_t count = 1 + rng_.UniformInt(6);
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t kind = rng_.UniformInt(4);
      const std::vector<std::size_t> removed = Members(false);
      const std::vector<std::size_t> live = Members(true);
      if (kind == 1 && !removed.empty()) {
        batch.push_back(PickFrom(removed));
      } else if (kind == 2 && !batch.empty()) {
        batch.push_back(PickFrom(batch));
      } else if (kind == 3 && !live.empty()) {
        batch.push_back(PickFrom(live));
      } else if (ever_.size() < pool_) {
        std::size_t fresh = rng_.UniformInt(pool_);
        while (ever_.count(fresh) != 0) fresh = (fresh + 1) % pool_;
        batch.push_back(fresh);
      }
    }
    if (batch.empty()) return;
    std::vector<std::size_t> expected_failed;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string id = SyntheticSubjectId(batch[i]);
      if (model_.count(id) != 0 || !seen.insert(id).second) {
        expected_failed.push_back(i);
      }
    }
    BatchReport report;
    const Status status = index_->EnrollBatch(sessions_.Pick(0, batch), &report);
    if (expected_failed.size() == batch.size()) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);  // No survivor.
    } else {
      ASSERT_TRUE(status.ok()) << status;
    }
    std::vector<std::size_t> failed;
    for (const BatchItemReport& item : report.failed) {
      EXPECT_EQ(item.status.code(), StatusCode::kAlreadyExists);
      failed.push_back(item.index);
    }
    EXPECT_EQ(failed, expected_failed);
    for (std::size_t j : batch) Enrolled(j);
  }

  // A live id, an already-removed one, or one never enrolled.
  void Remove() {
    const std::uint64_t kind = rng_.UniformInt(5);
    const std::vector<std::size_t> removed = Members(false);
    const std::vector<std::size_t> live = Members(true);
    std::string id;
    if (kind == 3 && !removed.empty()) {
      id = SyntheticSubjectId(PickFrom(removed));
    } else if (kind == 4) {
      id = "never-enrolled";
    } else if (!live.empty()) {
      id = SyntheticSubjectId(PickFrom(live));
    } else {
      return;
    }
    const Status status = index_->Remove(id);
    if (model_.erase(id) != 0) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kNotFound);
    }
  }

  void Reopen() {
    const std::string live = index_->DebugStateString();
    index_.reset();
    auto reopened =
        IdentificationIndex::OpenDurable(durability_, MutationOptions(retain_));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    index_ = std::make_unique<IdentificationIndex>(std::move(reopened).value());
    EXPECT_EQ(index_->DebugStateString(), live);
  }

  void Refresh() {
    const Status status = index_->RefreshSketch();
    if (retain_ && model_.size() >= 2) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    }
  }

  // Session-1 scans of up to four live members and one removed one.
  std::vector<std::size_t> Probes() {
    std::vector<std::size_t> probes;
    const std::vector<std::size_t> live = Members(true);
    for (std::size_t i = 0; i < 4 && i < live.size(); ++i) {
      probes.push_back(PickFrom(live));
    }
    const std::vector<std::size_t> removed = Members(false);
    if (!removed.empty()) probes.push_back(PickFrom(removed));
    return probes;
  }

  void CheckInvariants() {
    const std::vector<std::string> model(model_.begin(), model_.end());
    EXPECT_EQ(index_->EnrolledIds(), model);
    EXPECT_EQ(index_->size(), model_.size());
    for (std::size_t j = 0; j < pool_; ++j) {
      const std::string id = SyntheticSubjectId(j);
      EXPECT_EQ(index_->Contains(id), model_.count(id) != 0) << id;
    }
    if (!model_.empty()) {
      ExpectTopOneMatchesBruteForce(*index_, sessions_.Pick(1, Probes()));
    }
    // The live state must equal what a restart recovers from the data
    // directory as it stands; a copy is reopened so the live journal
    // writer keeps its files.
    const std::string copy = durability_.data_dir + ".copy";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(durability_.data_dir, copy);
    DurabilityOptions reopen = durability_;
    reopen.data_dir = copy;
    auto reopened = IdentificationIndex::OpenDurable(reopen,
                                                     MutationOptions(retain_));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->DebugStateString(), index_->DebugStateString());
  }

  const Sessions& sessions_;
  const bool retain_;
  Rng rng_;
  const std::size_t pool_;
  DurabilityOptions durability_;
  std::unique_ptr<IdentificationIndex> index_;
  std::set<std::string> model_;  ///< Ids the index must hold.
  std::set<std::size_t> ever_;   ///< Subjects enrolled at some point.
};

TEST(ServiceMutationTest, RandomSequencesMatchSetModel) {
  const Sessions sessions(MutationGallery());
  for (const bool retain : {true, false}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(StrFormat("retain=%d seed=%llu", retain ? 1 : 0,
                             static_cast<unsigned long long>(seed)));
      MutationRun(sessions, retain, seed).Run(60);
      if (HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

// A fresh non-durable index over exactly `members`, enrolled in one batch
// after fitting on the first eight subjects: the settled state every
// mutation path must reproduce.
Result<IdentificationIndex> CleanIndex(const Sessions& sessions,
                                       const IndexOptions& options,
                                       const std::vector<std::size_t>& members) {
  auto index = IdentificationIndex::Create(sessions.Pick(0, Range(0, 8)),
                                           options);
  if (!index.ok()) return index.status();
  std::vector<std::size_t> rest;
  for (std::size_t j : members) {
    if (j >= 8) rest.push_back(j);
  }
  if (!rest.empty()) {
    NP_RETURN_IF_ERROR(index->EnrollBatch(sessions.Pick(0, rest)));
  }
  for (std::size_t j = 0; j < 8; ++j) {
    bool keep = false;
    for (std::size_t m : members) keep = keep || m == j;
    if (!keep) NP_RETURN_IF_ERROR(index->Remove(SyntheticSubjectId(j)));
  }
  return index;
}

TEST(ServiceMutationTest, EmptiedShardStillIdentifies) {
  const Sessions sessions(MutationGallery());
  const IndexOptions options = MutationOptions(true);
  auto index = CleanIndex(sessions, options, Range(0, 30));
  ASSERT_TRUE(index.ok()) << index.status();
  std::vector<std::size_t> kept;
  for (std::size_t j = 0; j < 30; ++j) {
    if (index->ShardOf(SyntheticSubjectId(j)) == 1) {
      ASSERT_TRUE(index->Remove(SyntheticSubjectId(j)).ok());
    } else {
      kept.push_back(j);
    }
  }
  ASSERT_LT(kept.size(), 30u);
  auto result = index->IdentifyBatch(sessions.Pick(1, Range(0, 30)));
  ASSERT_TRUE(result.ok()) << result.status();
  for (const IdentifyMatch& match : result->matches) {
    EXPECT_NE(index->ShardOf(match.subject_id), 1u) << match.subject_id;
  }
  ExpectTopOneMatchesBruteForce(*index, sessions.Pick(1, Range(0, 30)));
  auto clean = CleanIndex(sessions, options, kept);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(index->DebugStateString(), clean->DebugStateString());
}

TEST(ServiceMutationTest, RemoveThenReEnrollInOneBatch) {
  const Sessions sessions(MutationGallery());
  const IndexOptions options = MutationOptions(false);
  auto index = CleanIndex(sessions, options, Range(0, 24));
  ASSERT_TRUE(index.ok()) << index.status();
  // No probe settles the shards in between: the re-enrolled ids meet
  // their own tombstones in the batch merge.
  for (const std::size_t j : {5, 12, 20}) {
    ASSERT_TRUE(index->Remove(SyntheticSubjectId(j)).ok());
  }
  BatchReport report;
  ASSERT_TRUE(
      index->EnrollBatch(sessions.Pick(0, {20, 24, 5, 25}), &report).ok());
  EXPECT_TRUE(report.failed.empty());
  EXPECT_FALSE(index->Contains(SyntheticSubjectId(12)));
  EXPECT_TRUE(index->Contains(SyntheticSubjectId(5)));

  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < 26; ++j) {
    if (j != 12) members.push_back(j);
  }
  auto clean = CleanIndex(sessions, options, members);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(index->EnrolledIds(), clean->EnrolledIds());
  EXPECT_EQ(index->DebugStateString(), clean->DebugStateString());
}

TEST(ServiceMutationTest, RefreshAfterRemovalsMatchesCleanIndex) {
  const Sessions sessions(MutationGallery());
  const IndexOptions options = MutationOptions(true);
  auto index = CleanIndex(sessions, options, Range(0, 32));
  ASSERT_TRUE(index.ok()) << index.status();
  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < 32; ++j) {
    if (j % 3 == 1) {
      ASSERT_TRUE(index->Remove(SyntheticSubjectId(j)).ok());
    } else {
      members.push_back(j);
    }
  }
  ASSERT_TRUE(index->RefreshSketch().ok());
  auto clean = CleanIndex(sessions, options, members);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->RefreshSketch().ok());
  EXPECT_EQ(index->selected_features(), clean->selected_features());
  EXPECT_EQ(index->DebugStateString(), clean->DebugStateString());
  ExpectTopOneMatchesBruteForce(*index, sessions.Pick(1, members));
}

TEST(ServiceMutationTest, CopyBehindFailedCopySurvivesDuplicateCheck) {
  const Sessions sessions(MutationGallery());
  auto index = CleanIndex(sessions, MutationOptions(true), Range(0, 8));
  ASSERT_TRUE(index.ok()) << index.status();
  connectome::GroupMatrix batch = sessions.Pick(0, {30, 30, 30});
  linalg::Vector poisoned = batch.SubjectColumn(0);
  poisoned[2] = std::numeric_limits<double>::quiet_NaN();
  auto columns = connectome::GroupMatrix::FromFeatureColumns(
      {poisoned, batch.SubjectColumn(1), batch.SubjectColumn(2)},
      batch.subject_ids());
  ASSERT_TRUE(columns.ok());
  BatchReport report;
  ASSERT_TRUE(index->EnrollBatch(*columns, &report).ok());
  ASSERT_EQ(report.failed.size(), 2u);
  const std::string id = SyntheticSubjectId(30);
  EXPECT_EQ(report.failed[0].index, 0u);
  EXPECT_EQ(report.failed[0].status.code(), StatusCode::kCorruptData);
  EXPECT_EQ(report.failed[0].status.message(),
            "subject " + id + " has non-finite feature values");
  EXPECT_EQ(report.failed[1].index, 2u);
  EXPECT_EQ(report.failed[1].status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(report.failed[1].status.message(),
            "subject " + id + " duplicated within the batch");
  EXPECT_TRUE(index->Contains(id));
  EXPECT_EQ(index->size(), 9u);
}

TEST(ServiceMutationTest, PerIndexFaultScheduleReachesRemove) {
  const Sessions sessions(MutationGallery());
  IndexOptions options = MutationOptions(true);
  DurabilityOptions durability;
  durability.data_dir = FreshDir("mutation_remove_fault");
  std::string before;
  {
    auto created = IdentificationIndex::CreateDurable(
        sessions.Pick(0, Range(0, 12)), durability, options);
    ASSERT_TRUE(created.ok()) << created.status();
    before = created->DebugStateString();
  }
  // A schedule on the index's own options, with no process schedule.
  options.fault.schedule = "io.journal@1=error:IOError:journal down";
  auto index = IdentificationIndex::OpenDurable(durability, options);
  ASSERT_TRUE(index.ok()) << index.status();
  const Status status = index->Remove(SyntheticSubjectId(4));
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
  EXPECT_TRUE(index->Contains(SyntheticSubjectId(4)));
  EXPECT_EQ(index->DebugStateString(), before);
}

}  // namespace
}  // namespace neuroprint::service
