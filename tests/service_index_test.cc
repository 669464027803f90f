// Property tests for the sharded identification index (service tier):
// enroll/remove round-trips, cluster-pruned vs. brute-force top-1 parity,
// deterministic shard assignment, staleness/refresh semantics, and the
// edge-case Status contract.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/status.h"

namespace neuroprint::service {
namespace {

SyntheticGalleryConfig SmallGallery(std::size_t subjects,
                                    std::size_t features) {
  SyntheticGalleryConfig config;
  config.num_subjects = subjects;
  config.num_features = features;
  config.seed = 0x5eed5eedULL;
  return config;
}

// A fresh index fitted on subjects [0, reference) of session 0.
Result<IdentificationIndex> MakeIndex(const SyntheticGalleryConfig& gallery,
                                      std::size_t reference,
                                      const IndexOptions& options = {}) {
  auto ref = MakeSyntheticGallerySlice(gallery, 0, 0, reference);
  if (!ref.ok()) return ref.status();
  return IdentificationIndex::Create(*ref, options);
}

TEST(ServiceIndexTest, EnrollRemoveRoundTripMatchesRestrictedEnrollment) {
  // enroll(A..Z) + remove(M) must leave state identical to enrolling the
  // set minus M: the index is a pure function of the member set.
  const auto gallery = SmallGallery(26, 64);
  auto with_m = MakeIndex(gallery, 8);
  auto without_m = MakeIndex(gallery, 8);
  ASSERT_TRUE(with_m.ok()) << with_m.status();
  ASSERT_TRUE(without_m.ok()) << without_m.status();

  auto tail = MakeSyntheticGallerySlice(gallery, 0, 8, 26);
  ASSERT_TRUE(tail.ok());
  const std::string removed_id = SyntheticSubjectId(13);

  ASSERT_TRUE(with_m->EnrollBatch(*tail).ok());
  ASSERT_TRUE(with_m->Remove(removed_id).ok());

  std::vector<std::size_t> keep;
  for (std::size_t j = 0; j < tail->num_subjects(); ++j) {
    if (tail->subject_ids()[j] != removed_id) keep.push_back(j);
  }
  auto restricted = tail->RestrictToSubjects(keep);
  ASSERT_TRUE(restricted.ok());
  ASSERT_TRUE(without_m->EnrollBatch(*restricted).ok());

  EXPECT_FALSE(with_m->Contains(removed_id));
  EXPECT_EQ(with_m->size(), without_m->size());
  EXPECT_EQ(with_m->DebugStateString(), without_m->DebugStateString());
}

TEST(ServiceIndexTest, EnrollmentOrderDoesNotChangeState) {
  const auto gallery = SmallGallery(20, 48);
  auto forward = MakeIndex(gallery, 6);
  auto backward = MakeIndex(gallery, 6);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  auto tail = MakeSyntheticGallerySlice(gallery, 0, 6, 20);
  ASSERT_TRUE(tail.ok());
  for (std::size_t j = 0; j < tail->num_subjects(); ++j) {
    const std::size_t r = tail->num_subjects() - 1 - j;
    ASSERT_TRUE(
        forward->Enroll(tail->subject_ids()[j], tail->SubjectColumn(j)).ok());
    ASSERT_TRUE(
        backward->Enroll(tail->subject_ids()[r], tail->SubjectColumn(r)).ok());
  }
  EXPECT_EQ(forward->DebugStateString(), backward->DebugStateString());
}

TEST(ServiceIndexTest, PrunedSearchMatchesBruteForceTopOne) {
  // Clusters must never change the identification outcome — only the
  // amount of work. Non-vacuity: pruning actually skips candidates.
  auto gallery = SmallGallery(300, 128);
  IndexOptions options;
  options.num_features = 64;
  options.num_shards = 4;
  auto index = MakeIndex(gallery, 64, options);
  ASSERT_TRUE(index.ok()) << index.status();
  auto rest = MakeSyntheticGallerySlice(gallery, 0, 64, 300);
  ASSERT_TRUE(rest.ok());
  ASSERT_TRUE(index->EnrollBatch(*rest).ok());

  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(probes.ok());
  auto pruned = index->IdentifyBatch(*probes);
  auto brute = index->IdentifyBatchBruteForce(*probes);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(brute.ok()) << brute.status();

  ASSERT_EQ(pruned->matches.size(), brute->matches.size());
  std::size_t pruned_scanned = 0, brute_scanned = 0;
  for (std::size_t p = 0; p < pruned->matches.size(); ++p) {
    EXPECT_EQ(pruned->matches[p].subject_id, brute->matches[p].subject_id)
        << "probe " << pruned->probe_ids[p];
    pruned_scanned += pruned->matches[p].candidates_scanned;
    brute_scanned += brute->matches[p].candidates_scanned;
  }
  EXPECT_DOUBLE_EQ(pruned->accuracy, brute->accuracy);
  EXPECT_LT(pruned_scanned, brute_scanned) << "pruning was vacuous";
}

TEST(ServiceIndexTest, ShardAssignmentIsDeterministic) {
  const auto gallery = SmallGallery(12, 32);
  IndexOptions options;
  options.num_shards = 5;
  auto a = MakeIndex(gallery, 12, options);
  auto b = MakeIndex(gallery, 12, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t j = 0; j < 40; ++j) {
    const std::string id = SyntheticSubjectId(j);
    // A pure function of (id, num_shards): equal across instances and
    // equal to the documented hash, enrolled or not.
    EXPECT_EQ(a->ShardOf(id), SubjectHash(id) % 5);
    EXPECT_EQ(a->ShardOf(id), b->ShardOf(id));
  }
}

TEST(ServiceIndexTest, SingleProbeMatchesBatch) {
  const auto gallery = SmallGallery(30, 64);
  auto index = MakeIndex(gallery, 30);
  ASSERT_TRUE(index.ok());
  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(probes.ok());
  auto batch = index->IdentifyBatch(*probes);
  ASSERT_TRUE(batch.ok());
  for (std::size_t j = 0; j < probes->num_subjects(); ++j) {
    auto single = index->Identify(probes->SubjectColumn(j));
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->subject_id, batch->matches[j].subject_id);
    EXPECT_EQ(single->similarity, batch->matches[j].similarity);
    EXPECT_EQ(single->margin, batch->matches[j].margin);
    EXPECT_EQ(single->candidates_scanned,
              batch->matches[j].candidates_scanned);
  }
}

TEST(ServiceIndexTest, EdgeCaseStatuses) {
  const auto gallery = SmallGallery(6, 24);
  auto ref = MakeSyntheticGallery(gallery, 0);
  ASSERT_TRUE(ref.ok());
  // A single probe is a one-column batch: a screened-out probe returns its
  // own status under skip-and-report too, never an OK empty match.
  for (const FailurePolicy& policy :
       {FailurePolicy::FailFast(), FailurePolicy::SkipAndReport()}) {
    SCOPED_TRACE(FailureModeName(policy.mode));
    IndexOptions options;
    options.failure_policy = policy;
    auto index = MakeIndex(gallery, 6, options);
    ASSERT_TRUE(index.ok());

    // Duplicate enrollment.
    const Status dup =
        index->Enroll(SyntheticSubjectId(0), ref->SubjectColumn(0));
    EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

    // Removing an id that was never enrolled.
    EXPECT_EQ(index->Remove("nobody").code(), StatusCode::kNotFound);

    // Dimension mismatch on enroll and probe.
    const linalg::Vector short_column(3, 0.5);
    EXPECT_EQ(index->Enroll("new", short_column).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index->Identify(short_column).status().code(),
              StatusCode::kInvalidArgument);

    // Non-finite probe.
    linalg::Vector bad = ref->SubjectColumn(0);
    bad[1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(index->Identify(bad).status().code(), StatusCode::kCorruptData);

    // Empty gallery: a clean FailedPrecondition, not an assert.
    for (const std::string& id : index->EnrolledIds()) {
      ASSERT_TRUE(index->Remove(id).ok());
    }
    EXPECT_EQ(index->size(), 0u);
    EXPECT_EQ(index->Identify(ref->SubjectColumn(0)).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(index->IdentifyBatch(*ref).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(ServiceIndexTest, StalenessCountsMutationsAndRefreshResets) {
  const auto gallery = SmallGallery(24, 64);
  auto index = MakeIndex(gallery, 12);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->sketch_staleness(), 0u);

  auto tail = MakeSyntheticGallerySlice(gallery, 0, 12, 24);
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(index->EnrollBatch(*tail).ok());
  EXPECT_EQ(index->sketch_staleness(), 12u);
  ASSERT_TRUE(index->Remove(SyntheticSubjectId(3)).ok());
  EXPECT_EQ(index->sketch_staleness(), 13u);

  ASSERT_TRUE(index->RefreshSketch().ok());
  EXPECT_EQ(index->sketch_staleness(), 0u);

  // The refreshed subspace still identifies everyone it retains.
  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(probes.ok());
  auto result = index->IdentifyBatch(*probes);
  ASSERT_TRUE(result.ok());
  auto brute = index->IdentifyBatchBruteForce(*probes);
  ASSERT_TRUE(brute.ok());
  EXPECT_DOUBLE_EQ(result->accuracy, brute->accuracy);
}

TEST(ServiceIndexTest, AutoRefreshTriggersOnCadence) {
  const auto gallery = SmallGallery(20, 48);
  IndexOptions options;
  options.refresh_interval = 4;
  auto index = MakeIndex(gallery, 10, options);
  ASSERT_TRUE(index.ok());
  auto tail = MakeSyntheticGallerySlice(gallery, 0, 10, 20);
  ASSERT_TRUE(tail.ok());
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(
        index->Enroll(tail->subject_ids()[j], tail->SubjectColumn(j)).ok());
  }
  EXPECT_EQ(index->sketch_staleness(), 3u);
  ASSERT_TRUE(
      index->Enroll(tail->subject_ids()[3], tail->SubjectColumn(3)).ok());
  EXPECT_EQ(index->sketch_staleness(), 0u);  // 4th mutation refreshed.
}

TEST(ServiceIndexTest, RefreshWithoutRetainedColumnsFailsCleanly) {
  const auto gallery = SmallGallery(10, 32);
  IndexOptions options;
  options.retain_full_columns = false;
  auto index = MakeIndex(gallery, 10, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->RefreshSketch().code(), StatusCode::kFailedPrecondition);
  // Serving still works without the retained columns.
  auto probes = MakeSyntheticGallery(gallery, 1);
  ASSERT_TRUE(probes.ok());
  EXPECT_TRUE(index->IdentifyBatch(*probes).ok());
}

TEST(ServiceIndexTest, CreateRejectsWideReference) {
  // Leverage needs a tall matrix: more reference subjects than features
  // must be a clean error telling the caller to fit on a sample.
  const auto gallery = SmallGallery(40, 16);
  auto index = MakeIndex(gallery, 40);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace neuroprint::service
