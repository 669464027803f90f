// The out-of-core tier (ctest -L out-of-core): the store-backed kernels
// and batch paths must give the same bits at every window size and thread
// count as their GroupMatrix adapters (the window determinism contract of
// connectome/matrix_store.h), a resident store must be read in place
// unless a window is asked for, and the spill / file-backed stores must
// round-trip bit-exactly and fail cleanly when their files disappear.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "core/leverage.h"
#include "preprocess/pipeline.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"
#include "util/spill.h"

namespace neuroprint {
namespace {

const std::size_t kWindowSizes[] = {1, 3, 17, 64, 0};  // 0 = derived.
const std::size_t kThreadCounts[] = {1, 2, 8};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

connectome::GroupMatrix MakeGroup(std::size_t features, std::size_t subjects,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Vector> columns(subjects);
  std::vector<std::string> ids;
  for (std::size_t j = 0; j < subjects; ++j) {
    columns[j].resize(features);
    for (double& v : columns[j]) v = rng.Gaussian();
    ids.push_back("subject-" + std::to_string(j));
  }
  return *connectome::GroupMatrix::FromFeatureColumns(columns, ids);
}

// Writes `group` as NPGM and opens a file-backed store over it.
std::unique_ptr<connectome::FileMatrixStore> OpenFileStore(
    const connectome::GroupMatrix& group, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(connectome::WriteGroupMatrix(path, group).ok());
  auto store = connectome::FileMatrixStore::Open(path);
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(store).value();
}

void ExpectBitIdentical(const linalg::Matrix& a, const linalg::Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << ", " << j << ")";
    }
  }
}

void ExpectSameReport(const BatchReport& a, const BatchReport& b) {
  EXPECT_EQ(a.attempted, b.attempted);
  ASSERT_EQ(a.failed.size(), b.failed.size());
  for (std::size_t i = 0; i < a.failed.size(); ++i) {
    EXPECT_EQ(a.failed[i].index, b.failed[i].index);
    EXPECT_EQ(a.failed[i].id, b.failed[i].id);
    EXPECT_EQ(a.failed[i].stage, b.failed[i].stage);
    EXPECT_EQ(a.failed[i].status.code(), b.failed[i].status.code());
    EXPECT_EQ(a.failed[i].status.message(), b.failed[i].status.message());
    EXPECT_EQ(a.failed[i].degradations, b.failed[i].degradations);
  }
  ASSERT_EQ(a.degraded.size(), b.degraded.size());
  for (std::size_t i = 0; i < a.degraded.size(); ++i) {
    EXPECT_EQ(a.degraded[i].index, b.degraded[i].index);
    EXPECT_EQ(a.degraded[i].degradations, b.degraded[i].degradations);
  }
}

// A resident store that counts its tile reads: the store-backed paths must
// read its matrix in place (zero reads) unless asked for explicit windows.
class CountingResidentStore final : public connectome::MatrixStore {
 public:
  explicit CountingResidentStore(const connectome::GroupMatrix& group)
      : group_(&group) {}

  std::size_t num_features() const override { return group_->num_features(); }
  std::size_t num_subjects() const override { return group_->num_subjects(); }
  const std::vector<std::string>& subject_ids() const override {
    return group_->subject_ids();
  }
  const linalg::Matrix* resident() const override { return &group_->data(); }
  Status ReadTile(std::size_t row0, std::size_t row_count, std::size_t col0,
                  std::size_t col_count, linalg::Matrix* out) const override {
    ++reads_;
    *out = group_->data().Block(row0, col0, row_count, col_count);
    return Status::OK();
  }

  std::size_t reads() const { return reads_; }

 private:
  const connectome::GroupMatrix* group_;
  mutable std::size_t reads_ = 0;
};

// --- Spill file lifecycle ---------------------------------------------------

TEST(SpillFileTest, RoundTripIsBitExact) {
  auto spill = SpillFile::Create();
  ASSERT_TRUE(spill.ok()) << spill.status();
  const std::vector<double> a{1.5, -2.25, 3.0e-300}, b{4.0};
  ASSERT_TRUE(spill->AppendColumn(a.data(), a.size()).ok());
  ASSERT_TRUE(spill->AppendColumn(b.data(), b.size()).ok());
  EXPECT_EQ(spill->num_columns(), 2u);
  std::vector<double> out;
  ASSERT_TRUE(spill->ReadColumn(1, &out).ok());
  EXPECT_EQ(out, b);
  ASSERT_TRUE(spill->ReadColumn(0, &out).ok());
  EXPECT_EQ(out, a);
  EXPECT_EQ(spill->ReadColumn(2, &out).code(), StatusCode::kInvalidArgument);
}

TEST(SpillFileTest, DeletionMidBatchIsIOError) {
  auto spill = SpillFile::Create();
  ASSERT_TRUE(spill.ok()) << spill.status();
  const std::vector<double> column{1.0, 2.0};
  ASSERT_TRUE(spill->AppendColumn(column.data(), column.size()).ok());
  ASSERT_EQ(std::remove(spill->path().c_str()), 0);
  std::vector<double> out;
  EXPECT_EQ(spill->ReadColumn(0, &out).code(), StatusCode::kIOError);
}

TEST(SpillFileTest, TruncationIsCorruptData) {
  auto spill = SpillFile::Create();
  ASSERT_TRUE(spill.ok()) << spill.status();
  std::vector<double> column(64, 1.25);
  ASSERT_TRUE(spill->AppendColumn(column.data(), column.size()).ok());
  // Chop the tail of the backing file after the append flushed.
  std::ifstream in(spill->path(), std::ios::binary);
  std::string contents(16, '\0');
  in.read(contents.data(), 16);
  ASSERT_TRUE(in.good());
  in.close();
  std::ofstream(spill->path(), std::ios::binary | std::ios::trunc)
      .write(contents.data(), 16);
  std::vector<double> out;
  EXPECT_EQ(spill->ReadColumn(0, &out).code(), StatusCode::kCorruptData);
}

TEST(SpillFileTest, DestructorUnlinksBackingFile) {
  std::string path;
  {
    auto spill = SpillFile::Create();
    ASSERT_TRUE(spill.ok()) << spill.status();
    const double v = 1.0;
    ASSERT_TRUE(spill->AppendColumn(&v, 1).ok());
    path = spill->path();
    EXPECT_TRUE(std::ifstream(path).good());
  }
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(SpillFileTest, MissingSpillDirectoryIsAnUpfrontError) {
  // A misconfigured spill directory must fail at Create() with a message
  // naming the directory and where it came from — not surface later as a
  // cryptic open/write failure mid-batch.
  const std::string missing =
      ::testing::TempDir() + "/no_such_spill_dir/nested";
  auto spill = SpillFile::Create(missing);
  ASSERT_EQ(spill.status().code(), StatusCode::kIOError);
  EXPECT_NE(spill.status().message().find(missing), std::string::npos)
      << spill.status();
  EXPECT_NE(spill.status().message().find("dir"), std::string::npos)
      << spill.status();
}

// --- Window derivation ------------------------------------------------------

TEST(StreamOptionsTest, DeriveWindowColsHonorsRequestAndBounds) {
  EXPECT_EQ(connectome::DeriveWindowCols(1000, 50, 7), 7u);
  const std::size_t derived = connectome::DeriveWindowCols(1000, 50, 0);
  EXPECT_GE(derived, 1u);
  EXPECT_LE(derived, 50u);
  // A gigantic column still yields a usable (clamped) window.
  EXPECT_GE(connectome::DeriveWindowCols(1u << 30, 4, 0), 1u);
  EXPECT_GE(connectome::DeriveRowTile(1u << 30, 4, 0), 1u);
}

// --- Streamed kernels: bitwise parity ---------------------------------------

TEST(StreamedKernelTest, GramMatchesInRamAcrossWindowsAndThreads) {
  const connectome::GroupMatrix group = MakeGroup(96, 23, 31);
  const auto file_store = OpenFileStore(group, "ooc_gram.npgm");
  const connectome::InMemoryMatrixStore ram_store(group);
  const linalg::Matrix want = linalg::Gram(group.data());
  for (const std::size_t window : kWindowSizes) {
    for (const std::size_t threads : kThreadCounts) {
      connectome::StreamOptions stream;
      stream.window_cols = window;
      stream.parallel.num_threads = threads;
      for (const connectome::MatrixStore* store :
           {static_cast<const connectome::MatrixStore*>(&ram_store),
            static_cast<const connectome::MatrixStore*>(file_store.get())}) {
        const auto got = connectome::StreamedGram(*store, stream);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectBitIdentical(*got, want,
                           "gram window=" + std::to_string(window) +
                               " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(StreamedKernelTest, LeverageMatchesInRamOnGramFastPath) {
  // Tall shape (96 >= 4 * 12): the fully-streamed Gram fast path.
  const connectome::GroupMatrix group = MakeGroup(96, 12, 33);
  const auto file_store = OpenFileStore(group, "ooc_leverage.npgm");
  core::LeverageOptions options;
  options.parallel.num_threads = 1;
  const auto want = core::ComputeLeverageScores(group.data(), options);
  ASSERT_TRUE(want.ok()) << want.status();
  for (const std::size_t window : kWindowSizes) {
    for (const std::size_t threads : kThreadCounts) {
      core::LeverageOptions streamed_options;
      streamed_options.parallel.num_threads = threads;
      core::LeverageDiagnostics diagnostics;
      streamed_options.diagnostics = &diagnostics;
      connectome::StreamOptions stream;
      stream.window_cols = window;
      stream.row_tile = window;  // Exercise ragged row tiles too.
      const auto got = core::ComputeLeverageScoresStreamed(
          *file_store, streamed_options, stream);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(diagnostics.used_gram_fast_path);
      ASSERT_EQ(got->size(), want->size());
      for (std::size_t i = 0; i < want->size(); ++i) {
        ASSERT_EQ((*got)[i], (*want)[i])
            << "window " << window << " threads " << threads << " row " << i;
      }
    }
  }
}

TEST(StreamedKernelTest, LeverageFallsBackIdenticallyOffTheFastPath) {
  // Not tall enough for the Gram path: the streamed call materializes and
  // must still match bit for bit.
  const connectome::GroupMatrix group = MakeGroup(24, 10, 35);
  const auto file_store = OpenFileStore(group, "ooc_leverage_fallback.npgm");
  core::LeverageOptions options;
  options.parallel.num_threads = 1;
  const auto want = core::ComputeLeverageScores(group.data(), options);
  ASSERT_TRUE(want.ok()) << want.status();
  core::LeverageDiagnostics diagnostics;
  core::LeverageOptions streamed_options;
  streamed_options.parallel.num_threads = 1;
  streamed_options.diagnostics = &diagnostics;
  const auto got =
      core::ComputeLeverageScoresStreamed(*file_store, streamed_options, {});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(diagnostics.used_gram_fast_path);
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    ASSERT_EQ((*got)[i], (*want)[i]) << "row " << i;
  }
}

TEST(StreamedKernelTest, SubsetColumnsStoreMatchesBaseColumns) {
  const connectome::GroupMatrix group = MakeGroup(16, 8, 37);
  const connectome::InMemoryMatrixStore base(group);
  auto subset = connectome::SubsetColumnsStore::Create(base, {5, 1, 6});
  ASSERT_TRUE(subset.ok()) << subset.status();
  EXPECT_EQ(subset->num_subjects(), 3u);
  EXPECT_EQ(subset->subject_ids(),
            (std::vector<std::string>{"subject-5", "subject-1", "subject-6"}));
  linalg::Matrix tile;
  ASSERT_TRUE(subset->ReadColumns(0, 3, &tile).ok());
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(tile(i, 0), group.data()(i, 5));
    ASSERT_EQ(tile(i, 1), group.data()(i, 1));
    ASSERT_EQ(tile(i, 2), group.data()(i, 6));
  }
  EXPECT_EQ(connectome::SubsetColumnsStore::Create(base, {8}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- End-to-end attack parity -----------------------------------------------

class StreamedAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service::SyntheticGalleryConfig config;
    config.num_subjects = 10;
    config.num_features = 128;
    config.seed = 4242;
    auto known = service::MakeSyntheticGallery(config, 0);
    auto anonymous = service::MakeSyntheticGallery(config, 1);
    ASSERT_TRUE(known.ok() && anonymous.ok());
    known_ = std::move(known).value();
    anonymous_ = std::move(anonymous).value();
  }

  connectome::GroupMatrix known_;
  connectome::GroupMatrix anonymous_;
};

TEST_F(StreamedAttackTest, FitAndIdentifyMatchInRamBitwise) {
  core::AttackOptions options;
  options.num_features = 24;
  options.parallel.num_threads = 1;
  const auto oracle = core::DeanonymizationAttack::Fit(known_, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const auto oracle_result = oracle->Identify(anonymous_);
  ASSERT_TRUE(oracle_result.ok()) << oracle_result.status();

  const auto known_store = OpenFileStore(known_, "ooc_attack_known.npgm");
  const auto anon_store = OpenFileStore(anonymous_, "ooc_attack_anon.npgm");
  for (const std::size_t window : {std::size_t{1}, std::size_t{5},
                                   std::size_t{0}}) {
    for (const std::size_t threads : kThreadCounts) {
      core::AttackOptions streamed_options = options;
      streamed_options.parallel.num_threads = threads;
      connectome::StreamOptions stream;
      stream.window_cols = window;
      const auto attack = core::DeanonymizationAttack::FitStreamed(
          *known_store, streamed_options, stream);
      ASSERT_TRUE(attack.ok()) << attack.status();
      EXPECT_EQ(attack->selected_features(), oracle->selected_features());
      ASSERT_EQ(attack->leverage_scores().size(),
                oracle->leverage_scores().size());
      for (std::size_t i = 0; i < oracle->leverage_scores().size(); ++i) {
        ASSERT_EQ(attack->leverage_scores()[i], oracle->leverage_scores()[i])
            << "window " << window << " threads " << threads << " row " << i;
      }
      const auto result = attack->IdentifyStreamed(*anon_store, stream);
      ASSERT_TRUE(result.ok()) << result.status();
      ExpectBitIdentical(result->similarity, oracle_result->similarity,
                         "similarity window=" + std::to_string(window));
      EXPECT_EQ(result->predicted_index, oracle_result->predicted_index);
      EXPECT_EQ(result->predicted_ids, oracle_result->predicted_ids);
      EXPECT_EQ(result->accuracy, oracle_result->accuracy);
    }
  }
}

TEST_F(StreamedAttackTest, ScreeningReportsMatchUnderSkipAndReport) {
  // Poison one known and one anonymous column; the streamed screen must
  // produce the same report entries and the same surviving outputs.
  connectome::GroupMatrix bad_known = known_;
  connectome::GroupMatrix bad_anon = anonymous_;
  bad_known.mutable_data()(3, 2) = std::nan("");
  bad_anon.mutable_data()(7, 4) = std::nan("");

  core::AttackOptions options;
  options.num_features = 24;
  options.parallel.num_threads = 1;
  options.failure_policy = FailurePolicy::SkipAndReport();
  BatchReport fit_report_ram, fit_report_stream;
  const auto oracle =
      core::DeanonymizationAttack::Fit(bad_known, options, &fit_report_ram);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  const auto known_store = OpenFileStore(bad_known, "ooc_screen_known.npgm");
  const auto anon_store = OpenFileStore(bad_anon, "ooc_screen_anon.npgm");
  connectome::StreamOptions stream;
  stream.window_cols = 3;
  const auto attack = core::DeanonymizationAttack::FitStreamed(
      *known_store, options, stream, &fit_report_stream);
  ASSERT_TRUE(attack.ok()) << attack.status();
  ExpectSameReport(fit_report_ram, fit_report_stream);
  EXPECT_EQ(attack->selected_features(), oracle->selected_features());

  BatchReport id_report_ram, id_report_stream;
  const auto oracle_result = oracle->Identify(bad_anon, &id_report_ram);
  const auto result =
      attack->IdentifyStreamed(*anon_store, stream, &id_report_stream);
  ASSERT_TRUE(oracle_result.ok() && result.ok());
  ExpectSameReport(id_report_ram, id_report_stream);
  EXPECT_EQ(result->predicted_ids, oracle_result->predicted_ids);
  EXPECT_EQ(result->accuracy, oracle_result->accuracy);
}

TEST_F(StreamedAttackTest, ResidentStoreIsReadInPlaceUnlessWindowed) {
  core::AttackOptions options;
  options.num_features = 24;
  const auto known_file = OpenFileStore(known_, "ooc_resident_known.npgm");
  const auto anon_file = OpenFileStore(anonymous_, "ooc_resident_anon.npgm");
  const auto want_attack =
      core::DeanonymizationAttack::FitStreamed(*known_file, options);
  ASSERT_TRUE(want_attack.ok()) << want_attack.status();
  const auto want_result = want_attack->IdentifyStreamed(*anon_file);
  ASSERT_TRUE(want_result.ok()) << want_result.status();
  const auto want_scores = core::ComputeLeverageScoresStreamed(*known_file);
  ASSERT_TRUE(want_scores.ok()) << want_scores.status();

  for (const std::size_t window : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("window " + std::to_string(window));
    connectome::StreamOptions stream;
    stream.window_cols = window;
    const CountingResidentStore known(known_);
    const CountingResidentStore anonymous(anonymous_);
    const auto attack =
        core::DeanonymizationAttack::FitStreamed(known, options, stream);
    ASSERT_TRUE(attack.ok()) << attack.status();
    const auto result = attack->IdentifyStreamed(anonymous, stream);
    ASSERT_TRUE(result.ok()) << result.status();
    const CountingResidentStore leverage_store(known_);
    const auto scores =
        core::ComputeLeverageScoresStreamed(leverage_store, {}, stream);
    ASSERT_TRUE(scores.ok()) << scores.status();
    if (window == 0) {
      EXPECT_EQ(known.reads(), 0u);
      EXPECT_EQ(anonymous.reads(), 0u);
      EXPECT_EQ(leverage_store.reads(), 0u);
    } else {
      EXPECT_GT(known.reads(), 0u);
      EXPECT_GT(anonymous.reads(), 0u);
      EXPECT_GT(leverage_store.reads(), 0u);
    }

    EXPECT_EQ(attack->selected_features(), want_attack->selected_features());
    ASSERT_EQ(attack->leverage_scores().size(),
              want_attack->leverage_scores().size());
    for (std::size_t i = 0; i < want_scores->size(); ++i) {
      ASSERT_EQ(attack->leverage_scores()[i],
                want_attack->leverage_scores()[i])
          << "row " << i;
      ASSERT_EQ((*scores)[i], (*want_scores)[i]) << "row " << i;
    }
    ExpectBitIdentical(result->similarity, want_result->similarity,
                       "similarity");
    EXPECT_EQ(result->predicted_ids, want_result->predicted_ids);
    EXPECT_EQ(result->accuracy, want_result->accuracy);
  }
}

// --- Service enrollment parity ----------------------------------------------

class EnrollStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_subjects = 24;
    config_.num_features = 96;
    config_.seed = 777;
    auto reference = service::MakeSyntheticGallerySlice(config_, 0, 0, 8);
    auto batch = service::MakeSyntheticGallerySlice(config_, 0, 8, 24);
    ASSERT_TRUE(reference.ok() && batch.ok());
    reference_ = std::move(reference).value();
    batch_ = std::move(batch).value();
  }

  service::IndexOptions IndexOptionsFor(bool retain) const {
    service::IndexOptions options;
    options.num_features = 16;
    options.retain_full_columns = retain;
    options.parallel.num_threads = 2;
    return options;
  }

  service::SyntheticGalleryConfig config_;
  connectome::GroupMatrix reference_;
  connectome::GroupMatrix batch_;
};

TEST_F(EnrollStreamTest, MatchesEnrollBatchStateExactly) {
  for (const bool retain : {true, false}) {
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{5}, std::size_t{0}}) {
      auto a = service::IdentificationIndex::Create(reference_,
                                                    IndexOptionsFor(retain));
      auto b = service::IdentificationIndex::Create(reference_,
                                                    IndexOptionsFor(retain));
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_TRUE(a->EnrollBatch(batch_).ok());
      const connectome::InMemoryMatrixStore store(batch_);
      ASSERT_TRUE(b->EnrollStream(store, nullptr, window).ok());
      EXPECT_EQ(a->size(), b->size());
      EXPECT_EQ(a->sketch_staleness(), b->sketch_staleness());
      EXPECT_EQ(a->DebugStateString(), b->DebugStateString())
          << "retain=" << retain << " window=" << window;
    }
  }
}

TEST_F(EnrollStreamTest, FileBackedEnrollMatchesToo) {
  auto a = service::IdentificationIndex::Create(reference_,
                                                IndexOptionsFor(true));
  auto b = service::IdentificationIndex::Create(reference_,
                                                IndexOptionsFor(true));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->EnrollBatch(batch_).ok());
  const auto store = OpenFileStore(batch_, "ooc_enroll.npgm");
  ASSERT_TRUE(b->EnrollStream(*store, nullptr, 7).ok());
  EXPECT_EQ(a->DebugStateString(), b->DebugStateString());
}

TEST_F(EnrollStreamTest, ScreenAndReportMatchUnderSkipAndReport) {
  connectome::GroupMatrix bad = batch_;
  bad.mutable_data()(11, 3) = std::nan("");
  service::IndexOptions options = IndexOptionsFor(true);
  options.failure_policy = FailurePolicy::SkipAndReport();
  auto a = service::IdentificationIndex::Create(reference_, options);
  auto b = service::IdentificationIndex::Create(reference_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  // Pre-enroll one id of the batch so the duplicate screen fires too.
  ASSERT_TRUE(a->Enroll(bad.subject_ids()[5], bad.SubjectColumn(5)).ok());
  ASSERT_TRUE(b->Enroll(bad.subject_ids()[5], bad.SubjectColumn(5)).ok());
  BatchReport report_a, report_b;
  ASSERT_TRUE(a->EnrollBatch(bad, &report_a).ok());
  const connectome::InMemoryMatrixStore store(bad);
  ASSERT_TRUE(b->EnrollStream(store, &report_b, 4).ok());
  ExpectSameReport(report_a, report_b);
  ASSERT_EQ(report_b.failed.size(), 2u);
  EXPECT_EQ(a->DebugStateString(), b->DebugStateString());
}

TEST_F(EnrollStreamTest, DimensionMismatchAndFailFastLeaveIndexUntouched) {
  auto index = service::IdentificationIndex::Create(reference_,
                                                    IndexOptionsFor(true));
  ASSERT_TRUE(index.ok());
  const std::string before = index->DebugStateString();
  const connectome::GroupMatrix wrong = MakeGroup(12, 3, 40);
  const connectome::InMemoryMatrixStore wrong_store(wrong);
  EXPECT_EQ(index->EnrollStream(wrong_store).code(),
            StatusCode::kInvalidArgument);
  connectome::GroupMatrix bad = batch_;
  bad.mutable_data()(0, 0) = std::nan("");
  const connectome::InMemoryMatrixStore bad_store(bad);
  EXPECT_EQ(index->EnrollStream(bad_store).code(), StatusCode::kCorruptData);
  EXPECT_EQ(index->DebugStateString(), before);
}

TEST_F(EnrollStreamTest, ResidentStoreIsReadInPlaceUnlessWindowed) {
  auto want = service::IdentificationIndex::Create(reference_,
                                                   IndexOptionsFor(true));
  ASSERT_TRUE(want.ok()) << want.status();
  const auto file_store = OpenFileStore(batch_, "ooc_enroll_resident.npgm");
  ASSERT_TRUE(want->EnrollStream(*file_store).ok());
  for (const std::size_t window : {std::size_t{0}, std::size_t{3}}) {
    auto index = service::IdentificationIndex::Create(reference_,
                                                      IndexOptionsFor(true));
    ASSERT_TRUE(index.ok()) << index.status();
    const CountingResidentStore store(batch_);
    ASSERT_TRUE(index->EnrollStream(store, nullptr, window).ok());
    if (window == 0) {
      EXPECT_EQ(store.reads(), 0u);
    } else {
      EXPECT_GT(store.reads(), 0u);
    }
    EXPECT_EQ(index->DebugStateString(), want->DebugStateString())
        << "window " << window;
  }
}

// --- Bounded pipeline batches -----------------------------------------------

class BoundedPipelineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kRegions = 10;

  void SetUp() override {
    atlas::SyntheticAtlasConfig atlas_config;
    atlas_config.nx = 12;
    atlas_config.ny = 12;
    atlas_config.nz = 10;
    atlas_config.num_regions = kRegions;
    atlas_config.seed = 5;
    auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
    ASSERT_TRUE(atlas.ok());
    atlas_ = std::move(atlas).value();

    sim::CohortConfig cohort_config;
    cohort_config.num_subjects = 3;
    cohort_config.num_regions = kRegions;
    cohort_config.frames_override = 24;
    cohort_config.seed = 13;
    auto cohort = sim::CohortSimulator::Create(cohort_config);
    ASSERT_TRUE(cohort.ok());
    Rng rng(23);
    for (std::size_t s = 0; s < 3; ++s) {
      auto series = cohort->SimulateRegionSeries(s, sim::TaskType::kRest,
                                                 sim::Encoding::kLeftRight);
      ASSERT_TRUE(series.ok());
      auto run = sim::RenderVoxelRun(atlas_, *series, {}, rng);
      ASSERT_TRUE(run.ok());
      runs_.push_back(std::move(run).value());
    }
  }

  preprocess::PipelineConfig FastConfig() const {
    preprocess::PipelineConfig config;
    config.slice_time_correction = false;
    config.smoothing_fwhm_mm = 0.0;
    config.temporal_filter = preprocess::TemporalFilter::kNone;
    config.global_signal_regression = false;
    return config;
  }

  preprocess::RunSource SourceOverRuns() const {
    return [this](std::size_t i) -> Result<image::Volume4D> {
      return runs_[i];
    };
  }

  atlas::Atlas atlas_;
  std::vector<image::Volume4D> runs_;
};

TEST_F(BoundedPipelineTest, BoundedBatchMatchesVectorOverload) {
  const std::vector<std::string> ids{"run-a", "run-b", "run-c"};
  const preprocess::PipelineConfig config = FastConfig();
  const auto want = preprocess::RunPipelineBatch(runs_, ids, atlas_, config);
  ASSERT_TRUE(want.ok()) << want.status();
  for (const std::size_t in_flight :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    preprocess::PipelineConfig bounded = FastConfig();
    bounded.max_in_flight = in_flight;
    const auto got = preprocess::RunPipelineBatch(SourceOverRuns(), 3, ids,
                                                  atlas_, bounded);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->indices, want->indices);
    ExpectSameReport(want->report, got->report);
    ASSERT_EQ(got->outputs.size(), want->outputs.size());
    for (std::size_t k = 0; k < want->outputs.size(); ++k) {
      ExpectBitIdentical(got->outputs[k].region_series,
                         want->outputs[k].region_series,
                         "run " + std::to_string(k) + " in_flight=" +
                             std::to_string(in_flight));
      EXPECT_EQ(got->outputs[k].degraded_frames,
                want->outputs[k].degraded_frames);
    }
  }
}

TEST_F(BoundedPipelineTest, LoadFailureIsReportedAtStageLoad) {
  const std::vector<std::string> ids{"run-a", "run-b", "run-c"};
  preprocess::PipelineConfig config = FastConfig();
  config.failure_policy = FailurePolicy::SkipAndReport();
  config.max_in_flight = 1;
  const preprocess::RunSource source =
      [this](std::size_t i) -> Result<image::Volume4D> {
    if (i == 1) return Status::IOError("decode failed (synthetic)");
    return runs_[i];
  };
  const auto got = preprocess::RunPipelineBatch(source, 3, ids, atlas_, config);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->indices, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(got->report.failed.size(), 1u);
  EXPECT_EQ(got->report.failed[0].index, 1u);
  EXPECT_EQ(got->report.failed[0].id, "run-b");
  EXPECT_EQ(got->report.failed[0].stage, "load");
  EXPECT_EQ(got->report.failed[0].status.code(), StatusCode::kIOError);

  // Fail-fast propagates the load error directly.
  preprocess::PipelineConfig fail_fast = FastConfig();
  fail_fast.max_in_flight = 1;
  const auto failed =
      preprocess::RunPipelineBatch(source, 3, ids, atlas_, fail_fast);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
}

TEST_F(BoundedPipelineTest, NullSourceIsInvalidArgument) {
  const auto got = preprocess::RunPipelineBatch(preprocess::RunSource(), 2, {},
                                                atlas_, FastConfig());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace neuroprint
