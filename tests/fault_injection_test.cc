// Acceptance tests for the robustness layer: seeded fault injection
// driving partial-failure batch semantics end to end. The headline case
// is the ISSUE-5 scenario — a 12-subject cohort with 2 subjects
// fault-injected (one corrupt-read error, one all-NaN scan) must complete
// under skip-and-report with the remaining 10 subjects bit-identical (at
// 1, 2, and 8 threads) to a clean run restricted to the same subjects,
// while fail-fast surfaces the lowest-index subject's error.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "connectome/group_matrix.h"
#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "nifti/nifti_io.h"
#include "preprocess/pipeline.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/batch.h"
#include "util/fault.h"
#include "util/random.h"

namespace neuroprint {
namespace {

// Subject index 2 ("S0003") fails the simulate stage with an injected
// read error; subject index 7 ("S0008") produces an all-NaN scan, caught
// by the validate stage. Keyed rules stay deterministic at any thread
// count.
constexpr char kCohortSchedule[] =
    "cohort.simulate_scan#2=error:CorruptData:truncated gzip stream "
    "(injected);"
    "cohort.simulate_scan#7=nan";

sim::CohortConfig SmallCohortConfig() {
  sim::CohortConfig config;
  config.num_subjects = 12;
  config.num_regions = 16;
  config.frames_override = 60;
  config.seed = 99;
  return config;
}

void ExpectBitIdentical(const connectome::GroupMatrix& a,
                        const connectome::GroupMatrix& b) {
  ASSERT_EQ(a.num_features(), b.num_features());
  ASSERT_EQ(a.num_subjects(), b.num_subjects());
  EXPECT_EQ(a.subject_ids(), b.subject_ids());
  for (std::size_t j = 0; j < a.num_subjects(); ++j) {
    const linalg::Vector col_a = a.SubjectColumn(j);
    const linalg::Vector col_b = b.SubjectColumn(j);
    ASSERT_EQ(col_a.size(), col_b.size());
    for (std::size_t i = 0; i < col_a.size(); ++i) {
      ASSERT_EQ(col_a[i], col_b[i]) << "subject " << j << " feature " << i;
    }
  }
}

TEST(FaultInjectionCohortTest, SkipAndReportSurvivorsBitIdenticalAcrossThreads) {
  // Clean 12-subject run, restricted to the 10 subjects that survive the
  // injected schedule — the bitwise reference for every faulted run.
  auto clean_sim = sim::CohortSimulator::Create(SmallCohortConfig());
  ASSERT_TRUE(clean_sim.ok()) << clean_sim.status();
  auto clean = clean_sim->BuildGroupMatrix(sim::TaskType::kRest,
                                           sim::Encoding::kLeftRight);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const std::vector<std::size_t> survivors{0, 1, 3, 4, 5, 6, 8, 9, 10, 11};
  auto reference = clean->RestrictToSubjects(survivors);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    sim::CohortConfig config = SmallCohortConfig();
    config.failure_policy = FailurePolicy::SkipAndReport();
    config.fault.schedule = kCohortSchedule;
    config.parallel.num_threads = threads;
    auto faulted_sim = sim::CohortSimulator::Create(config);
    ASSERT_TRUE(faulted_sim.ok()) << faulted_sim.status();

    BatchReport report;
    auto faulted = faulted_sim->BuildGroupMatrixWithReport(
        sim::TaskType::kRest, sim::Encoding::kLeftRight,
        /*multisite_noise_fraction=*/0.0, &report);
    ASSERT_TRUE(faulted.ok()) << faulted.status();
    ExpectBitIdentical(*faulted, *reference);

    // The report names both failures with their stages, ascending index.
    EXPECT_EQ(report.attempted, 12u);
    ASSERT_EQ(report.failed.size(), 2u) << report.ToString();
    EXPECT_EQ(report.num_succeeded(), 10u);
    EXPECT_EQ(report.failed[0].index, 2u);
    EXPECT_EQ(report.failed[0].id, "S0003");
    EXPECT_EQ(report.failed[0].stage, "simulate");
    EXPECT_EQ(report.failed[0].status.code(), StatusCode::kCorruptData);
    EXPECT_NE(report.failed[0].status.message().find(
                  "truncated gzip stream (injected)"),
              std::string::npos);
    EXPECT_EQ(report.failed[1].index, 7u);
    EXPECT_EQ(report.failed[1].id, "S0008");
    EXPECT_EQ(report.failed[1].stage, "validate");
    EXPECT_EQ(report.failed[1].status.code(), StatusCode::kCorruptData);
  }
}

TEST(FaultInjectionCohortTest, FailFastReturnsLowestIndexSubjectError) {
  sim::CohortConfig config = SmallCohortConfig();
  config.failure_policy = FailurePolicy::FailFast();
  config.fault.schedule = kCohortSchedule;
  config.parallel.num_threads = 4;
  auto simulator = sim::CohortSimulator::Create(config);
  ASSERT_TRUE(simulator.ok());
  const auto result = simulator->BuildGroupMatrix(sim::TaskType::kRest,
                                                  sim::Encoding::kLeftRight);
  ASSERT_FALSE(result.ok());
  // Subject 2's simulate-stage error, not subject 7's validate error —
  // lowest index wins deterministically even with both firing in parallel.
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(
      result.status().message().find("truncated gzip stream (injected)"),
      std::string::npos)
      << result.status();
}

TEST(FaultInjectionCohortTest, QuorumPolicyGatesOnSurvivorFraction) {
  sim::CohortConfig config = SmallCohortConfig();
  config.fault.schedule = kCohortSchedule;

  // 10/12 survivors = 0.833: a 0.9 quorum fails the whole batch...
  config.failure_policy = FailurePolicy::Quorum(0.9);
  auto strict_sim = sim::CohortSimulator::Create(config);
  ASSERT_TRUE(strict_sim.ok());
  BatchReport strict_report;
  const auto strict = strict_sim->BuildGroupMatrixWithReport(
      sim::TaskType::kRest, sim::Encoding::kLeftRight, 0.0, &strict_report);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(strict.status().message().find("quorum"), std::string::npos);
  // The aggregate error carries the per-item accounting.
  EXPECT_NE(strict.status().message().find("S0003"), std::string::npos);

  // ...while a 0.8 quorum passes with the same survivors.
  config.failure_policy = FailurePolicy::Quorum(0.8);
  auto lenient_sim = sim::CohortSimulator::Create(config);
  ASSERT_TRUE(lenient_sim.ok());
  const auto lenient = lenient_sim->BuildGroupMatrixWithReport(
      sim::TaskType::kRest, sim::Encoding::kLeftRight, 0.0, nullptr);
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  EXPECT_EQ(lenient->num_subjects(), 10u);
}

// --- Attack-level screening -------------------------------------------------

connectome::GroupMatrix MakeGroup(std::size_t features, std::size_t subjects,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Vector> columns(subjects);
  std::vector<std::string> ids;
  for (std::size_t j = 0; j < subjects; ++j) {
    columns[j].resize(features);
    for (double& v : columns[j]) v = rng.Gaussian();
    ids.push_back("subj-" + std::to_string(j));
  }
  return *connectome::GroupMatrix::FromFeatureColumns(columns, ids);
}

connectome::GroupMatrix PoisonSubject(const connectome::GroupMatrix& group,
                                      std::size_t subject) {
  std::vector<linalg::Vector> columns;
  for (std::size_t j = 0; j < group.num_subjects(); ++j) {
    linalg::Vector column = group.SubjectColumn(j);
    if (j == subject) {
      column[column.size() / 2] = std::numeric_limits<double>::quiet_NaN();
    }
    columns.push_back(std::move(column));
  }
  return *connectome::GroupMatrix::FromFeatureColumns(columns,
                                                      group.subject_ids());
}

TEST(FaultInjectionAttackTest, FitScreensUnusableSubjectsUnderSkipPolicy) {
  const connectome::GroupMatrix known = MakeGroup(64, 8, 31);
  const connectome::GroupMatrix poisoned = PoisonSubject(known, 3);

  core::AttackOptions fail_fast;
  fail_fast.num_features = 16;
  const auto strict = core::DeanonymizationAttack::Fit(poisoned, fail_fast);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruptData);

  core::AttackOptions skip;
  skip.num_features = 16;
  skip.failure_policy = FailurePolicy::SkipAndReport();
  BatchReport report;
  const auto attack = core::DeanonymizationAttack::Fit(poisoned, skip, &report);
  ASSERT_TRUE(attack.ok()) << attack.status();
  EXPECT_EQ(report.attempted, 8u);
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].index, 3u);
  EXPECT_EQ(report.failed[0].id, "subj-3");
  EXPECT_EQ(report.failed[0].stage, "fit_screen");
}

TEST(FaultInjectionAttackTest, IdentifyScreensAndCoversSurvivorsOnly) {
  const connectome::GroupMatrix known = MakeGroup(64, 8, 31);
  core::AttackOptions options;
  options.num_features = 16;
  options.failure_policy = FailurePolicy::SkipAndReport();
  const auto attack = core::DeanonymizationAttack::Fit(known, options);
  ASSERT_TRUE(attack.ok()) << attack.status();

  const connectome::GroupMatrix poisoned = PoisonSubject(known, 5);
  BatchReport report;
  const auto result = attack->Identify(poisoned, &report);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].id, "subj-5");
  EXPECT_EQ(report.failed[0].stage, "identify_screen");
  // Survivor coverage: 7 predictions, all correct on self-identification.
  EXPECT_EQ(result->predicted_ids.size(), 7u);
  EXPECT_DOUBLE_EQ(result->accuracy, 1.0);
}

// Non-finite values at the screen's row boundaries: row 0, the last row,
// and either side of row 2048 (the screen walks rows in 2048-row chunks,
// and a power-of-two chunk of any smaller size also ends there).
connectome::GroupMatrix PoisonBoundaries(const connectome::GroupMatrix& group) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t last = group.num_features() - 1;
  struct Poison {
    std::size_t row, column;
    double value;
  };
  const Poison poison[] = {{0, 1, kInf},     {0, 2, kNan},
                           {2047, 4, -kInf}, {2048, 4, kInf},
                           {2048, 5, kNan},  {last, 7, -kInf},
                           {last, 10, kNan}};
  std::vector<linalg::Vector> columns;
  for (std::size_t j = 0; j < group.num_subjects(); ++j) {
    columns.push_back(group.SubjectColumn(j));
  }
  for (const Poison& p : poison) columns[p.column][p.row] = p.value;
  return *connectome::GroupMatrix::FromFeatureColumns(columns,
                                                      group.subject_ids());
}

// Runs the resident store and a FileMatrixStore read 3 columns at a time.
template <typename Fn>
void ForResidentAndFileStores(const connectome::GroupMatrix& group,
                              const std::string& name, const Fn& fn) {
  fn(connectome::InMemoryMatrixStore(group), connectome::StreamOptions{});
  const std::string path = ::testing::TempDir() + "/" + name;
  ASSERT_TRUE(connectome::WriteGroupMatrix(path, group).ok());
  auto file = connectome::FileMatrixStore::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  connectome::StreamOptions windowed;
  windowed.window_cols = 3;
  fn(**file, windowed);
}

void ExpectBoundaryScreenReport(const BatchReport& report, const char* stage) {
  const std::vector<std::size_t> bad{1, 2, 4, 5, 7, 10};
  EXPECT_EQ(report.attempted, 12u);
  ASSERT_EQ(report.failed.size(), bad.size());
  for (std::size_t f = 0; f < bad.size(); ++f) {
    const BatchItemReport& item = report.failed[f];
    const std::string id = "subj-" + std::to_string(bad[f]);
    EXPECT_EQ(item.index, bad[f]);
    EXPECT_EQ(item.id, id);
    EXPECT_EQ(item.stage, stage);
    EXPECT_EQ(item.status.code(), StatusCode::kCorruptData);
    EXPECT_EQ(item.status.message(),
              "subject " + id + " has non-finite feature values");
  }
}

TEST(FaultInjectionAttackTest, ScreenReportsRowBoundaryPoisonInColumnOrder) {
  const connectome::GroupMatrix known = MakeGroup(2 * 2048 + 3, 12, 47);
  const connectome::GroupMatrix poisoned = PoisonBoundaries(known);
  const std::vector<std::size_t> survivors{0, 3, 6, 8, 9, 11};
  const auto clean_survivors = known.RestrictToSubjects(survivors);
  ASSERT_TRUE(clean_survivors.ok()) << clean_survivors.status();
  core::AttackOptions reference_options;
  reference_options.num_features = 32;
  const auto reference =
      core::DeanonymizationAttack::Fit(*clean_survivors, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::AttackOptions options = reference_options;
    options.parallel.num_threads = threads;
    options.failure_policy = FailurePolicy::SkipAndReport();
    core::AttackOptions fail_fast = options;
    fail_fast.failure_policy = FailurePolicy::FailFast();
    const auto clean_attack = core::DeanonymizationAttack::Fit(known, options);
    ASSERT_TRUE(clean_attack.ok()) << clean_attack.status();
    const auto strict_attack =
        core::DeanonymizationAttack::Fit(known, fail_fast);
    ASSERT_TRUE(strict_attack.ok()) << strict_attack.status();

    ForResidentAndFileStores(
        poisoned, "screen_boundaries.npgm",
        [&](const connectome::MatrixStore& store,
            const connectome::StreamOptions& stream) {
          SCOPED_TRACE(stream.window_cols == 0 ? "resident" : "file");
          // Fit: the same scores and features as a clean fit of the
          // survivors.
          BatchReport report;
          const auto attack = core::DeanonymizationAttack::FitStreamed(
              store, options, stream, &report);
          ASSERT_TRUE(attack.ok()) << attack.status();
          ExpectBoundaryScreenReport(report, "fit_screen");
          EXPECT_EQ(attack->leverage_scores(), reference->leverage_scores());
          EXPECT_EQ(attack->selected_features(),
                    reference->selected_features());

          BatchReport strict_report;
          const auto strict = core::DeanonymizationAttack::FitStreamed(
              store, fail_fast, stream, &strict_report);
          ASSERT_FALSE(strict.ok());
          ExpectBoundaryScreenReport(strict_report, "fit_screen");
          EXPECT_EQ(strict.status().code(), StatusCode::kCorruptData);
          EXPECT_EQ(strict.status().message(),
                    "subject subj-1 has non-finite feature values");

          // Identify: only the survivors are matched, each to itself.
          BatchReport identify_report;
          const auto result =
              clean_attack->IdentifyStreamed(store, stream, &identify_report);
          ASSERT_TRUE(result.ok()) << result.status();
          ExpectBoundaryScreenReport(identify_report, "identify_screen");
          std::vector<std::string> survivor_ids;
          for (std::size_t j : survivors) {
            survivor_ids.push_back(known.subject_ids()[j]);
          }
          EXPECT_EQ(result->predicted_ids, survivor_ids);

          BatchReport strict_identify_report;
          const auto strict_result = strict_attack->IdentifyStreamed(
              store, stream, &strict_identify_report);
          ASSERT_FALSE(strict_result.ok());
          ExpectBoundaryScreenReport(strict_identify_report,
                                     "identify_screen");
          EXPECT_EQ(strict_result.status().code(), StatusCode::kCorruptData);
          EXPECT_EQ(strict_result.status().message(),
                    "subject subj-1 has non-finite feature values");
        });
  }
}

TEST(FaultInjectionAttackTest, InjectedFitPointFailsTheFit) {
  const connectome::GroupMatrix known = MakeGroup(32, 4, 17);
  core::AttackOptions options;
  options.num_features = 8;
  options.fault.schedule = "attack.fit=error:NotConverged:injected";
  const auto attack = core::DeanonymizationAttack::Fit(known, options);
  ASSERT_FALSE(attack.ok());
  EXPECT_EQ(attack.status().code(), StatusCode::kNotConverged);
}

// --- Pipeline-level degradation and batches ---------------------------------

class FaultInjectionPipelineTest : public ::testing::Test {
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

  atlas::Atlas atlas_;
  std::vector<image::Volume4D> runs_;
};

TEST_F(FaultInjectionPipelineTest, MotionFailureDegradesToIdentityUnderSkip) {
  preprocess::PipelineConfig config = FastConfig();
  config.failure_policy = FailurePolicy::SkipAndReport();
  config.fault.schedule = "pipeline.motion_correct#3=error";
  const auto output = preprocess::RunPipeline(runs_[0], atlas_, config);
  ASSERT_TRUE(output.ok()) << output.status();
  // Frame 3 fell back to the identity transform and was recorded.
  ASSERT_EQ(output->degraded_frames.size(), 1u);
  EXPECT_EQ(output->degraded_frames[0], 3u);
  ASSERT_GT(output->motion.size(), 3u);
  EXPECT_EQ(output->motion[3].translate_x, 0.0);
  EXPECT_EQ(output->motion[3].rotate_z, 0.0);
  EXPECT_EQ(output->region_series.rows(), kRegions);
}

TEST_F(FaultInjectionPipelineTest, MotionFailureFailsFastByDefault) {
  preprocess::PipelineConfig config = FastConfig();
  config.fault.schedule = "pipeline.motion_correct#3=error:Internal:injected";
  const auto output = preprocess::RunPipeline(runs_[0], atlas_, config);
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kInternal);
}

// Frames register in parallel; keyed points and the per-frame flags keep
// both policies' outcomes independent of the thread count.
TEST_F(FaultInjectionPipelineTest, DegradedFramesAreAscendingAtAnyThreadCount) {
  for (const std::size_t threads : {1, 8}) {
    preprocess::PipelineConfig config = FastConfig();
    config.parallel.num_threads = threads;
    config.failure_policy = FailurePolicy::SkipAndReport();
    config.fault.schedule =
        "pipeline.motion_correct#3=error;pipeline.motion_correct#7=error";
    const auto output = preprocess::RunPipeline(runs_[0], atlas_, config);
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(output->degraded_frames, (std::vector<std::size_t>{3, 7}))
        << threads << " threads";
  }
}

TEST_F(FaultInjectionPipelineTest, FailFastReturnsLowestFailingFrame) {
  for (const std::size_t threads : {1, 8}) {
    preprocess::PipelineConfig config = FastConfig();
    config.parallel.num_threads = threads;
    config.fault.schedule =
        "pipeline.motion_correct#7=error:Internal:frame seven;"
        "pipeline.motion_correct#3=error:CorruptData:frame three";
    const auto output = preprocess::RunPipeline(runs_[0], atlas_, config);
    ASSERT_FALSE(output.ok());
    EXPECT_EQ(output.status().code(), StatusCode::kCorruptData)
        << threads << " threads";
    EXPECT_NE(output.status().message().find("frame three"),
              std::string::npos)
        << output.status();
  }
}

TEST_F(FaultInjectionPipelineTest, BatchSkipsFailedRunAndReportsIt) {
  preprocess::PipelineConfig config = FastConfig();
  config.failure_policy = FailurePolicy::SkipAndReport();
  config.fault.schedule =
      "pipeline.batch_item#1=error:IOError:disk error (injected)";
  const std::vector<std::string> ids{"run-a", "run-b", "run-c"};
  const auto batch =
      preprocess::RunPipelineBatch(runs_, ids, atlas_, config);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->outputs.size(), 2u);
  EXPECT_EQ(batch->indices, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(batch->report.failed.size(), 1u);
  EXPECT_EQ(batch->report.failed[0].index, 1u);
  EXPECT_EQ(batch->report.failed[0].id, "run-b");
  EXPECT_EQ(batch->report.failed[0].status.code(), StatusCode::kIOError);

  // Survivors match standalone runs of the same pipeline (no cross-talk
  // from the failed item).
  preprocess::PipelineConfig clean = FastConfig();
  const auto solo = preprocess::RunPipeline(runs_[2], atlas_, clean);
  ASSERT_TRUE(solo.ok());
  const linalg::Matrix& batched = batch->outputs[1].region_series;
  ASSERT_EQ(batched.rows(), solo->region_series.rows());
  ASSERT_EQ(batched.cols(), solo->region_series.cols());
  for (std::size_t r = 0; r < batched.rows(); ++r) {
    for (std::size_t t = 0; t < batched.cols(); ++t) {
      ASSERT_EQ(batched(r, t), solo->region_series(r, t));
    }
  }
}

TEST_F(FaultInjectionPipelineTest, BatchFailsFastOnLowestIndexFailure) {
  preprocess::PipelineConfig config = FastConfig();
  config.fault.schedule =
      "pipeline.batch_item#1=error:IOError:first;"
      "pipeline.batch_item#2=error:Internal:second";
  const std::vector<std::string> ids;
  const auto batch = preprocess::RunPipelineBatch(runs_, ids, atlas_, config);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kIOError);
  EXPECT_EQ(batch.status().message(), "first");
}

TEST_F(FaultInjectionPipelineTest, AllItemsFailingIsAnErrorEvenUnderSkip) {
  preprocess::PipelineConfig config = FastConfig();
  config.failure_policy = FailurePolicy::SkipAndReport();
  config.fault.schedule = "pipeline.batch_item=error";
  const std::vector<std::string> ids;
  const auto batch = preprocess::RunPipelineBatch(runs_, ids, atlas_, config);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
}

// --- NIfTI read-path injection ----------------------------------------------

TEST(FaultInjectionNiftiTest, ReadPointInjectsBeforeTouchingDisk) {
  fault::ScopedSchedule scoped("nifti.read=error:IOError:injected read fail");
  ASSERT_TRUE(scoped.status().ok());
  // The injection fires before any filesystem access, so the injected
  // message comes back instead of the missing-file error.
  const auto image = nifti::ReadNifti("/nonexistent/fault-injected.nii");
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kIOError);
  EXPECT_EQ(image.status().message(), "injected read fail");
}

// ---------------------------------------------------------------------------
// Identification service: faulted enrollment and probing

service::SyntheticGalleryConfig ServiceGallery() {
  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = 22;
  gallery.num_features = 48;
  gallery.seed = 0xfa017ULL;
  return gallery;
}

TEST(FaultInjectionServiceTest, FaultedEnrollmentSurvivorsBitIdentical) {
  // Two of ten enrolled subjects fault (one injected read error, one
  // all-NaN column): skip-and-report must drop exactly those two and
  // leave the index bit-identical to a clean enrollment of the other
  // eight.
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto tail = service::MakeSyntheticGallerySlice(gallery, 0, 12, 22);
  ASSERT_TRUE(reference.ok() && tail.ok());

  service::IndexOptions skip;
  skip.num_features = 24;
  skip.failure_policy = FailurePolicy::SkipAndReport();
  auto faulted = service::IdentificationIndex::Create(*reference, skip);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  {
    fault::ScopedSchedule schedule(
        "service.enroll#2=error:CorruptData:injected scanner fault;"
        "service.enroll#7=nan");
    ASSERT_TRUE(schedule.status().ok());
    BatchReport report;
    ASSERT_TRUE(faulted->EnrollBatch(*tail, &report).ok());
    EXPECT_EQ(report.attempted, 10u);
    ASSERT_EQ(report.failed.size(), 2u);
    EXPECT_EQ(report.failed[0].index, 2u);
    EXPECT_EQ(report.failed[0].id, tail->subject_ids()[2]);
    EXPECT_EQ(report.failed[0].stage, "enroll_screen");
    EXPECT_EQ(report.failed[0].status.code(), StatusCode::kCorruptData);
    EXPECT_EQ(report.failed[1].index, 7u);
    EXPECT_EQ(report.failed[1].status.code(), StatusCode::kCorruptData);
  }
  EXPECT_EQ(faulted->size(), 20u);

  auto clean = service::IdentificationIndex::Create(*reference, skip);
  ASSERT_TRUE(clean.ok());
  auto restricted = tail->RestrictToSubjects({0, 1, 3, 4, 5, 6, 8, 9});
  ASSERT_TRUE(restricted.ok());
  ASSERT_TRUE(clean->EnrollBatch(*restricted).ok());
  EXPECT_EQ(faulted->DebugStateString(), clean->DebugStateString());
}

TEST(FaultInjectionServiceTest, FaultedEnrollmentFailsFastAndLeavesIndex) {
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto tail = service::MakeSyntheticGallerySlice(gallery, 0, 12, 22);
  ASSERT_TRUE(reference.ok() && tail.ok());

  service::IndexOptions strict;
  strict.num_features = 24;  // Default policy: fail fast.
  auto index = service::IdentificationIndex::Create(*reference, strict);
  ASSERT_TRUE(index.ok());
  const std::string before = index->DebugStateString();
  {
    fault::ScopedSchedule schedule(
        "service.enroll#3=error:CorruptData:injected scanner fault");
    ASSERT_TRUE(schedule.status().ok());
    const Status status = index->EnrollBatch(*tail);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kCorruptData);
  }
  // Fail-fast is atomic: no partial batch was committed.
  EXPECT_EQ(index->size(), 12u);
  EXPECT_EQ(index->DebugStateString(), before);
}

TEST(FaultInjectionServiceTest, FaultedProbeIsScreenedUnderSkipPolicy) {
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 22);
  ASSERT_TRUE(reference.ok());
  service::IndexOptions skip;
  skip.num_features = 24;
  skip.failure_policy = FailurePolicy::SkipAndReport();
  auto index = service::IdentificationIndex::Create(*reference, skip);
  ASSERT_TRUE(index.ok());

  auto probes = service::MakeSyntheticGallerySlice(gallery, 1, 0, 6);
  ASSERT_TRUE(probes.ok());
  fault::ScopedSchedule schedule("service.probe#1=nan");
  ASSERT_TRUE(schedule.status().ok());
  BatchReport report;
  auto result = index->IdentifyBatch(*probes, &report);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(report.attempted, 6u);
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].index, 1u);
  EXPECT_EQ(report.failed[0].stage, "probe_screen");
  // Survivors cover the other five probes, all correctly identified.
  ASSERT_EQ(result->matches.size(), 5u);
  EXPECT_DOUBLE_EQ(result->accuracy, 1.0);
  for (std::size_t p = 0; p < result->matches.size(); ++p) {
    EXPECT_EQ(result->matches[p].subject_id, result->probe_ids[p]);
  }
}

TEST(FaultInjectionServiceTest, SingleProbeIsBatchProbeZero) {
  // Identify runs its probe as a one-column batch, so `service.probe#0`
  // poisons it exactly as it poisons batch probe 0, under every policy,
  // while a rule keyed to another probe never reaches it.
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 22);
  auto probes = service::MakeSyntheticGallerySlice(gallery, 1, 0, 6);
  ASSERT_TRUE(reference.ok() && probes.ok());
  for (const FailurePolicy& policy :
       {FailurePolicy::FailFast(), FailurePolicy::SkipAndReport()}) {
    SCOPED_TRACE(FailureModeName(policy.mode));
    service::IndexOptions options;
    options.num_features = 24;
    options.failure_policy = policy;
    auto index = service::IdentificationIndex::Create(*reference, options);
    ASSERT_TRUE(index.ok()) << index.status();
    {
      fault::ScopedSchedule schedule("service.probe#0=nan");
      ASSERT_TRUE(schedule.status().ok());
      BatchReport report;
      const auto batch = index->IdentifyBatch(*probes, &report);
      ASSERT_EQ(report.failed.size(), 1u);
      EXPECT_EQ(report.failed[0].index, 0u);
      EXPECT_EQ(report.failed[0].status.code(), StatusCode::kCorruptData);
      EXPECT_EQ(batch.ok(), policy.mode != FailureMode::kFailFast);
      const auto single = index->Identify(probes->SubjectColumn(0));
      EXPECT_EQ(single.status().code(), StatusCode::kCorruptData);
    }
    fault::ScopedSchedule schedule("service.probe#1=nan");
    ASSERT_TRUE(schedule.status().ok());
    const auto single = index->Identify(probes->SubjectColumn(1));
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(single->subject_id, probes->subject_ids()[1]);
  }
}

TEST(FaultInjectionServiceTest, SingleEnrollIsBatchItemZero) {
  // Enroll runs its subject as a one-column batch, so `service.enroll#0`
  // reaches it exactly as it reaches batch item 0, and under every policy
  // the call fails with the subject's own status and leaves the index
  // untouched. The old per-subject key (the id hash) no longer matches.
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto tail = service::MakeSyntheticGallerySlice(gallery, 0, 12, 22);
  ASSERT_TRUE(reference.ok() && tail.ok());
  const std::string id = tail->subject_ids()[0];
  const linalg::Vector column = tail->SubjectColumn(0);
  for (const FailurePolicy& policy :
       {FailurePolicy::FailFast(), FailurePolicy::SkipAndReport(),
        FailurePolicy::Quorum(0.5)}) {
    SCOPED_TRACE(FailureModeName(policy.mode));
    service::IndexOptions options;
    options.num_features = 24;
    options.failure_policy = policy;
    auto index = service::IdentificationIndex::Create(*reference, options);
    ASSERT_TRUE(index.ok()) << index.status();
    const std::string before = index->DebugStateString();
    {
      fault::ScopedSchedule schedule(
          "service.enroll#0=error:IOError:injected scanner fault");
      ASSERT_TRUE(schedule.status().ok());
      const Status status = index->Enroll(id, column);
      EXPECT_EQ(status.code(), StatusCode::kIOError);
      EXPECT_EQ(status.message(), "injected scanner fault");
    }
    {
      fault::ScopedSchedule schedule("service.enroll#0=nan");
      ASSERT_TRUE(schedule.status().ok());
      EXPECT_EQ(index->Enroll(id, column).code(), StatusCode::kCorruptData);
    }
    // The screen's own verdicts keep their codes too.
    linalg::Vector poisoned = column;
    poisoned[3] = std::numeric_limits<double>::infinity();
    EXPECT_EQ(index->Enroll(id, poisoned).code(), StatusCode::kCorruptData);
    EXPECT_EQ(index->Enroll(reference->subject_ids()[0],
                            reference->SubjectColumn(0))
                  .code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(index->Enroll(id, linalg::Vector(5, 1.0)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index->DebugStateString(), before);

    fault::ScopedSchedule schedule(
        "service.enroll#1=nan;service.enroll#" +
        std::to_string(service::SubjectHash(id)) + "=nan");
    ASSERT_TRUE(schedule.status().ok());
    ASSERT_TRUE(index->Enroll(id, column).ok());
    EXPECT_TRUE(index->Contains(id));
  }
}

// ---------------------------------------------------------------------------
// Out-of-core fault points: `io.stream` (file-backed tile reads) and
// `io.spill` (spill-file append / read-back).

std::string OutOfCoreTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FaultInjectionOutOfCoreTest, StreamPointInjectsErrorIntoFileReads) {
  const auto gallery = ServiceGallery();
  auto group = service::MakeSyntheticGallerySlice(gallery, 0, 0, 6);
  ASSERT_TRUE(group.ok());
  const std::string path = OutOfCoreTempPath("fault_stream.npgm");
  ASSERT_TRUE(connectome::WriteGroupMatrix(path, *group).ok());
  auto store = connectome::FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();

  {
    fault::ScopedSchedule schedule(
        "io.stream#2=error:IOError:injected stream error");
    ASSERT_TRUE(schedule.status().ok());
    linalg::Matrix tile;
    // Columns before the poisoned one still read.
    EXPECT_TRUE((*store)->ReadColumns(0, 2, &tile).ok());
    const Status hit = (*store)->ReadColumns(0, 6, &tile);
    EXPECT_EQ(hit.code(), StatusCode::kIOError);
    EXPECT_EQ(hit.message(), "injected stream error");
  }

  // The streamed fit propagates an injected store failure regardless of
  // the failure policy: the store, not a subject, failed.
  core::AttackOptions options;
  options.num_features = 16;
  options.failure_policy = FailurePolicy::SkipAndReport();
  options.fault.schedule = "io.stream#1=error:IOError:stream died (injected)";
  const auto attack =
      core::DeanonymizationAttack::FitStreamed(**store, options);
  ASSERT_FALSE(attack.ok());
  EXPECT_EQ(attack.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionOutOfCoreTest, StreamPointNanIsScreenedLikeCorruptData) {
  const auto gallery = ServiceGallery();
  auto group = service::MakeSyntheticGallerySlice(gallery, 0, 0, 6);
  ASSERT_TRUE(group.ok());
  const std::string path = OutOfCoreTempPath("fault_stream_nan.npgm");
  ASSERT_TRUE(connectome::WriteGroupMatrix(path, *group).ok());
  auto store = connectome::FileMatrixStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();

  core::AttackOptions options;
  options.num_features = 12;
  options.failure_policy = FailurePolicy::SkipAndReport();
  options.fault.schedule = "io.stream#1=nan";
  BatchReport report;
  const auto attack = core::DeanonymizationAttack::FitStreamed(
      **store, options, {}, &report);
  ASSERT_TRUE(attack.ok()) << attack.status();
  EXPECT_EQ(report.attempted, 6u);
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].index, 1u);
  EXPECT_EQ(report.failed[0].stage, "fit_screen");
  EXPECT_EQ(report.failed[0].status.code(), StatusCode::kCorruptData);
}

TEST(FaultInjectionOutOfCoreTest, SpillWriteFailureLeavesIndexUntouched) {
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto tail = service::MakeSyntheticGallerySlice(gallery, 0, 12, 22);
  ASSERT_TRUE(reference.ok() && tail.ok());
  service::IndexOptions options;
  options.num_features = 24;
  options.failure_policy = FailurePolicy::SkipAndReport();
  auto index = service::IdentificationIndex::Create(*reference, options);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string before = index->DebugStateString();

  // A resident store stages in RAM and never spills; a file-backed store
  // over the same columns does.
  const std::string path = OutOfCoreTempPath("fault_spill_write.npgm");
  ASSERT_TRUE(connectome::WriteGroupMatrix(path, *tail).ok());
  auto file_store = connectome::FileMatrixStore::Open(path);
  ASSERT_TRUE(file_store.ok()) << file_store.status();
  const connectome::MatrixStore& store = **file_store;
  {
    fault::ScopedSchedule schedule(
        "io.spill#1=error:IOError:spill device full (injected)");
    ASSERT_TRUE(schedule.status().ok());
    const Status status = index->EnrollStream(store);
    EXPECT_EQ(status.code(), StatusCode::kIOError);
  }
  EXPECT_EQ(index->DebugStateString(), before);
  EXPECT_EQ(index->size(), 12u);
}

TEST(FaultInjectionOutOfCoreTest, SpillReadBackFailureLeavesIndexUntouched) {
  // @2 targets the second arrival at (io.spill, column 3): the append
  // succeeds, the commit-time read-back fails — the spill-file-deleted-
  // mid-batch scenario, injected deterministically.
  const auto gallery = ServiceGallery();
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 12);
  auto tail = service::MakeSyntheticGallerySlice(gallery, 0, 12, 22);
  ASSERT_TRUE(reference.ok() && tail.ok());
  service::IndexOptions options;
  options.num_features = 24;
  auto index = service::IdentificationIndex::Create(*reference, options);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string before = index->DebugStateString();

  const std::string path = OutOfCoreTempPath("fault_spill_read_back.npgm");
  ASSERT_TRUE(connectome::WriteGroupMatrix(path, *tail).ok());
  auto file_store = connectome::FileMatrixStore::Open(path);
  ASSERT_TRUE(file_store.ok()) << file_store.status();
  const connectome::MatrixStore& store = **file_store;
  {
    fault::ScopedSchedule schedule(
        "io.spill#3@2=error:IOError:spill file vanished (injected)");
    ASSERT_TRUE(schedule.status().ok());
    const Status status = index->EnrollStream(store, nullptr, 4);
    EXPECT_EQ(status.code(), StatusCode::kIOError);
  }
  EXPECT_EQ(index->DebugStateString(), before);

  // With no fault armed the same call commits all ten subjects.
  ASSERT_TRUE(index->EnrollStream(store, nullptr, 4).ok());
  EXPECT_EQ(index->size(), 22u);
}

TEST_F(FaultInjectionPipelineTest, SpillFaultFailsBoundedBatch) {
  preprocess::PipelineConfig config = FastConfig();
  config.max_in_flight = 1;
  config.failure_policy = FailurePolicy::SkipAndReport();
  config.fault.schedule = "io.spill#0=error:IOError:spill device full "
                          "(injected)";
  const preprocess::RunSource source =
      [this](std::size_t i) -> Result<image::Volume4D> { return runs_[i]; };
  const auto batch =
      preprocess::RunPipelineBatch(source, 3, {}, atlas_, config);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kIOError);

  // Resident runs are read in place and never spilled: the vector overload
  // under the same schedule succeeds, bit-equal to a clean run.
  const auto resident = preprocess::RunPipelineBatch(runs_, {}, atlas_, config);
  ASSERT_TRUE(resident.ok()) << resident.status();
  config.fault.schedule.clear();
  const auto clean = preprocess::RunPipelineBatch(runs_, {}, atlas_, config);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(resident->indices, clean->indices);
  EXPECT_EQ(resident->report.ToString(), clean->report.ToString());
  ASSERT_EQ(resident->outputs.size(), 3u);
  ASSERT_EQ(clean->outputs.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    const linalg::Matrix& got = resident->outputs[k].region_series;
    const linalg::Matrix& want = clean->outputs[k].region_series;
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.rows() * got.cols() * sizeof(double)),
              0)
        << "run " << k;
  }
}

}  // namespace
}  // namespace neuroprint
