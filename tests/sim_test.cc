// Tests for the generative cohort simulator: determinism, the planted
// identity signature, task structure, group structure, performance
// coupling, and the multi-site operators.

#include <cmath>

#include <gtest/gtest.h>

#include "connectome/connectome.h"
#include "linalg/stats.h"
#include "linalg/vector_ops.h"
#include "sim/cohort.h"
#include "sim/task.h"
#include "sim/voxel_render.h"
#include "atlas/synthetic_atlas.h"
#include "svd_oracle.h"

namespace neuroprint::sim {
namespace {

CohortConfig SmallConfig(std::uint64_t seed = 5) {
  CohortConfig config;
  config.num_subjects = 8;
  config.num_regions = 30;
  config.frames_override = 150;
  config.seed = seed;
  return config;
}

TEST(TaskTest, NamesAndProperties) {
  EXPECT_STREQ(TaskName(TaskType::kRest), "REST");
  EXPECT_STREQ(TaskName(TaskType::kWorkingMemory), "WM");
  EXPECT_EQ(kAllTasks.size(), 8u);
  // The Figure-5 ordering: rest most identifying, motor/WM least.
  const double rest = DefaultTaskProperties(TaskType::kRest).signature_strength;
  const double motor = DefaultTaskProperties(TaskType::kMotor).signature_strength;
  const double wm =
      DefaultTaskProperties(TaskType::kWorkingMemory).signature_strength;
  const double language =
      DefaultTaskProperties(TaskType::kLanguage).signature_strength;
  EXPECT_GT(rest, language);
  EXPECT_GT(language, motor);
  EXPECT_GT(language, wm);
  EXPECT_TRUE(HasPerformanceMetric(TaskType::kLanguage));
  EXPECT_FALSE(HasPerformanceMetric(TaskType::kRest));
}

TEST(CohortTest, RejectsBadConfigs) {
  CohortConfig config = SmallConfig();
  config.num_subjects = 1;
  EXPECT_FALSE(CohortSimulator::Create(config).ok());
  config = SmallConfig();
  config.num_regions = 2;
  EXPECT_FALSE(CohortSimulator::Create(config).ok());
  config = SmallConfig();
  config.idiosyncratic_variance = 0.0;
  EXPECT_FALSE(CohortSimulator::Create(config).ok());
  config = SmallConfig();
  config.group_sizes = {3, 3};  // Sums to 6, not 8.
  EXPECT_FALSE(CohortSimulator::Create(config).ok());
}

TEST(CohortTest, DeterministicAcrossInstancesAndCallOrder) {
  const auto a = CohortSimulator::Create(SmallConfig());
  const auto b = CohortSimulator::Create(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Generate in different orders; scan (3, REST, LR) must match exactly.
  (void)b->SimulateRegionSeries(1, TaskType::kMotor, Encoding::kRightLeft);
  const auto s1 = a->SimulateRegionSeries(3, TaskType::kRest, Encoding::kLeftRight);
  const auto s2 = b->SimulateRegionSeries(3, TaskType::kRest, Encoding::kLeftRight);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE(linalg::AlmostEqual(*s1, *s2, 0.0));
}

TEST(CohortTest, DifferentScansDiffer) {
  const auto sim = CohortSimulator::Create(SmallConfig());
  ASSERT_TRUE(sim.ok());
  const auto base =
      sim->SimulateRegionSeries(0, TaskType::kRest, Encoding::kLeftRight);
  const auto other_subject =
      sim->SimulateRegionSeries(1, TaskType::kRest, Encoding::kLeftRight);
  const auto other_session =
      sim->SimulateRegionSeries(0, TaskType::kRest, Encoding::kRightLeft);
  const auto other_task =
      sim->SimulateRegionSeries(0, TaskType::kMotor, Encoding::kLeftRight);
  EXPECT_FALSE(linalg::AlmostEqual(*base, *other_subject, 1e-6));
  EXPECT_FALSE(linalg::AlmostEqual(*base, *other_session, 1e-6));
  EXPECT_FALSE(linalg::AlmostEqual(*base, *other_task, 1e-6));
}

TEST(CohortTest, SeriesShapeFollowsTaskFrames) {
  CohortConfig config = SmallConfig();
  config.frames_override = 0;  // Use per-task defaults.
  const auto sim = CohortSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  const auto rest =
      sim->SimulateRegionSeries(0, TaskType::kRest, Encoding::kLeftRight);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->rows(), config.num_regions);
  EXPECT_EQ(rest->cols(), DefaultTaskProperties(TaskType::kRest).num_frames);
}

TEST(CohortTest, IntraSubjectSimilarityExceedsInterSubject) {
  // The core invariant the attack rests on (paper Figure 1): two sessions
  // of the same subject correlate more than scans of different subjects.
  const auto sim = CohortSimulator::Create(SmallConfig(11));
  ASSERT_TRUE(sim.ok());
  const auto lr = sim->BuildGroupMatrix(TaskType::kRest, Encoding::kLeftRight);
  const auto rl = sim->BuildGroupMatrix(TaskType::kRest, Encoding::kRightLeft);
  ASSERT_TRUE(lr.ok());
  ASSERT_TRUE(rl.ok());
  const linalg::Matrix sim_matrix =
      linalg::ColumnCrossCorrelation(lr->data(), rl->data());
  double diag = 0.0, off = 0.0;
  const std::size_t n = sim_matrix.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      (i == j ? diag : off) += sim_matrix(i, j);
    }
  }
  diag /= static_cast<double>(n);
  off /= static_cast<double>(n * n - n);
  EXPECT_GT(diag, off + 0.05);
}

TEST(CohortTest, SignatureStrengthMonotoneInScale) {
  // More signature -> more diagonal contrast.
  auto contrast_at = [](double scale) {
    CohortConfig config = SmallConfig(13);
    config.signature_scale = scale;
    const auto sim = CohortSimulator::Create(config);
    const auto lr = sim->BuildGroupMatrix(TaskType::kRest, Encoding::kLeftRight);
    const auto rl = sim->BuildGroupMatrix(TaskType::kRest, Encoding::kRightLeft);
    const linalg::Matrix m =
        linalg::ColumnCrossCorrelation(lr->data(), rl->data());
    double diag = 0.0, off = 0.0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        (i == j ? diag : off) += m(i, j);
      }
    }
    return diag / static_cast<double>(m.rows()) -
           off / static_cast<double>(m.rows() * m.rows() - m.rows());
  };
  EXPECT_GT(contrast_at(2.0), contrast_at(0.25) + 0.03);
}

TEST(CohortTest, SameTaskScansClusterAcrossSubjects) {
  // Task component makes same-task scans of different subjects more
  // similar than different-task scans of the same subject (the paper's
  // Figure 6 observation).
  const auto sim = CohortSimulator::Create(SmallConfig(17));
  ASSERT_TRUE(sim.ok());
  const auto wm_a =
      *sim->SimulateRegionSeries(0, TaskType::kWorkingMemory, Encoding::kLeftRight);
  const auto wm_b =
      *sim->SimulateRegionSeries(1, TaskType::kWorkingMemory, Encoding::kLeftRight);
  const auto motor_a =
      *sim->SimulateRegionSeries(0, TaskType::kMotor, Encoding::kLeftRight);

  auto features = [](const linalg::Matrix& series) {
    return *connectome::VectorizeUpperTriangle(
        *connectome::BuildConnectome(series));
  };
  const double same_task_cross_subject =
      linalg::PearsonCorrelation(features(wm_a), features(wm_b));
  const double same_subject_cross_task =
      linalg::PearsonCorrelation(features(wm_a), features(motor_a));
  EXPECT_GT(same_task_cross_subject, same_subject_cross_task);
}

TEST(CohortTest, PerformanceScoresInRangeAndCoupled) {
  CohortConfig config = SmallConfig(19);
  config.num_subjects = 20;
  const auto sim = CohortSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  linalg::Vector scores;
  for (std::size_t s = 0; s < 20; ++s) {
    const double score = sim->PerformanceScore(s, TaskType::kLanguage);
    EXPECT_GE(score, 50.0);
    EXPECT_LE(score, 100.0);
    scores.push_back(score);
  }
  // Scores vary across subjects.
  EXPECT_GT(linalg::StdDev(scores), 1.0);
  // Deterministic.
  EXPECT_DOUBLE_EQ(sim->PerformanceScore(3, TaskType::kLanguage),
                   sim->PerformanceScore(3, TaskType::kLanguage));
}

TEST(CohortTest, GroupAssignmentFollowsSizes) {
  CohortConfig config = SmallConfig(23);
  config.group_sizes = {3, 2, 3};
  config.group_strength = 0.3;
  const auto sim = CohortSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->GroupOf(0), 0u);
  EXPECT_EQ(sim->GroupOf(2), 0u);
  EXPECT_EQ(sim->GroupOf(3), 1u);
  EXPECT_EQ(sim->GroupOf(5), 2u);
  EXPECT_EQ(sim->GroupOf(7), 2u);
}

TEST(CohortTest, PresetsMatchPaperDatasets) {
  const CohortConfig hcp = HcpLikeConfig();
  EXPECT_EQ(hcp.num_subjects, 100u);
  EXPECT_EQ(hcp.num_regions, 360u);
  const CohortConfig adhd = AdhdLikeConfig();
  EXPECT_EQ(adhd.num_regions, 116u);
  EXPECT_FALSE(adhd.group_sizes.empty());
  const auto sim = CohortSimulator::Create(adhd);
  ASSERT_TRUE(sim.ok());
  const auto group = sim->BuildGroupMatrix(TaskType::kRest, Encoding::kLeftRight);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->num_features(), 6670u);  // The paper's ADHD feature count.
}

TEST(MultisiteTest, VerbatimOperatorShiftsMeanAndAddsVariance) {
  Rng rng(31);
  linalg::Matrix series(3, 2000);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t t = 0; t < 2000; ++t) {
      series(i, t) = rng.Gaussian(10.0 * (i + 1.0), 2.0);
    }
  }
  linalg::Matrix noised = series;
  Rng noise_rng(32);
  ASSERT_TRUE(AddMultisiteNoise(noised, 0.25, noise_rng).ok());
  for (std::size_t i = 0; i < 3; ++i) {
    const linalg::Vector before = series.RowCopy(i);
    const linalg::Vector after = noised.RowCopy(i);
    // Mean roughly doubles (noise mean equals the signal mean).
    EXPECT_NEAR(linalg::Mean(after), 2.0 * linalg::Mean(before),
                0.05 * linalg::Mean(before));
    // Variance grows by ~the fraction.
    EXPECT_NEAR(linalg::Variance(after), 1.25 * linalg::Variance(before),
                0.15 * linalg::Variance(before));
  }
}

TEST(MultisiteTest, ZeroFractionIsNoOp) {
  Rng rng(33);
  linalg::Matrix series(2, 50);
  for (std::size_t t = 0; t < 50; ++t) {
    series(0, t) = rng.Gaussian();
    series(1, t) = rng.Gaussian();
  }
  linalg::Matrix copy = series;
  ASSERT_TRUE(AddMultisiteNoise(copy, 0.0, rng).ok());
  ASSERT_TRUE(AddSiteEffect(copy, 0.0, rng).ok());
  EXPECT_TRUE(linalg::AlmostEqual(copy, series, 0.0));
  EXPECT_FALSE(AddMultisiteNoise(copy, -0.1, rng).ok());
  EXPECT_FALSE(AddSiteEffect(copy, -0.1, rng).ok());
}

TEST(MultisiteTest, SiteEffectIsLowRankAcrossRegions) {
  // The structured effect couples every region to a handful of shared
  // site signals, so the added perturbation matrix is low-rank — that is
  // what distinguishes it from the (full-rank) i.i.d. operator.
  Rng rng(34);
  const std::size_t regions = 24, frames = 400;
  linalg::Matrix series(regions, frames);
  for (std::size_t i = 0; i < regions; ++i) {
    for (std::size_t t = 0; t < frames; ++t) series(i, t) = rng.Gaussian();
  }
  linalg::Matrix noised = series;
  Rng site_rng(35);
  ASSERT_TRUE(AddSiteEffect(noised, 0.5, site_rng).ok());
  const linalg::Matrix delta = noised - series;
  const auto svd = linalg::JacobiSvd(delta.Transposed());
  ASSERT_TRUE(svd.ok());
  // At most 4 site components: singular value 5 must be numerically zero.
  EXPECT_GT(svd->s[0], 1e-3);
  EXPECT_LT(svd->s[4], 1e-8 * svd->s[0]);
}

TEST(VoxelRenderTest, BackgroundStaysZeroBrainCarriesSignal) {
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 10;
  atlas_config.ny = 10;
  atlas_config.nz = 10;
  atlas_config.num_regions = 4;
  const auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());

  Rng rng(41);
  linalg::Matrix series(4, 20);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t t = 0; t < 20; ++t) series(r, t) = rng.Gaussian();
  }
  VoxelRenderConfig render;
  const auto run = RenderVoxelRun(*atlas, series, render, rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->nt(), 20u);
  for (std::size_t z = 0; z < 10; ++z) {
    for (std::size_t y = 0; y < 10; ++y) {
      for (std::size_t x = 0; x < 10; ++x) {
        if (atlas->label(x, y, z) == atlas::kBackground) {
          EXPECT_FLOAT_EQ(run->at(x, y, z, 5), 0.0f);
        } else {
          EXPECT_GT(run->at(x, y, z, 5), 100.0f);  // Baseline intensity.
        }
      }
    }
  }
}

TEST(VoxelRenderTest, RejectsMismatchedSeries) {
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 8;
  atlas_config.ny = 8;
  atlas_config.nz = 8;
  atlas_config.num_regions = 3;
  const auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());
  Rng rng(43);
  EXPECT_FALSE(RenderVoxelRun(*atlas, linalg::Matrix(5, 10), {}, rng).ok());
  EXPECT_FALSE(RenderVoxelRun(*atlas, linalg::Matrix(3, 0), {}, rng).ok());
}

}  // namespace
}  // namespace neuroprint::sim
