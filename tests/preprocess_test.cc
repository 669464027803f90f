// Tests for slice-time correction and the full Figure-4 pipeline: every
// stage must remove its planted artifact without destroying the signal.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numbers>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "image/registration.h"
#include "image/resample.h"
#include "linalg/stats.h"
#include "linalg/vector_ops.h"
#include "preprocess/pipeline.h"
#include "preprocess/slice_timing.h"
#include "registration_search_oracle.h"
#include "signal/filters.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"

namespace neuroprint::preprocess {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(SliceTimingTest, AcquisitionFractionsCoverTr) {
  const auto seq = SliceAcquisitionFractions(4, SliceOrder::kSequentialAscending);
  EXPECT_EQ(seq, (std::vector<double>{0.0, 0.25, 0.5, 0.75}));
  const auto desc =
      SliceAcquisitionFractions(4, SliceOrder::kSequentialDescending);
  EXPECT_EQ(desc, (std::vector<double>{0.75, 0.5, 0.25, 0.0}));
  const auto inter = SliceAcquisitionFractions(5, SliceOrder::kInterleavedOdd);
  // Acquisition order 0,2,4,1,3 -> fractions by slice index.
  const std::vector<double> expected{0.0, 0.6, 0.2, 0.8, 0.4};
  ASSERT_EQ(inter.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(inter[i], expected[i]) << "slice " << i;
  }
}

TEST(SliceTimingTest, AlignsPhaseShiftedSlices) {
  // Two-slice phantom: slice 1's sine is acquired half a TR later. After
  // correction, both slices should be in phase.
  const std::size_t nt = 64;
  image::Volume4D run(1, 1, 2, nt);
  const double freq = 0.05;
  for (std::size_t t = 0; t < nt; ++t) {
    const double phase = 2.0 * kPi * freq * static_cast<double>(t);
    run.at(0, 0, 0, t) = static_cast<float>(std::sin(phase));
    // Slice 1 acquired at t + 0.5 in sample units.
    run.at(0, 0, 1, t) =
        static_cast<float>(std::sin(phase + 2.0 * kPi * freq * 0.5));
  }
  const auto corrected =
      SliceTimeCorrect(run, SliceOrder::kSequentialAscending, 0);
  ASSERT_TRUE(corrected.ok());
  double max_err = 0.0;
  for (std::size_t t = 8; t + 8 < nt; ++t) {
    max_err = std::max(
        max_err, std::fabs(static_cast<double>(corrected->at(0, 0, 1, t)) -
                           corrected->at(0, 0, 0, t)));
  }
  EXPECT_LT(max_err, 0.01);
  // Reference slice untouched.
  for (std::size_t t = 0; t < nt; ++t) {
    EXPECT_FLOAT_EQ(corrected->at(0, 0, 0, t), run.at(0, 0, 0, t));
  }
}

// The per-voxel formulation SliceTimeCorrect's tap tables replace: every
// shifted slice's voxel series goes through signal::ShiftSeries.
image::Volume4D PerVoxelSliceTimeCorrect(const image::Volume4D& run,
                                         SliceOrder order,
                                         std::size_t reference_slice,
                                         signal::InterpKind interp) {
  const std::vector<double> fractions =
      SliceAcquisitionFractions(run.nz(), order);
  image::Volume4D out = run;
  for (std::size_t z = 0; z < run.nz(); ++z) {
    const double delta = fractions[z] - fractions[reference_slice];
    if (delta == 0.0) continue;
    for (std::size_t y = 0; y < run.ny(); ++y) {
      for (std::size_t x = 0; x < run.nx(); ++x) {
        auto shifted =
            signal::ShiftSeries(run.VoxelTimeSeries(x, y, z), -delta, interp);
        EXPECT_TRUE(shifted.ok());
        out.SetVoxelTimeSeries(x, y, z, *shifted);
      }
    }
  }
  return out;
}

TEST(SliceTimingTest, TapTablesMatchPerVoxelShiftSeriesBitwise) {
  // 42 x-rows split into several row chunks (a row carries nx * nt * 8
  // taps of work), and the first and last outputs of every series read
  // clamped samples.
  image::Volume4D run(16, 7, 6, 40);
  Rng rng(29);
  for (float& v : run.flat()) {
    v = static_cast<float>(100.0 + 20.0 * rng.Gaussian());
  }
  run.at(0, 0, 1, 0) = 0.0f;
  run.at(15, 6, 5, 39) = -0.0f;
  for (const signal::InterpKind interp :
       {signal::InterpKind::kLinear, signal::InterpKind::kWindowedSinc}) {
    for (const SliceOrder order :
         {SliceOrder::kSequentialAscending, SliceOrder::kSequentialDescending,
          SliceOrder::kInterleavedOdd}) {
      for (const std::size_t reference : {std::size_t{0}, run.nz() / 2}) {
        const image::Volume4D expected =
            PerVoxelSliceTimeCorrect(run, order, reference, interp);
        for (const std::size_t threads : {1, 2, 8}) {
          const auto corrected = SliceTimeCorrect(
              run, order, reference, interp, ParallelContext{threads});
          ASSERT_TRUE(corrected.ok());
          ASSERT_EQ(corrected->size(), expected.size());
          EXPECT_EQ(std::memcmp(corrected->data(), expected.data(),
                                expected.size() * sizeof(float)),
                    0)
              << "interp " << static_cast<int>(interp) << ", order "
              << static_cast<int>(order) << ", reference " << reference
              << ", threads " << threads;
        }
      }
    }
  }
}

TEST(SliceTimingTest, RejectsBadReferenceSlice) {
  const image::Volume4D run(2, 2, 2, 4);
  EXPECT_FALSE(
      SliceTimeCorrect(run, SliceOrder::kSequentialAscending, 5).ok());
}

TEST(CleanRegionSeriesTest, RemovesDriftAndZScores) {
  Rng rng(11);
  const std::size_t nt = 400;
  const double tr = 0.72;
  linalg::Matrix series(5, nt);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t t = 0; t < nt; ++t) {
      const double time = static_cast<double>(t) * tr;
      series(r, t) = std::sin(2.0 * kPi * 0.05 * time + r) +  // In-band.
                     4.0 * std::sin(2.0 * kPi * 0.001 * time) +  // Drift.
                     0.5 * static_cast<double>(t) / nt +         // Trend.
                     0.1 * rng.Gaussian();
    }
  }
  PipelineConfig config = RestingStateConfig();
  config.global_signal_regression = false;
  ASSERT_TRUE(CleanRegionSeries(series, config, tr).ok());
  for (std::size_t r = 0; r < 5; ++r) {
    const linalg::Vector row = series.RowCopy(r);
    // Z-scored.
    EXPECT_NEAR(linalg::Mean(row), 0.0, 1e-9);
    EXPECT_NEAR(linalg::StdDev(row), 1.0, 1e-9);
    // Drift band empty relative to signal band.
    std::vector<double> x(row.begin(), row.end());
    EXPECT_LT(signal::BandPower(x, 0.0, 0.003, tr),
              0.05 * signal::BandPower(x, 0.04, 0.06, tr));
  }
}

TEST(CleanRegionSeriesTest, GlobalSignalRegressionRemovesSharedComponent) {
  Rng rng(13);
  const std::size_t nt = 300;
  linalg::Matrix series(6, nt);
  std::vector<double> shared(nt);
  for (double& v : shared) v = rng.Gaussian();
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t t = 0; t < nt; ++t) {
      series(r, t) = 2.0 * shared[t] + 0.3 * rng.Gaussian();
    }
  }
  PipelineConfig config;
  config.detrend_degree = -1;
  config.temporal_filter = TemporalFilter::kNone;
  config.global_signal_regression = true;
  config.zscore_series = false;
  ASSERT_TRUE(CleanRegionSeries(series, config, 0.72, shared).ok());
  // Residuals should be orthogonal to the shared signal.
  for (std::size_t r = 0; r < 6; ++r) {
    const linalg::Vector row = series.RowCopy(r);
    linalg::Vector shared_vec(shared.begin(), shared.end());
    EXPECT_LT(std::fabs(linalg::PearsonCorrelation(row, shared_vec)), 0.02);
  }
}

TEST(CleanRegionSeriesTest, RejectsEmpty) {
  linalg::Matrix empty;
  EXPECT_FALSE(CleanRegionSeries(empty, PipelineConfig{}, 0.72).ok());
}

// Full pipeline integration: render a small voxel run with planted
// artifacts and verify the pipeline recovers the underlying region
// signal structure.
class PipelineIntegrationTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kRegions = 12;

  void SetUp() override {
    atlas::SyntheticAtlasConfig atlas_config;
    atlas_config.nx = 14;
    atlas_config.ny = 14;
    atlas_config.nz = 12;
    atlas_config.num_regions = kRegions;
    atlas_config.seed = 3;
    auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
    ASSERT_TRUE(atlas.ok());
    atlas_ = std::move(atlas).value();

    sim::CohortConfig cohort_config;
    cohort_config.num_subjects = 2;
    cohort_config.num_regions = kRegions;
    cohort_config.frames_override = 120;
    cohort_config.seed = 7;
    auto cohort = sim::CohortSimulator::Create(cohort_config);
    ASSERT_TRUE(cohort.ok());
    auto series = cohort->SimulateRegionSeries(0, sim::TaskType::kRest,
                                               sim::Encoding::kLeftRight);
    ASSERT_TRUE(series.ok());
    truth_series_ = std::move(series).value();
  }

  atlas::Atlas atlas_;
  linalg::Matrix truth_series_;
};

TEST_F(PipelineIntegrationTest, RecoversRegionCorrelationStructure) {
  Rng rng(17);
  sim::VoxelRenderConfig render;
  render.drift_amplitude = 20.0;
  render.voxel_noise = 4.0;
  auto run = sim::RenderVoxelRun(atlas_, truth_series_, render, rng);
  ASSERT_TRUE(run.ok());

  PipelineConfig config = RestingStateConfig();
  config.slice_time_correction = false;  // No slice offsets planted here.
  config.motion_correction = false;      // No motion planted here.
  config.temporal_filter = TemporalFilter::kNone;
  config.global_signal_regression = false;
  config.smoothing_fwhm_mm = 0.0;  // Small parcels; keep them crisp.
  const auto output = RunPipeline(*run, atlas_, config);
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_EQ(output->region_series.rows(), kRegions);
  ASSERT_EQ(output->region_series.cols(), truth_series_.cols());

  // The recovered per-region series must correlate strongly with truth.
  double min_corr = 1.0;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const double corr = linalg::PearsonCorrelation(
        output->region_series.RowCopy(r), truth_series_.RowCopy(r));
    min_corr = std::min(min_corr, corr);
  }
  EXPECT_GT(min_corr, 0.95);
}

TEST_F(PipelineIntegrationTest, MotionCorrectionImprovesRecovery) {
  Rng rng(19);
  sim::VoxelRenderConfig render;
  render.motion_step = 0.08;
  render.voxel_noise = 2.0;
  render.drift_amplitude = 0.0;
  auto run = sim::RenderVoxelRun(atlas_, truth_series_, render, rng);
  ASSERT_TRUE(run.ok());

  PipelineConfig no_mc = RestingStateConfig();
  no_mc.slice_time_correction = false;
  no_mc.motion_correction = false;
  no_mc.temporal_filter = TemporalFilter::kNone;
  no_mc.global_signal_regression = false;
  no_mc.smoothing_fwhm_mm = 0.0;
  PipelineConfig with_mc = no_mc;
  with_mc.motion_correction = true;
  with_mc.registration.sample_stride = 1;

  const auto raw = RunPipeline(*run, atlas_, no_mc);
  const auto corrected = RunPipeline(*run, atlas_, with_mc);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(corrected.ok()) << corrected.status();

  auto mean_corr = [&](const linalg::Matrix& series) {
    double sum = 0.0;
    for (std::size_t r = 0; r < kRegions; ++r) {
      sum += linalg::PearsonCorrelation(series.RowCopy(r),
                                        truth_series_.RowCopy(r));
    }
    return sum / kRegions;
  };
  const double corr_raw = mean_corr(raw->region_series);
  const double corr_fixed = mean_corr(corrected->region_series);
  EXPECT_GT(corr_fixed, corr_raw + 0.03);  // Genuinely improves recovery...
  EXPECT_GT(corr_fixed, 0.65);             // ...and is fair in absolute terms
                                           // (parcels here are only ~4 voxels
                                           // across, so residual interpolation
                                           // blur caps the correlation).
  // Motion estimates are non-trivial.
  ASSERT_EQ(corrected->motion.size(), run->nt());
  double max_shift = 0.0;
  for (const auto& m : corrected->motion) {
    max_shift = std::max(max_shift, std::fabs(m.translate_x));
  }
  EXPECT_GT(max_shift, 0.05);
}

TEST_F(PipelineIntegrationTest, RejectsGridMismatchAndNonFinite) {
  image::Volume4D wrong(4, 4, 4, 10);
  EXPECT_FALSE(RunPipeline(wrong, atlas_, PipelineConfig{}).ok());

  Rng rng(23);
  sim::VoxelRenderConfig render;
  auto run = sim::RenderVoxelRun(atlas_, truth_series_, render, rng);
  ASSERT_TRUE(run.ok());
  run->at(1, 1, 1, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(RunPipeline(*run, atlas_, PipelineConfig{}).ok());
}

TEST_F(PipelineIntegrationTest, StageTimingsRecorded) {
  Rng rng(29);
  auto run = sim::RenderVoxelRun(atlas_, truth_series_, {}, rng);
  ASSERT_TRUE(run.ok());
  PipelineConfig config = RestingStateConfig();
  config.registration.sample_stride = 2;
  const auto output = RunPipeline(*run, atlas_, config);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_GE(output->stage_seconds.size(), 5u);
}

// Head motion as the end-to-end benchmark plants it: a rendered resting run
// on its 24x28x24 grid, every frame displaced along one bounded random walk
// of 0.02 voxels per frame and axis. At this size the walk stays within a
// few tenths of a voxel, where frame-to-frame BOLD signal and noise dominate
// the cost; Gauss–Newton must track the planted path no worse than the
// derivative-free search oracle, up to kSlack voxels of RMS error.
TEST(MotionTrackingTest, FollowsPlantedRandomWalkAsWellAsSearchOracle) {
  constexpr std::size_t kFrames = 60;
  constexpr double kStep = 0.02;
  constexpr double kSlack = 0.005;  // A quarter of the per-frame step.
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 24;
  atlas_config.ny = 28;
  atlas_config.nz = 24;
  atlas_config.num_regions = 100;
  atlas_config.seed = 5;
  auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());
  sim::CohortConfig cohort_config;
  cohort_config.seed = 11;
  cohort_config.num_subjects = 2;
  cohort_config.num_regions = 100;
  cohort_config.frames_override = kFrames;
  auto cohort = sim::CohortSimulator::Create(cohort_config);
  ASSERT_TRUE(cohort.ok());
  auto series = cohort->SimulateRegionSeries(0, sim::TaskType::kRest,
                                             sim::Encoding::kLeftRight);
  ASSERT_TRUE(series.ok());
  Rng rng(13);
  sim::VoxelRenderConfig render;
  render.drift_amplitude = 12.0;
  auto run = sim::RenderVoxelRun(*atlas, *series, render, rng);
  ASSERT_TRUE(run.ok());

  const image::Volume3D reference = run->ExtractVolume(0);
  image::RegistrationOptions options;
  options.sample_stride = 2;  // As the attack CLI and the benchmark run it.
  image::SearchOracleOptions oracle_options;
  oracle_options.sample_stride = 2;
  image::RigidTransform position;
  double gn_sq = 0.0, oracle_sq = 0.0;
  for (std::size_t t = 1; t < kFrames; ++t) {
    for (double* axis : {&position.translate_x, &position.translate_y,
                         &position.translate_z}) {
      *axis = std::clamp(*axis + rng.Gaussian(0.0, kStep), -1.5, 1.5);
    }
    auto frame = image::ResampleRigid(run->ExtractVolume(t), position);
    ASSERT_TRUE(frame.ok());
    // Aligning the frame back to the reference undoes the planted shift.
    const std::array<double, 6> truth = {-position.translate_x,
                                         -position.translate_y,
                                         -position.translate_z, 0, 0, 0};
    const auto reg = image::RegisterRigid(reference, *frame, options);
    ASSERT_TRUE(reg.ok()) << reg.status();
    const auto gn = reg->transform.AsArray();
    const auto search =
        image::SearchRegisterRigid(reference, *frame, oracle_options)
            .transform.AsArray();
    for (std::size_t k = 0; k < 6; ++k) {
      gn_sq += (gn[k] - truth[k]) * (gn[k] - truth[k]);
      oracle_sq += (search[k] - truth[k]) * (search[k] - truth[k]);
    }
  }
  const double samples = 6.0 * static_cast<double>(kFrames - 1);
  const double gn_rms = std::sqrt(gn_sq / samples);
  const double oracle_rms = std::sqrt(oracle_sq / samples);
  EXPECT_LE(gn_rms, oracle_rms + kSlack)
      << "RMS error against the planted path: Gauss-Newton " << gn_rms
      << ", search oracle " << oracle_rms;
}

}  // namespace
}  // namespace neuroprint::preprocess
