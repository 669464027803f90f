// Example: the full raw-image path — NIfTI files on disk, through the
// Figure-4 preprocessing pipeline, to a cross-session identity match.
//
// Two subjects are simulated at the voxel level (with head motion,
// scanner drift, and measurement noise planted), written to .nii.gz,
// read back, preprocessed, parcellated, and matched across sessions.
// This is the attacker's real-world workflow: their inputs are image
// files, not ready-made connectomes.
//
// Build & run:  ./build/examples/nifti_pipeline [output_dir]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "atlas/synthetic_atlas.h"
#include "connectome/group_matrix.h"
#include "core/attack.h"
#include "nifti/nifti_io.h"
#include "preprocess/pipeline.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"
#include "util/stopwatch.h"

using namespace neuroprint;

namespace {

constexpr std::size_t kSubjects = 4;

std::string ScanPath(const std::string& dir, std::size_t subject,
                     const char* session) {
  return dir + "/sub" + std::to_string(subject) + "_" + session + ".nii.gz";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/neuroprint_nifti_demo";
  (void)std::system(("mkdir -p " + dir).c_str());

  // A small Glasser-like atlas (fewer regions so the demo runs in
  // seconds) and a cohort whose region series will be rendered to voxels.
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 24;
  atlas_config.ny = 28;
  atlas_config.nz = 24;
  atlas_config.num_regions = 60;
  atlas_config.seed = 11;
  auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  if (!atlas.ok()) return 1;

  sim::CohortConfig cohort_config = sim::HcpLikeConfig();
  cohort_config.num_subjects = kSubjects;
  cohort_config.num_regions = atlas->num_regions();
  cohort_config.frames_override = 280;
  // Coarse 60-region parcels average many voxels, boosting per-edge SNR
  // (same reasoning as the AAL2 preset in sim/cohort.cc).
  cohort_config.signature_scale = 1.4;
  auto cohort = sim::CohortSimulator::Create(cohort_config);
  if (!cohort.ok()) return 1;

  // 1. Acquire: render each subject's two sessions and write NIfTI files.
  std::printf("writing %zu scans to %s ...\n", 2 * kSubjects, dir.c_str());
  Rng rng(31);
  for (std::size_t s = 0; s < kSubjects; ++s) {
    for (const auto& [encoding, name] :
         {std::pair{sim::Encoding::kLeftRight, "LR"},
          std::pair{sim::Encoding::kRightLeft, "RL"}}) {
      auto series = cohort->SimulateRegionSeries(s, sim::TaskType::kRest, encoding);
      if (!series.ok()) return 1;
      sim::VoxelRenderConfig render;
      render.motion_step = 0.02;  // ~0.3 voxel drift: head motion is small
                                  // relative to this demo's coarse parcels.
      render.drift_amplitude = 12.0;
      render.plant_slice_timing = true;
      auto run = sim::RenderVoxelRun(*atlas, *series, render, rng);
      if (!run.ok()) return 1;
      const Status written = nifti::WriteNifti(ScanPath(dir, s, name), *run);
      if (!written.ok()) {
        std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
        return 1;
      }
    }
  }

  // 2. Preprocess: read each file back and run the Figure-4 pipeline.
  preprocess::PipelineConfig pipeline = preprocess::RestingStateConfig();
  pipeline.registration.sample_stride = 2;
  pipeline.smoothing_fwhm_mm = 0.0;  // Parcels are small on this demo grid.
  // The 0.008-0.1 Hz band-pass isolates haemodynamic fluctuations in real
  // BOLD data; the simulator's region signals are broadband by
  // construction, so the band-pass would discard ~86% of their energy and
  // with it the correlation signal. Detrending handles the planted drift.
  pipeline.temporal_filter = preprocess::TemporalFilter::kNone;

  // Each session's scans stream through the scan-to-column path: read
  // one file, preprocess it, build its connectome column, then the next.
  auto process_session =
      [&](const char* name) -> Result<connectome::GroupMatrix> {
    std::vector<std::string> ids;
    for (std::size_t s = 0; s < kSubjects; ++s) {
      ids.push_back("subject-" + std::to_string(s));
    }
    const preprocess::RunSource source =
        [&](std::size_t s) -> Result<image::Volume4D> {
      auto image = nifti::ReadNifti(ScanPath(dir, s, name));
      if (!image.ok()) return image.status();
      return std::move(image->data);
    };
    std::vector<linalg::Vector> columns;
    const preprocess::ColumnSink sink = [&](std::size_t,
                                            linalg::Vector column) {
      columns.push_back(std::move(column));
      return Status::OK();
    };
    auto report = preprocess::RunScansToColumns(source, kSubjects, ids,
                                                *atlas, pipeline, sink);
    if (!report.ok()) return report.status();
    return connectome::GroupMatrix::FromFeatureColumns(columns, ids);
  };

  Stopwatch clock;
  auto known = process_session("LR");
  auto anonymous = process_session("RL");
  for (const auto* session : {&known, &anonymous}) {
    if (!session->ok()) {
      std::fprintf(stderr, "preprocess: %s\n",
                   session->status().ToString().c_str());
      return 1;
    }
  }
  std::printf("preprocessed %zu scans in %.1fs (%zu features each)\n",
              2 * kSubjects, clock.ElapsedSeconds(), known->num_features());

  // 3. Attack: match the anonymous session against the known one.
  core::AttackOptions options;
  options.num_features = 50;
  auto attack = core::DeanonymizationAttack::Fit(*known, options);
  if (!attack.ok()) return 1;
  auto result = attack->Identify(*anonymous);
  if (!result.ok()) return 1;

  std::printf("\nmatches (from raw .nii.gz files through the full pipeline):\n");
  for (std::size_t j = 0; j < kSubjects; ++j) {
    std::printf("  %s  ->  %s   %s\n", anonymous->subject_ids()[j].c_str(),
                result->predicted_ids[j].c_str(),
                result->predicted_ids[j] == anonymous->subject_ids()[j]
                    ? "CORRECT"
                    : "wrong");
  }
  std::printf("accuracy: %.0f%%\n", 100.0 * result->accuracy);
  return 0;
}
