// raw_attack: the paper's path from raw voxels. Set-up renders a seeded
// cohort of resting scans (planted motion, drift and slice timing) on a
// synthetic atlas and writes them as gz NIfTI; one op takes one scan
// through streamed NIfTI read -> Figure-4 preprocessing -> connectome. It
// loads the nifti/preprocess/image/atlas layers and almost nothing of core
// or service.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "atlas/synthetic_atlas.h"
#include "connectome/connectome.h"
#include "connectome/group_matrix.h"
#include "core/attack.h"
#include "image/affine.h"
#include "image/resample.h"
#include "nifti/nifti_io.h"
#include "nifti/nifti_stream.h"
#include "perfbench/harness.h"
#include "preprocess/pipeline.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using namespace neuroprint;

// Every subject is re-identified on every seed at this shape (checked on
// 35 seeds, and on 44 more with a motion path drawn per scan): the planted
// per-subject signature dominates session noise once preprocessing has
// removed the planted motion and drift.
constexpr double kExpectedAccuracy = 1.0;

struct Shape {
  std::size_t subjects, regions, frames, nx, ny, nz;
};
constexpr Shape kFull = {4, 100, 80, 24, 28, 24};
constexpr Shape kSmoke = {2, 30, 40, 14, 16, 12};

// RunPipeline's stage log -> the layer its time is charged to.
const char* StageLayer(const std::string& stage) {
  if (stage == "slice_timing") return "preprocess.slice_timing";
  if (stage == "motion_correction") return "preprocess.motion_correction";
  if (stage == "smoothing") return "preprocess.smoothing";
  return "preprocess.other";
}

// The head motion planted in every scan: sim::RenderVoxelRun's bounded
// random walk (step 0.02 voxels per frame, neuroprint_simulate's default),
// drawn once from a fixed seed. Registration searches until no move
// improves, so its cost follows the motion path; with a path drawn per scan
// one scan cost 1.5x another and the median op moved with the seed and
// with how many ops a run completed.
std::vector<image::RigidTransform> MotionPath(std::size_t frames) {
  constexpr double kStep = 0.02;
  Rng rng(0x6d6f74696f6eULL);
  std::vector<image::RigidTransform> path(frames);
  for (std::size_t t = 1; t < frames; ++t) {
    path[t] = path[t - 1];
    for (double* axis : {&path[t].translate_x, &path[t].translate_y,
                         &path[t].translate_z}) {
      *axis = std::clamp(*axis + rng.Gaussian(0.0, kStep), -1.5, 1.5);
    }
  }
  return path;
}

Status PlantMotion(const std::vector<image::RigidTransform>& path,
                   image::Volume4D& run) {
  for (std::size_t t = 1; t < run.nt(); ++t) {
    Result<image::Volume3D> moved =
        image::ResampleRigid(run.ExtractVolume(t), path[t]);
    if (!moved.ok()) return moved.status();
    run.SetVolume(t, *moved);
  }
  return Status::OK();
}

class RawAttack : public Workload {
 public:
  explicit RawAttack(const Options& options)
      : options_(options), shape_(options.smoke ? kSmoke : kFull) {}

  Status Setup(SpanRecorder& spans) override {
    atlas::SyntheticAtlasConfig atlas_config;
    atlas_config.nx = shape_.nx;
    atlas_config.ny = shape_.ny;
    atlas_config.nz = shape_.nz;
    atlas_config.num_regions = shape_.regions;
    atlas_config.seed = DeriveSeed(options_.seed, 1);
    NP_ASSIGN_OR_RETURN(atlas_, atlas::GenerateSyntheticAtlas(atlas_config));

    sim::CohortConfig cohort_config =
        sim::HcpLikeConfig(DeriveSeed(options_.seed, 2));
    cohort_config.num_subjects = shape_.subjects;
    cohort_config.num_regions = shape_.regions;
    cohort_config.frames_override = shape_.frames;
    // A strong per-subject signature: with 80-frame scans and planted
    // motion, the HCP-like scale (1.4 for coarse parcels) leaves one
    // subject in four misidentified on some seeds, which would make
    // top1_accuracy a property of the seed rather than of the code.
    cohort_config.signature_scale = 3.0;
    Result<sim::CohortSimulator> cohort =
        sim::CohortSimulator::Create(cohort_config);
    if (!cohort.ok()) return cohort.status();

    std::error_code error;
    std::filesystem::create_directories(options_.work_dir, error);
    if (error) return Status::IOError("cannot create " + options_.work_dir);
    Rng render_rng(DeriveSeed(options_.seed, 3));
    const std::vector<image::RigidTransform> motion =
        MotionPath(shape_.frames);
    for (std::size_t s = 0; s < shape_.subjects; ++s) {
      for (const sim::Encoding encoding :
           {sim::Encoding::kLeftRight, sim::Encoding::kRightLeft}) {
        image::Volume4D run;
        {
          ScopedSpan span(spans, "sim.render", kNoOp);
          Result<linalg::Matrix> series = cohort->SimulateRegionSeries(
              s, sim::TaskType::kRest, encoding);
          if (!series.ok()) return series.status();
          sim::VoxelRenderConfig render;
          render.drift_amplitude = 12.0;
          render.plant_slice_timing = true;
          NP_ASSIGN_OR_RETURN(
              run, sim::RenderVoxelRun(atlas_, *series, render, render_rng));
          NP_RETURN_IF_ERROR(PlantMotion(motion, run));
        }
        const std::string path =
            StrFormat("%s/sub%03zu_ses%zu.nii.gz", options_.work_dir.c_str(),
                      s, paths_.size() % 2 + 1);
        {
          ScopedSpan span(spans, "nifti.write_gz", kNoOp);
          NP_RETURN_IF_ERROR(nifti::WriteNifti(path, run));
        }
        paths_.push_back(path);
      }
    }
    columns_.assign(paths_.size(), linalg::Vector());

    pipeline_ = preprocess::RestingStateConfig();
    pipeline_.registration.sample_stride = 2;
    // A 58-second scan is too short for the 0.008 Hz band-pass edge (the
    // attack CLI's --no-temporal-filter setting for short scans).
    pipeline_.temporal_filter = preprocess::TemporalFilter::kNone;

    // Warm-up: one scan end to end, untimed and outside the op count.
    return ProcessScan(0, kNoOp, spans);
  }

  Status Op(std::int64_t op, SpanRecorder& spans) override {
    return ProcessScan(static_cast<std::size_t>(op) % paths_.size(), op,
                       spans);
  }

  Result<double> Verify(SpanRecorder& spans) override {
    for (std::size_t k = 0; k < paths_.size(); ++k) {
      if (columns_[k].size() == 0) {
        NP_RETURN_IF_ERROR(ProcessScan(k, kNoOp, spans));
      }
    }
    if (!nondeterministic_.empty()) {
      return Status::Internal("scan " + nondeterministic_ +
                              " gave a different connectome when re-run");
    }
    if (corrupt_) std::swap(columns_[1], columns_[3]);
    std::vector<linalg::Vector> known, anonymous;
    std::vector<std::string> ids;
    for (std::size_t s = 0; s < shape_.subjects; ++s) {
      known.push_back(columns_[2 * s]);
      anonymous.push_back(columns_[2 * s + 1]);
      ids.push_back(StrFormat("sub%03zu", s));
    }
    Result<connectome::GroupMatrix> known_group =
        connectome::GroupMatrix::FromFeatureColumns(known, ids);
    if (!known_group.ok()) return known_group.status();
    Result<connectome::GroupMatrix> anonymous_group =
        connectome::GroupMatrix::FromFeatureColumns(anonymous, ids);
    if (!anonymous_group.ok()) return anonymous_group.status();
    core::AttackOptions attack_options;
    attack_options.num_features = 100;
    Result<core::DeanonymizationAttack> attack =
        core::DeanonymizationAttack::Fit(*known_group, attack_options);
    if (!attack.ok()) return attack.status();
    Result<core::AttackResult> result = attack->Identify(*anonymous_group);
    if (!result.ok()) return result.status();
    if (result->accuracy != kExpectedAccuracy) {
      return Status::Internal(
          StrFormat("top-1 accuracy %.4f, expected %.4f", result->accuracy,
                    kExpectedAccuracy));
    }
    return result->accuracy;
  }

  // Swaps two subjects' second-session connectomes before matching.
  void CorruptAnswer() override { corrupt_ = true; }

  void LayerMetrics(const std::map<std::int64_t, OpFold>& ops,
                    const std::map<std::string, double>& outside,
                    std::map<std::string, double>* out) override {
    for (const char* layer :
         {"nifti.read_stream", "preprocess.slice_timing",
          "preprocess.motion_correction", "preprocess.smoothing",
          "preprocess.other", "connectome.build"}) {
      (*out)[std::string(layer) + "_ms"] = MedianLayerMs(ops, layer);
    }
    for (const char* layer : {"sim.render", "nifti.write_gz"}) {
      (*out)[std::string(layer) + "_ms"] = OutsideMs(outside, layer);
    }
  }

 private:
  // One scan: streamed read -> preprocessing -> connectome features. A
  // repeat of an already processed scan must reproduce it bit for bit.
  Status ProcessScan(std::size_t k, std::int64_t op, SpanRecorder& spans) {
    Result<nifti::NiftiImage> image = Status::Internal("unread");
    {
      ScopedSpan span(spans, "nifti.read_stream", op);
      image = nifti::ReadNiftiStreamed(paths_[k]);
    }
    if (!image.ok()) return image.status();

    Result<preprocess::PipelineOutput> output = Status::Internal("unrun");
    {
      ScopedSpan span(spans, "preprocess.other", op);
      output = preprocess::RunPipeline(image->data, atlas_, pipeline_);
      if (output.ok() && spans.enabled()) {
        double at = spans.spans()[static_cast<std::size_t>(span.index())]
                        .start_ms;
        for (const auto& [stage, seconds] : output->stage_seconds) {
          spans.AddChild(StageLayer(stage), span.index(), at, 1e3 * seconds);
          at += 1e3 * seconds;
        }
      }
    }
    if (!output.ok()) return output.status();

    linalg::Vector features;
    {
      ScopedSpan span(spans, "connectome.build", op);
      Result<linalg::Matrix> conn =
          connectome::BuildConnectome(output->region_series);
      if (!conn.ok()) return conn.status();
      NP_ASSIGN_OR_RETURN(features, connectome::VectorizeUpperTriangle(*conn));
    }

    linalg::Vector& slot = columns_[k];
    if (slot.size() != 0 && nondeterministic_.empty() &&
        (slot.size() != features.size() ||
         std::memcmp(slot.data(), features.data(),
                     features.size() * sizeof(double)) != 0)) {
      nondeterministic_ = paths_[k];
    }
    slot = std::move(features);
    return Status::OK();
  }

  Options options_;
  Shape shape_;
  atlas::Atlas atlas_;
  preprocess::PipelineConfig pipeline_;
  std::vector<std::string> paths_;  ///< Scan 2s is session 1 of subject s.
  std::vector<linalg::Vector> columns_;  ///< Latest features per scan.
  std::string nondeterministic_;  ///< First scan whose re-run differed.
  bool corrupt_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeRawAttack(const Options& options) {
  return std::make_unique<RawAttack>(options);
}

}  // namespace perfbench
