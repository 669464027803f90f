#include "image/registration.h"

#include <array>
#include <cmath>

#include "image/interpolate.h"
#include "image/resample.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace neuroprint::image {

double RegistrationCost(const Volume3D& reference, const Volume3D& moving,
                        const RigidTransform& t, std::size_t sample_stride) {
  NP_CHECK(reference.nx() == moving.nx() && reference.ny() == moving.ny() &&
           reference.nz() == moving.nz())
      << "RegistrationCost: dimension mismatch";
  const std::size_t stride = std::max<std::size_t>(1, sample_stride);
  const double cx = 0.5 * (static_cast<double>(moving.nx()) - 1.0);
  const double cy = 0.5 * (static_cast<double>(moving.ny()) - 1.0);
  const double cz = 0.5 * (static_cast<double>(moving.nz()) - 1.0);
  // The cost evaluates moving at T^{-1}(p); build the inverse once.
  const linalg::Matrix forward = RigidToAffine(t, cx, cy, cz);
  auto inverse = InvertAffine(forward);
  if (!inverse.ok()) return std::numeric_limits<double>::infinity();

  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t z = 0; z < reference.nz(); z += stride) {
    for (std::size_t y = 0; y < reference.ny(); y += stride) {
      for (std::size_t x = 0; x < reference.nx(); x += stride) {
        double sx, sy, sz;
        ApplyAffine(*inverse, static_cast<double>(x), static_cast<double>(y),
                    static_cast<double>(z), sx, sy, sz);
        const double diff = SampleTrilinear(moving, sx, sy, sz) -
                            static_cast<double>(reference.at(x, y, z));
        sum += diff * diff;
        ++count;
      }
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

Result<RegistrationResult> RegisterRigid(const Volume3D& reference,
                                         const Volume3D& moving,
                                         const RegistrationOptions& options) {
  if (reference.empty() || moving.empty()) {
    return Status::InvalidArgument("RegisterRigid: empty volume");
  }
  if (reference.nx() != moving.nx() || reference.ny() != moving.ny() ||
      reference.nz() != moving.nz()) {
    return Status::InvalidArgument("RegisterRigid: dimension mismatch");
  }
  if (!reference.AllFinite() || !moving.AllFinite()) {
    return Status::InvalidArgument("RegisterRigid: non-finite voxels");
  }

  std::array<double, 6> params = {0, 0, 0, 0, 0, 0};
  std::array<double, 6> steps = {
      options.initial_translation_step, options.initial_translation_step,
      options.initial_translation_step, options.initial_rotation_step,
      options.initial_rotation_step,    options.initial_rotation_step};

  auto cost_at = [&](const std::array<double, 6>& p) {
    return RegistrationCost(reference, moving, RigidTransform::FromArray(p),
                            options.sample_stride);
  };
  double best_cost = cost_at(params);

  // Steepest coordinate descent: per pass evaluate a +/- step on every
  // parameter and apply only the single best improving move. First-
  // improvement greedy walks can trade rotation against translation and
  // run far from the optimum; taking the globally best move per pass
  // cannot.
  for (int level = 0; level < options.refinement_levels; ++level) {
    const int max_moves = options.passes_per_level * 12;
    for (int move = 0; move < max_moves; ++move) {
      double best_trial_cost = best_cost;
      std::array<double, 6> best_trial = params;
      for (std::size_t dim = 0; dim < 6; ++dim) {
        for (const double direction : {+1.0, -1.0}) {
          std::array<double, 6> trial = params;
          trial[dim] += direction * steps[dim];
          const double c = cost_at(trial);
          if (c < best_trial_cost - 1e-15) {
            best_trial_cost = c;
            best_trial = trial;
          }
        }
      }
      if (best_trial_cost >= best_cost - 1e-15) break;
      best_cost = best_trial_cost;
      params = best_trial;
    }
    for (double& s : steps) s *= 0.5;
  }

  RegistrationResult result;
  result.transform = RigidTransform::FromArray(params);
  result.final_cost = best_cost;
  return result;
}

Result<MotionCorrectionResult> MotionCorrect(
    const Volume4D& run, const RegistrationOptions& options,
    const ParallelContext& parallel) {
  if (run.empty()) return Status::InvalidArgument("MotionCorrect: empty run");
  MotionCorrectionResult out;
  out.corrected = run;
  out.motion.resize(run.nt());

  const Volume3D reference = run.ExtractVolume(0);
  // Each frame writes only its own motion entry, corrected volume and
  // flag, so frames run in any order on any thread.
  std::vector<char> degraded(run.nt(), 0);
  NP_RETURN_IF_ERROR(ParallelForStatus(
      parallel, 1, run.nt(), 1,
      [&](std::size_t t_lo, std::size_t t_hi) -> Status {
        for (std::size_t t = t_lo; t < t_hi; ++t) {
          const Volume3D frame = run.ExtractVolume(t);
          // A fault injected at this point behaves exactly like the
          // frame's registration failing, so it exercises the fallback
          // path too. The point is keyed by frame, so which frames fire
          // does not depend on scheduling.
          Status injected = Status::OK();
          if (fault::Enabled()) {
            injected = fault::InjectedError("pipeline.motion_correct", t);
          }
          Result<RegistrationResult> reg =
              injected.ok() ? RegisterRigid(reference, frame, options)
                            : Result<RegistrationResult>(injected);
          if (!reg.ok()) {
            if (!options.identity_fallback_on_failure) return reg.status();
            // Degrade instead of failing: the frame stays unregistered
            // under the identity transform (out.corrected already holds
            // it).
            out.motion[t] = RigidTransform{};
            degraded[t] = 1;
            continue;
          }
          out.motion[t] = reg->transform;
          if (!reg->transform.IsApproxIdentity(1e-9)) {
            auto resampled = ResampleRigid(frame, reg->transform);
            if (!resampled.ok()) return resampled.status();
            out.corrected.SetVolume(t, *resampled);
          }
        }
        return Status::OK();
      }));
  for (std::size_t t = 1; t < run.nt(); ++t) {
    if (degraded[t]) out.degraded_frames.push_back(t);
  }
  if (!out.degraded_frames.empty()) {
    metrics::Count("pipeline.frames_degraded", out.degraded_frames.size());
    metrics::Count("pipeline.scans_degraded", 1);
  }
  return out;
}

}  // namespace neuroprint::image
