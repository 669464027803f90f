// Rigid-body registration: estimates the 6-DoF transform aligning a moving
// volume to a reference by minimizing mean squared intensity error with
// Gauss–Newton least squares (analytic trilinear gradients, the realignment
// scheme of SPM realign and FSL MCFLIRT). This is the estimation half of
// head-motion correction.

#ifndef NEUROPRINT_IMAGE_REGISTRATION_H_
#define NEUROPRINT_IMAGE_REGISTRATION_H_

#include <vector>

#include "image/affine.h"
#include "image/volume.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace neuroprint::image {

struct RegistrationOptions {
  /// Evaluate the cost on every k-th voxel per axis (speed knob).
  std::size_t sample_stride = 1;
  /// Graceful degradation for MotionCorrect: when registering a frame
  /// fails, keep the frame unregistered (identity transform) and record
  /// it in MotionCorrectionResult::degraded_frames instead of failing
  /// the whole run. Off by default — batch callers opt in via
  /// FailurePolicy (see util/batch.h).
  bool identity_fallback_on_failure = false;
};

struct RegistrationResult {
  RigidTransform transform;  ///< Maps reference space onto the moving image.
  double final_cost = 0.0;   ///< Mean squared error at the optimum.
};

/// Mean squared error between `reference` and `moving` resampled under `t`.
double RegistrationCost(const Volume3D& reference, const Volume3D& moving,
                        const RigidTransform& t, std::size_t sample_stride = 1);

/// Estimates the rigid transform such that resampling `moving` by it best
/// matches `reference`. Dimensions must agree. Starts from the identity and
/// takes only steps that lower the cost, so a featureless `moving` (constant
/// or all zero: no gradient, a singular system) yields the identity.
/// Serial and deterministic: the same inputs give the same bits on any
/// thread and any ISA.
Result<RegistrationResult> RegisterRigid(
    const Volume3D& reference, const Volume3D& moving,
    const RegistrationOptions& options = {});

/// Motion parameters and the corrected run: every volume is registered to
/// the first and resampled.
struct MotionCorrectionResult {
  Volume4D corrected;
  std::vector<RigidTransform> motion;  ///< Per-frame estimates; motion[0] = I.
  /// Frames left unregistered by identity_fallback_on_failure, ascending.
  std::vector<std::size_t> degraded_frames;
};

/// Frames register independently, in parallel under `parallel`; the
/// result (including which error fail-fast returns: the lowest failing
/// frame's) does not depend on the thread count.
Result<MotionCorrectionResult> MotionCorrect(
    const Volume4D& run, const RegistrationOptions& options = {},
    const ParallelContext& parallel = {});

}  // namespace neuroprint::image

#endif  // NEUROPRINT_IMAGE_REGISTRATION_H_
