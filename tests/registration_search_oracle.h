// Derivative-free rigid registration: the reference for image::RegisterRigid
// (Gauss–Newton). A steepest coordinate-descent search over the six
// parameters on a halving step schedule, minimizing the same
// RegistrationCost. It needs ~64 cost passes per frame where Gauss–Newton
// needs a handful, but it shares no code with the solver beyond the cost,
// so agreement between the two is evidence about both.

#ifndef NEUROPRINT_TESTS_REGISTRATION_SEARCH_ORACLE_H_
#define NEUROPRINT_TESTS_REGISTRATION_SEARCH_ORACLE_H_

#include <array>
#include <cstddef>

#include "image/affine.h"
#include "image/registration.h"
#include "image/volume.h"

namespace neuroprint::image {

/// The search's step schedule: initial steps (voxels for translations,
/// radians for rotations), how often they halve, and the coordinate-descent
/// passes per level.
struct SearchOracleOptions {
  double initial_translation_step = 1.0;
  double initial_rotation_step = 0.02;
  int refinement_levels = 5;
  int passes_per_level = 4;
  std::size_t sample_stride = 1;
};

/// Estimates the rigid transform such that resampling `moving` by it best
/// matches `reference`. Dimensions must agree and voxels be finite.
inline RegistrationResult SearchRegisterRigid(
    const Volume3D& reference, const Volume3D& moving,
    const SearchOracleOptions& options = {}) {
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

}  // namespace neuroprint::image

#endif  // NEUROPRINT_TESTS_REGISTRATION_SEARCH_ORACLE_H_
